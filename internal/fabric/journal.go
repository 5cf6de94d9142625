package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"druzhba/internal/farmd"
)

// Journal persists the coordinator's campaigns: per campaign, the matrix
// request (<id>.req.json, written atomically before the first shard runs),
// the row stream (<id>.ndjson, appended and synced as rows are produced)
// and a completion marker (<id>.done). Together they are both the resume
// log — a reconnecting client replays rows from its Last-Row index — and
// the job queue's persistence: on restart, completed campaigns replay from
// disk and unfinished ones re-run from their journaled requests, which
// determinism (plus a warm shard cache) makes cheap and byte-identical.
type Journal struct {
	dir string
}

// NewJournal opens (creating if needed) a journal rooted at dir.
func NewJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: journal dir: %w", err)
	}
	return &Journal{dir: dir}, nil
}

func (j *Journal) reqPath(id string) string  { return filepath.Join(j.dir, id+".req.json") }
func (j *Journal) rowsPath(id string) string { return filepath.Join(j.dir, id+".ndjson") }
func (j *Journal) donePath(id string) string { return filepath.Join(j.dir, id+".done") }

// SaveRequest journals a campaign's matrix request atomically.
func (j *Journal) SaveRequest(id string, req *farmd.MatrixRequest) error {
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(j.dir, id+".req.tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), j.reqPath(id))
}

// OpenRows opens (truncating) a campaign's row stream for appending. A
// re-run after a crash truncates: the rows will be reproduced
// byte-identically, and a half-written tail must not survive in front of
// them.
func (j *Journal) OpenRows(id string) (*RowWriter, error) {
	f, err := os.OpenFile(j.rowsPath(id), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &RowWriter{f: f}, nil
}

// RowWriter appends rows to one campaign's journal stream.
type RowWriter struct {
	f *os.File
}

// Append writes one row (a complete JSON document, no trailing newline)
// and syncs it: once a subscriber has seen a row, a coordinator crash must
// not unsee it.
func (w *RowWriter) Append(row []byte) error {
	if _, err := w.f.Write(append(append([]byte{}, row...), '\n')); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close closes the stream file.
func (w *RowWriter) Close() error { return w.f.Close() }

// MarkDone records that a campaign's stream is complete (its final row is
// the summary or error row already journaled).
func (j *Journal) MarkDone(id string) error {
	f, err := os.OpenFile(j.donePath(id), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// LoadRequest reads a journaled campaign request; ok is false if the
// campaign is unknown. It reads at most farmd.MaxMatrixBytes, the cap the
// request was admitted under: a larger file is an error.
func (j *Journal) LoadRequest(id string) (*farmd.MatrixRequest, bool, error) {
	f, err := os.Open(j.reqPath(id))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, farmd.MaxMatrixBytes+1))
	if err != nil {
		return nil, false, err
	}
	if len(data) > farmd.MaxMatrixBytes {
		return nil, false, fmt.Errorf("fabric: journal %s: request over %d bytes", id, farmd.MaxMatrixBytes)
	}
	var req farmd.MatrixRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, false, fmt.Errorf("fabric: journal %s: %w", id, err)
	}
	return &req, true, nil
}

// LoadRows reads a campaign's journaled rows. A read that fails before the
// end of the file is an error, not a shorter stream.
func (j *Journal) LoadRows(id string) ([][]byte, error) {
	f, err := os.Open(j.rowsPath(id))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]byte
	br := bufio.NewReaderSize(f, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			rows = append(rows, append([]byte{}, trimmed...))
		}
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("fabric: journal %s: %w", id, err)
		}
	}
}

// Done reports whether a campaign's stream completed.
func (j *Journal) Done(id string) bool {
	_, err := os.Stat(j.donePath(id))
	return err == nil
}

// Campaigns lists every journaled campaign id.
func (j *Journal) Campaigns() ([]string, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".req.json"); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	return ids, nil
}
