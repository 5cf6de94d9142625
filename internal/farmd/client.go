package farmd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"druzhba/internal/campaign"
)

// StreamOptions configures a campaign submission stream.
type StreamOptions struct {
	// Token, when non-empty, is sent as "Authorization: Bearer <Token>".
	Token string

	// LastRow is the number of stream rows already received; a resumable
	// server (one that answers with a Campaign-Id header) replays the
	// stream from this index instead of restarting the campaign.
	LastRow int

	// Client is the HTTP client to submit with (nil = http.DefaultClient).
	// Fault-injection tests thread a chaos transport through here.
	Client *http.Client

	// NoResume disables automatic reconnection on mid-stream transport
	// failures even when the server advertises resumability.
	NoResume bool
}

// Stream is one open NDJSON campaign stream: rows are read with Next until
// io.EOF. CampaignID is non-empty when the server can replay this stream
// from an index (the fabric coordinator); plain dfarmd streams are not
// resumable because a re-submission would re-run the campaign.
type Stream struct {
	// CampaignID identifies the campaign for resumption ("" = stream is
	// not resumable).
	CampaignID string

	body io.ReadCloser
	br   *bufio.Reader

	// Rows is the count of rows received over this stream's lifetime,
	// including rows inherited from a resumed predecessor — exactly the
	// Last-Row index a successor stream should ask for.
	Rows int
}

// OpenStream posts a matrix request and returns the open row stream. A
// non-2xx response is decoded into an error; the campaign never started
// (or, for a resume, the stream did not reattach).
func OpenStream(ctx context.Context, server string, req *MatrixRequest, opts StreamOptions) (*Stream, error) {
	var header http.Header
	if opts.LastRow > 0 {
		header = http.Header{"Last-Row": {strconv.Itoa(opts.LastRow)}}
	}
	wire := Wire{Client: opts.Client, Token: opts.Token}
	resp, err := wire.Do(ctx, http.MethodPost, strings.TrimSuffix(server, "/")+"/v1/campaigns", req, header)
	if err != nil {
		var rejected *StatusError
		if errors.As(err, &rejected) {
			return nil, fmt.Errorf("farmd: server: %w", err)
		}
		return nil, fmt.Errorf("farmd: submit: %w", err)
	}
	return &Stream{
		CampaignID: resp.Header.Get("Campaign-Id"),
		body:       resp.Body,
		// ReadBytes rather than a Scanner: an unbounded-counterexample job
		// row has no a-priori size cap, and a row the server produced must
		// never fail the client. ReadBytes joins a row longer than the
		// buffer, so the default size loses nothing.
		br:   bufio.NewReader(resp.Body),
		Rows: opts.LastRow,
	}, nil
}

// Next returns the stream's next row; io.EOF means the server closed the
// stream cleanly after its last row.
func (s *Stream) Next() (Row, error) {
	for {
		line, err := s.br.ReadBytes('\n')
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if err != nil {
				if err == io.EOF {
					return Row{}, io.EOF
				}
				return Row{}, fmt.Errorf("farmd: stream: %w", err)
			}
			continue
		}
		var row Row
		if uerr := json.Unmarshal(line, &row); uerr != nil {
			return Row{}, fmt.Errorf("farmd: bad stream row: %w", uerr)
		}
		s.Rows++
		return row, nil
	}
}

// Close releases the stream's connection.
func (s *Stream) Close() error { return s.body.Close() }

// Submit posts a matrix request to a dfarmd server and reassembles the
// streamed rows into a campaign report. The reassembled report carries the
// same job rows, verdict and totals the server's engine produced — plus the
// summary row's cache and timing metadata — so rendering it is
// byte-identical to rendering an offline run of the same matrix.
//
// When the stream dies mid-campaign (cancellation, server failure), the
// partial report reassembled so far is returned together with the error —
// marked stopped-early and failed — matching the offline engine's
// partial-report-on-cancel behavior, so already-streamed rows are never
// thrown away. A report with its summary row is returned only after the
// server has finished the request.
func Submit(ctx context.Context, server string, req *MatrixRequest) (*campaign.Report, error) {
	return SubmitOpts(ctx, server, req, StreamOptions{}, nil)
}

// resumeAttempts bounds consecutive reconnections of a resumable stream;
// any successfully received row resets the count.
const resumeAttempts = 5

// SubmitOpts is Submit with explicit stream options and a per-row callback
// invoked as rows arrive (nil onRow is allowed); returning an error from the
// callback abandons the stream. This is the delta-consuming form: a
// monitoring client can render each job the moment the server finishes it.
// Against a server that advertises resumability (the fabric coordinator's
// Campaign-Id header), a stream severed mid-campaign is transparently
// reattached with the Last-Row index, so the reassembled report — and any
// NDJSON a caller renders from onRow — is byte-identical to an unsevered
// run; the campaign itself keeps executing server-side while the client is
// away. Non-resumable streams fail as before, returning the partial
// report.
func SubmitOpts(ctx context.Context, server string, req *MatrixRequest, opts StreamOptions, onRow func(Row) error) (*campaign.Report, error) {
	rep := &campaign.Report{Passed: true}
	// partial finalizes the report for a stream that died before its
	// summary row: the rows received so far are kept, and the verdict
	// mirrors a cancelled offline run.
	partial := func(err error) (*campaign.Report, error) {
		rep.Passed = false
		rep.StoppedEarly = true
		for i := range rep.Jobs {
			rep.TotalChecked += int64(rep.Jobs[i].Checked)
		}
		return rep, err
	}

	stream, err := OpenStream(ctx, server, req, opts)
	if err != nil {
		return nil, err
	}
	defer func() { stream.Close() }()

	attempts := 0
	for {
		row, err := stream.Next()
		if err != nil {
			if err == io.EOF {
				return partial(fmt.Errorf("farmd: stream ended without a summary row (%d rows received)", stream.Rows))
			}
			if opts.NoResume || stream.CampaignID == "" || ctx.Err() != nil {
				return partial(err)
			}
			// The campaign is still running server-side; reattach at the
			// row after the last one received.
			attempts++
			if attempts > resumeAttempts {
				return partial(fmt.Errorf("farmd: stream resume gave up after %d attempts: %w", resumeAttempts, err))
			}
			select {
			case <-time.After(time.Duration(attempts) * 100 * time.Millisecond):
			case <-ctx.Done():
				return partial(err)
			}
			ropts := opts
			ropts.LastRow = stream.Rows
			next, rerr := OpenStream(ctx, server, req, ropts)
			if rerr != nil {
				continue
			}
			stream.Close()
			stream = next
			continue
		}
		attempts = 0
		if onRow != nil {
			if err := onRow(row); err != nil {
				return partial(err)
			}
		}
		switch {
		case row.Error != "":
			return partial(fmt.Errorf("farmd: server: %s", row.Error))
		case row.Job != nil:
			rep.Jobs = append(rep.Jobs, *row.Job)
		case row.Summary != nil:
			rep.Passed = row.Summary.Passed
			rep.TotalChecked = row.Summary.TotalChecked
			rep.StoppedEarly = row.Summary.StoppedEarly
			rep.Cache = row.Summary.Cache
			rep.Timing = row.Summary.Timing
			// The summary is the server's last row. Reading on to the end
			// of the body returns only once the server's handler has
			// returned, and hands the connection back for reuse.
			io.Copy(io.Discard, stream.br) //nolint:errcheck // the report is complete
			return rep, nil
		}
	}
}
