package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/farmd"
)

// smallMatrix is the request the fabric tests distribute: a couple of
// jobs, several shards each.
func smallMatrix() *farmd.MatrixRequest {
	return &farmd.MatrixRequest{Arch: "all", Run: "counter", Packets: 600, ShardSize: 128}
}

// bothMatrix covers the verify-lease path and the corpus handoff into the
// fuzz phase of a both-mode campaign.
func bothMatrix() *farmd.MatrixRequest {
	return &farmd.MatrixRequest{
		Run:     "sampling",
		Mode:    farmd.ModeBoth,
		Packets: 256, ShardSize: 64,
		VerifyBits: []int{3}, VerifySteps: []int{2},
	}
}

// localRender runs the matrix in-process — no fabric anywhere — and
// returns the deterministic report renderings every distributed run must
// reproduce byte for byte.
func localRender(t *testing.T, req *farmd.MatrixRequest) (string, string) {
	t.Helper()
	rep, err := farmd.RunMatrix(context.Background(), req, campaign.Options{Workers: 3, ShardSize: req.ShardSize})
	if err != nil {
		t.Fatal(err)
	}
	return render(t, rep)
}

func render(t *testing.T, rep *campaign.Report) (string, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return rep.Text(false), buf.String()
}

// startWorker launches a dfarmd worker and registers it with the
// coordinator's registry.
func startWorker(t *testing.T, c *Coordinator, cfg farmd.Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(farmd.NewServer(cfg))
	t.Cleanup(ts.Close)
	c.Registry().Register(ts.URL)
	return ts
}

// startCoordinator launches a coordinator over cfg.
func startCoordinator(t *testing.T, cfg CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts
}

// submitRender submits through the coordinator and returns the
// deterministic renderings.
func submitRender(t *testing.T, url string, req *farmd.MatrixRequest, opts farmd.StreamOptions) (string, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := farmd.SubmitOpts(ctx, url, req, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return render(t, rep)
}

// TestDistributedByteIdentity is the tentpole acceptance test: a campaign
// executed across a coordinator and two workers renders byte-identically
// to a single-process run of the same matrix — for a plain fuzz matrix and
// for a both-mode matrix whose fuzz leases must carry the verify phase's
// counterexample rows.
func TestDistributedByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func() *farmd.MatrixRequest
	}{
		{"fuzz", smallMatrix},
		{"both", bothMatrix},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantText, wantJSON := localRender(t, tc.req())
			c, ts := startCoordinator(t, CoordConfig{Cache: farmd.NewMemCache(0), Workers: 3})
			startWorker(t, c, farmd.Config{Workers: 2})
			startWorker(t, c, farmd.Config{Workers: 2})

			gotText, gotJSON := submitRender(t, ts.URL, tc.req(), farmd.StreamOptions{})
			if gotText != wantText {
				t.Fatalf("distributed text differs from local run:\n--- distributed\n%s--- local\n%s", gotText, wantText)
			}
			if gotJSON != wantJSON {
				t.Fatalf("distributed JSON differs from local run")
			}
			if got := c.Dispatcher().Stats().Leases; got == 0 {
				t.Fatal("no leases executed: the campaign never left the coordinator")
			}
		})
	}
}

// TestChaosByteIdentity drives a campaign through a fault-injecting
// transport — drops, post-response losses (the lease ran, the result
// vanished: the retry-idempotency case), delays — under a sweep of fault
// schedules (eight seeds; one under -short) and requires every report to
// stay byte-identical to a clean local run, with the fault counters proving
// each schedule actually fired.
func TestChaosByteIdentity(t *testing.T) {
	// Many small shards, so every schedule draws enough faults of each kind.
	matrix := func() *farmd.MatrixRequest {
		return &farmd.MatrixRequest{Arch: "all", Run: "counter", Packets: 600, ShardSize: 16}
	}
	wantText, wantJSON := localRender(t, matrix())
	seeds := []int64{42, 1, 2, 3, 4, 5, 6, 7}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaos := NewChaosTransport(seed)
			chaos.DropRate = 0.25
			chaos.LossRate = 0.25
			chaos.DelayRate = 0.3
			chaos.MaxDelay = 5 * time.Millisecond
			c, ts := startCoordinator(t, CoordConfig{
				Cache:   farmd.NewMemCache(0),
				Workers: 3,
				Dispatch: DispatchConfig{
					// Faults must never exhaust the retry budget: every shard
					// eventually lands, so byte-identity is the whole report.
					MaxAttempts: 100,
					PoisonAfter: 100,
					BaseBackoff: time.Millisecond,
					MaxBackoff:  10 * time.Millisecond,
					// Shorter than a backoff, so a benched worker is back
					// before its shard retries: faulted leases stay on the
					// fabric (two benched workers would otherwise send the rest
					// of the campaign to the local fallback, past the faults).
					Cooldown: 50 * time.Microsecond,
					Client:   &http.Client{Transport: chaos},
				},
			})
			startWorker(t, c, farmd.Config{Workers: 2})
			startWorker(t, c, farmd.Config{Workers: 2})

			gotText, gotJSON := submitRender(t, ts.URL, matrix(), farmd.StreamOptions{})
			if gotText != wantText || gotJSON != wantJSON {
				t.Fatalf("report under chaos differs from clean local run:\n--- chaos\n%s--- local\n%s", gotText, wantText)
			}
			drops, losses, _, _ := chaos.Counters()
			if drops == 0 || losses == 0 {
				t.Fatalf("chaos fired no faults (drops=%d losses=%d): the schedule proved nothing", drops, losses)
			}
			if c.Dispatcher().Stats().Retries == 0 {
				t.Fatal("no retries under chaos")
			}
		})
	}
}

// dyingWorker wraps a worker handler: after surviving leases, every
// connection is severed mid-request — the unit-test stand-in for SIGKILL
// (the CI smoke test does it with a real signal). onDeath, if set, runs
// once, before the first severed request's error reaches the dispatcher.
type dyingWorker struct {
	inner    http.Handler
	survives int64
	served   int64
	onDeath  func()
	died     sync.Once
}

func (d *dyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if atomic.AddInt64(&d.served, 1) > d.survives {
		if d.onDeath != nil {
			d.died.Do(d.onDeath)
		}
		panic(http.ErrAbortHandler)
	}
	d.inner.ServeHTTP(w, r)
}

// TestWorkerDeathMidCampaign kills one of two workers after its third
// lease: its in-flight and future leases fail as transport errors, the
// dispatcher benches it and re-issues every lost shard to the survivor,
// and the report stays byte-identical — no row lost, none duplicated.
func TestWorkerDeathMidCampaign(t *testing.T) {
	wantText, wantJSON := localRender(t, smallMatrix())
	c, ts := startCoordinator(t, CoordConfig{
		Cache:   farmd.NewMemCache(0),
		Workers: 3,
		Dispatch: DispatchConfig{
			MaxAttempts: 100,
			PoisonAfter: 100,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Cooldown:    20 * time.Millisecond,
		},
	})
	dying := &dyingWorker{inner: farmd.NewServer(farmd.Config{Workers: 2}), survives: 1}
	dts := httptest.NewServer(dying)
	t.Cleanup(dts.Close)
	c.Registry().Register(dts.URL)
	// The survivor is up from the start but joins the registry only when
	// the dying worker dies: every pre-death lease must land on the dying
	// worker, so the death is always exercised mid-campaign (with both
	// registered up front, least-loaded picking could drain the whole
	// matrix through the survivor and never deliver the fatal lease).
	sts := httptest.NewServer(farmd.NewServer(farmd.Config{Workers: 2}))
	t.Cleanup(sts.Close)
	dying.onDeath = func() { c.Registry().Register(sts.URL) }

	gotText, gotJSON := submitRender(t, ts.URL, smallMatrix(), farmd.StreamOptions{})
	if gotText != wantText || gotJSON != wantJSON {
		t.Fatalf("report after worker death differs from local run:\n--- fabric\n%s--- local\n%s", gotText, wantText)
	}
	if got := atomic.LoadInt64(&dying.served); got <= dying.survives {
		t.Fatalf("dying worker served %d requests; it never actually died mid-campaign", got)
	}
	if c.Dispatcher().Stats().Retries == 0 {
		t.Fatal("no retries recorded for the dead worker's shards")
	}
}

// poisonWorker wraps a worker handler: leases for jobs whose name contains
// match are answered 500 — a worker that is alive and responsive but
// cannot run one specific shard family (the poison scenario).
type poisonWorker struct {
	inner http.Handler
	match string
}

func (p *poisonWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/leases" {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		var lease farmd.ShardLease
		if json.Unmarshal(body, &lease) == nil && strings.Contains(lease.Job, p.match) {
			http.Error(w, "injected failure", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	p.inner.ServeHTTP(w, r)
}

// TestPoisonShardQuarantine: a shard that fails on PoisonAfter distinct,
// alive workers is quarantined as that job's errored row — the rest of the
// campaign completes normally, and nothing falls back to local execution
// (the workers are alive; the shard is the problem).
func TestPoisonShardQuarantine(t *testing.T) {
	c, ts := startCoordinator(t, CoordConfig{
		Workers: 3,
		Dispatch: DispatchConfig{
			MaxAttempts: 20,
			PoisonAfter: 2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
	})
	for i := 0; i < 2; i++ {
		pw := &poisonWorker{inner: farmd.NewServer(farmd.Config{Workers: 2}), match: "compiled"}
		pts := httptest.NewServer(pw)
		t.Cleanup(pts.Close)
		c.Registry().Register(pts.URL)
	}

	// Four jobs (one per optimization level); only the compiled variant is
	// poisoned.
	req := &farmd.MatrixRequest{Arch: "rmt", Run: "sampling", Packets: 600, ShardSize: 128}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := farmd.SubmitOpts(ctx, ts.URL, req, farmd.StreamOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var poisoned, passed int
	for _, j := range rep.Jobs {
		switch {
		case strings.Contains(j.Name, "compiled"):
			if j.Status != campaign.StatusError || !strings.Contains(j.Error, "poisoned") {
				t.Fatalf("job %s: status %q error %q, want quarantined poison error", j.Name, j.Status, j.Error)
			}
			poisoned++
		default:
			if j.Status != campaign.StatusPass {
				t.Fatalf("job %s: status %q, want pass (poison must not leak into healthy jobs)", j.Name, j.Status)
			}
			passed++
		}
	}
	if poisoned == 0 || passed == 0 {
		t.Fatalf("matrix had %d poisoned / %d passed jobs; the scenario needs both", poisoned, passed)
	}
	if got := c.Dispatcher().Stats().Poisoned; got == 0 {
		t.Fatal("dispatcher counted no poisoned shards")
	}
	if got := c.Dispatcher().Stats().Fallback; got != 0 {
		t.Fatalf("%d local fallbacks; alive-but-failing workers must poison, not fall back", got)
	}

	// Forensics: the quarantine ledger names the workers that failed each
	// shard with a full attempt timeline, the same record surfaces in
	// /v1/stats, and the errored report rows carry the timeline.
	recs := c.Dispatcher().PoisonForensics()
	if len(recs) == 0 {
		t.Fatal("no poison forensics recorded")
	}
	for _, rec := range recs {
		// Quarantine fires on PoisonAfter=2 distinct workers or
		// MaxAttempts total, so every timeline has at least two entries
		// naming every distinct worker that failed the shard.
		if len(rec.Workers) == 0 || len(rec.Attempts) < 2 {
			t.Fatalf("poison record %s/%d: %d workers, %d attempts; want a populated timeline",
				rec.Job, rec.Shard, len(rec.Workers), len(rec.Attempts))
		}
		distinct := map[string]bool{}
		for _, a := range rec.Attempts {
			if a.Worker == "" || a.Class == "" || a.Error == "" {
				t.Fatalf("poison attempt incomplete: %+v", a)
			}
			distinct[a.Worker] = true
		}
		if len(distinct) != len(rec.Workers) {
			t.Fatalf("poison record %s/%d names %d workers but its timeline spans %d",
				rec.Job, rec.Shard, len(rec.Workers), len(distinct))
		}
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats CoordStats
	derr := json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if derr != nil {
		t.Fatal(derr)
	}
	if len(stats.Poison) != len(recs) {
		t.Fatalf("/v1/stats poison has %d records, dispatcher holds %d", len(stats.Poison), len(recs))
	}
	for _, j := range rep.Jobs {
		if strings.Contains(j.Name, "compiled") && !strings.Contains(j.Error, "workers [") {
			t.Fatalf("errored row %q lacks the poison attempt timeline: %q", j.Name, j.Error)
		}
	}
}

// TestNoWorkersLocalFallback: a coordinator with an empty (or fully
// drained) fleet degrades to local execution and still renders
// byte-identically.
func TestNoWorkersLocalFallback(t *testing.T) {
	wantText, wantJSON := localRender(t, smallMatrix())
	c, ts := startCoordinator(t, CoordConfig{Workers: 3})
	gotText, gotJSON := submitRender(t, ts.URL, smallMatrix(), farmd.StreamOptions{})
	if gotText != wantText || gotJSON != wantJSON {
		t.Fatalf("local-fallback report differs:\n--- fallback\n%s--- local\n%s", gotText, wantText)
	}
	if got := c.Dispatcher().Stats().Fallback; got == 0 {
		t.Fatal("no fallbacks recorded with an empty fleet")
	}
	if got := c.Dispatcher().Stats().Leases; got != 0 {
		t.Fatalf("%d leases executed with no workers registered", got)
	}
	// The fallback is where a coordinator builds: once per job.
	jobs, err := smallMatrix().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape(t, ts.URL)["druzhba_campaign_target_builds_total"]; got != float64(len(jobs)) {
		t.Fatalf("fallback built %v targets, want one per job (%d)", got, len(jobs))
	}
}

// TestResumeAfterDisconnect: a client that consumed part of a stream and
// disconnected reattaches with Last-Row and receives exactly the rows it
// missed; the concatenation is byte-identical to an unsevered stream.
func TestResumeAfterDisconnect(t *testing.T) {
	c, ts := startCoordinator(t, CoordConfig{Workers: 3, JournalDir: t.TempDir()})
	startWorker(t, c, farmd.Config{Workers: 2})
	req := smallMatrix()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// First connection: take one row, then vanish.
	s1, err := farmd.OpenStream(ctx, ts.URL, req, farmd.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.CampaignID == "" {
		t.Fatal("coordinator stream advertises no Campaign-Id")
	}
	first, err := s1.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first.Job == nil {
		t.Fatalf("first row is not a job row: %+v", first)
	}
	s1.Close()

	// Second connection: resume from row 1. The campaign kept running
	// while nobody watched.
	var resumed []farmd.Row
	s2, err := farmd.OpenStream(ctx, ts.URL, req, farmd.StreamOptions{LastRow: s1.Rows})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for {
		row, err := s2.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		resumed = append(resumed, row)
	}
	if len(resumed) == 0 || resumed[len(resumed)-1].Summary == nil {
		t.Fatalf("resumed stream did not end with a summary (%d rows)", len(resumed))
	}
	for i, row := range resumed[:len(resumed)-1] {
		if row.Job == nil {
			t.Fatalf("resumed row %d is not a job row", i)
		}
	}

	// A fresh full stream of the same campaign replays from the journal;
	// severed-and-resumed must equal unsevered.
	full, err := farmd.SubmitOpts(ctx, ts.URL, req, farmd.StreamOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stitched := []campaign.JobReport{*first.Job}
	for _, row := range resumed {
		if row.Job != nil {
			stitched = append(stitched, *row.Job)
		}
	}
	a, _ := json.Marshal(stitched)
	b, _ := json.Marshal(full.Jobs)
	if !bytes.Equal(a, b) {
		t.Fatalf("stitched rows differ from unsevered stream:\n%s\n%s", a, b)
	}
}

// TestClientAutoResume: SubmitOpts reattaches transparently when the
// stream dies under it mid-campaign.
func TestClientAutoResume(t *testing.T) {
	wantText, wantJSON := localRender(t, smallMatrix())
	c, ts := startCoordinator(t, CoordConfig{Workers: 3, JournalDir: t.TempDir()})
	startWorker(t, c, farmd.Config{Workers: 2})

	// A transport that kills every other response body mid-read would be
	// hard to do deterministically; instead sever at the HTTP layer: the
	// proxy closes each stream after relaying one row, forcing a resume
	// per row.
	rows := int64(0)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		req, err := http.NewRequestWithContext(r.Context(), r.Method, ts.URL+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		if err == nil {
			atomic.AddInt64(&rows, 1) // before the flush: the client may finish on this row
			w.Write(line)             //nolint:errcheck
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
		panic(http.ErrAbortHandler) // sever after one row, every time
	}))
	t.Cleanup(proxy.Close)

	gotText, gotJSON := submitRender(t, proxy.URL, smallMatrix(), farmd.StreamOptions{})
	if gotText != wantText || gotJSON != wantJSON {
		t.Fatalf("auto-resumed report differs from local run:\n--- resumed\n%s--- local\n%s", gotText, wantText)
	}
	if atomic.LoadInt64(&rows) < 2 {
		t.Fatalf("proxy relayed %d rows; the stream never actually severed mid-campaign", rows)
	}
	_ = c
}

// TestCoordinatorRestartRecovery: a completed campaign replays from the
// journal byte-identically after a restart without re-executing anything,
// and a campaign the dead coordinator never finished re-runs to completion
// on startup.
func TestCoordinatorRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	req := smallMatrix()

	c1, ts1 := startCoordinator(t, CoordConfig{Workers: 3, JournalDir: dir})
	text1, json1 := submitRender(t, ts1.URL, req, farmd.StreamOptions{})
	c1.Close()
	ts1.Close()

	// Forge an unfinished campaign: journaled request, no done marker —
	// exactly what a coordinator killed mid-campaign leaves behind.
	unfinished := bothMatrix()
	j, err := NewJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	uid, err := CampaignID(unfinished)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SaveRequest(uid, unfinished); err != nil {
		t.Fatal(err)
	}

	// Restart. The unfinished campaign re-runs on startup; the completed
	// one replays from disk.
	c2, ts2 := startCoordinator(t, CoordConfig{Workers: 3, JournalDir: dir})
	text2, json2 := submitRender(t, ts2.URL, req, farmd.StreamOptions{})
	if text2 != text1 || json2 != json1 {
		t.Fatalf("journal replay differs from original stream:\n--- replayed\n%s--- original\n%s", text2, text1)
	}
	if got := c2.Dispatcher().Stats().Fallback + c2.Dispatcher().Stats().Leases; got != 0 {
		// The replayed campaign must come from disk, not re-execution...
		// except the unfinished campaign IS re-executing concurrently, so
		// only assert the replay itself: its rows arrived above without a
		// worker fleet, and fallbacks belong to the unfinished re-run.
		t.Logf("dispatch activity %d (unfinished campaign re-running)", got)
	}

	// The unfinished campaign must complete: subscribing to it returns
	// the full stream the dead coordinator owed.
	wantText, wantJSON := localRender(t, unfinished)
	gotText, gotJSON := submitRender(t, ts2.URL, unfinished, farmd.StreamOptions{})
	if gotText != wantText || gotJSON != wantJSON {
		t.Fatalf("recovered campaign differs from local run:\n--- recovered\n%s--- local\n%s", gotText, wantText)
	}
	// The producer writes the done marker after it has streamed the terminal
	// row, so the subscriber above can get here first.
	for deadline := time.Now().Add(10 * time.Second); !c2.journal.Done(uid); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("recovered campaign never marked done in the journal")
		}
	}
}

// TestLoadRowsReportsReadErrors: the journaled rows come back as written,
// a last row without its newline included, and a rows file that cannot be
// read — here a directory, whose read fails with EISDIR — is an error: it
// used to load as zero rows, and the coordinator replayed a done campaign
// as an empty stream.
func TestLoadRowsReportsReadErrors(t *testing.T) {
	j, err := NewJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(j.rowsPath("ok"), []byte("{\"a\":1}\n\n  {\"b\":2}"), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := j.LoadRows("ok")
	if got := fmt.Sprintf("%q", rows); err != nil || got != `["{\"a\":1}" "{\"b\":2}"]` {
		t.Fatalf("LoadRows = %s, %v", got, err)
	}
	if err := os.Mkdir(j.rowsPath("dir"), 0o755); err != nil {
		t.Fatal(err)
	}
	if rows, err := j.LoadRows("dir"); err == nil {
		t.Fatalf("LoadRows of an unreadable rows file = %d rows, nil error", len(rows))
	}
}

// FuzzJournalLoadRows: whatever bytes a rows file holds — torn, corrupt or
// not JSON at all — LoadRows never panics and returns exactly its non-blank
// lines, space-trimmed, in order: the rows bytes.Split finds.
func FuzzJournalLoadRows(f *testing.F) {
	f.Add([]byte("{\"a\":1}\n\n  {\"b\":2}"))
	f.Add([]byte(""))
	f.Add([]byte("\r\n\t\n \n"))
	f.Add([]byte("{\"row\":1}\n{\"row\":2,\"tru"))
	f.Add([]byte("\u0085{}\u00a0\n\xff\xfe\x00\n"))
	f.Add(append(bytes.Repeat([]byte("x"), 70<<10), "\n y \n"...)) // a line longer than the read buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := NewJournal(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(j.rowsPath("c"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rows, err := j.LoadRows("c")
		if err != nil {
			t.Fatalf("LoadRows: %v", err)
		}
		var want [][]byte
		for _, line := range bytes.Split(data, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				want = append(want, line)
			}
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d", len(rows), len(want))
		}
		for i := range rows {
			if !bytes.Equal(rows[i], want[i]) {
				t.Fatalf("row %d = %q, want %q", i, rows[i], want[i])
			}
		}
	})
}

// TestLoadRequestOversizedIsAnError: a journaled request is read under the
// cap it was admitted under, farmd.MaxMatrixBytes. A request file over it
// was not written by SaveRequest, so it is an error, which the coordinator
// skips like a torn file, and reading it costs nothing near its size:
// LoadRequest allocates well under 16 MiB for a sparse 256 MiB file.
func TestLoadRequestOversizedIsAnError(t *testing.T) {
	j, err := NewJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SaveRequest("big", &farmd.MatrixRequest{Arch: "rmt", Run: "sampling", Packets: 10}); err != nil {
		t.Fatal(err)
	}
	if req, ok, err := j.LoadRequest("big"); err != nil || !ok || req.Run != "sampling" {
		t.Fatalf("LoadRequest = %+v, %v, %v", req, ok, err)
	}
	if err := os.Truncate(j.reqPath("big"), 256<<20); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	req, ok, err := j.LoadRequest("big")
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("oversized request loaded: %+v, %v", req, ok)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("LoadRequest of an oversized request allocated %d bytes", alloc)
	}
}

// TestCoordinatorAuth: with a fleet secret configured, campaign
// submission, worker registration and both shard-store verbs 401 without
// the bearer token and succeed with it.
func TestCoordinatorAuth(t *testing.T) {
	_, ts := startCoordinator(t, CoordConfig{Workers: 2, Cache: farmd.NewMemCache(0), AuthToken: "fleet-s3cret"})

	do := func(method, path, token string, body []byte) int {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		return resp.StatusCode
	}

	matrix, _ := json.Marshal(smallMatrix())
	worker, _ := json.Marshal(map[string]string{"url": "http://w:1"})
	shard, _ := json.Marshal(farmd.WireShardResult{Checked: 1})
	key := strings.Repeat("ab", 32)
	protected := []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, "/v1/campaigns", matrix},
		{http.MethodPost, "/v1/workers", worker},
		{http.MethodGet, "/v1/shards/" + key, nil},
		{http.MethodPut, "/v1/shards/" + key, shard},
	}
	for _, p := range protected {
		if got := do(p.method, p.path, "", p.body); got != http.StatusUnauthorized {
			t.Errorf("%s %s without token: %d, want 401", p.method, p.path, got)
		}
		if got := do(p.method, p.path, "wrong", p.body); got != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token: %d, want 401", p.method, p.path, got)
		}
	}
	if got := do(http.MethodPut, "/v1/shards/"+key, "fleet-s3cret", shard); got != http.StatusNoContent {
		t.Errorf("authorized shard put: %d, want 204", got)
	}
	if got := do(http.MethodGet, "/v1/shards/"+key, "fleet-s3cret", nil); got != http.StatusOK {
		t.Errorf("authorized shard get: %d, want 200", got)
	}
	if got := do(http.MethodPost, "/v1/workers", "fleet-s3cret", worker); got != http.StatusNoContent {
		t.Errorf("authorized worker registration: %d, want 204", got)
	}
}

// TestSharedShardStore: the RemoteCache client round-trips results through
// the coordinator's store, and hostile keys are rejected before they can
// reach the disk tier's path mapping.
func TestSharedShardStore(t *testing.T) {
	_, ts := startCoordinator(t, CoordConfig{Cache: farmd.NewMemCache(0), AuthToken: "tok"})
	rc := farmd.NewRemoteCache(ts.URL, "tok", nil)

	key := strings.Repeat("cd", 32)
	want := &campaign.ShardResult{Checked: 128, Ticks: 9, Findings: []campaign.Finding{{Index: 3, Input: "in", Got: "g", Want: "w"}}}
	if _, ok := rc.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	rc.Put(key, want)
	got, ok := rc.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	a, _ := json.Marshal(farmd.WireResult(got))
	b, _ := json.Marshal(farmd.WireResult(want))
	if !bytes.Equal(a, b) {
		t.Fatalf("round-tripped result differs:\n%s\n%s", a, b)
	}

	// Errored results must not poison the shared store.
	rc.Put(strings.Repeat("ef", 32), &campaign.ShardResult{Err: context.DeadlineExceeded})
	if _, ok := rc.Get(strings.Repeat("ef", 32)); ok {
		t.Fatal("errored result entered the shared store")
	}

	// Hostile keys never reach the cache's path mapping.
	for _, bad := range []string{"../../etc/passwd", "..%2f..%2fx", "ABCDEF", "zz", strings.Repeat("a", 200)} {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/shards/"+bad, bytes.NewReader([]byte(`{"checked":1}`)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNoContent {
			t.Errorf("hostile key %q accepted", bad)
		}
	}
}

// TestRegistryLifecycle covers the failure detector with an injected
// clock: TTL expiry, cooldown benching, heartbeat revival and least-loaded
// picking.
func TestRegistryLifecycle(t *testing.T) {
	now := time.Unix(1000, 0)
	r := NewRegistry(15 * time.Second)
	r.now = func() time.Time { return now }

	r.Register("http://a")
	r.Register("http://b")
	if got := r.AliveCount(); got != 2 {
		t.Fatalf("alive %d, want 2", got)
	}

	// Least-loaded with lexicographic ties: a, then b, then a again.
	if got := r.Pick(nil); got != "http://a" {
		t.Fatalf("pick 1 = %q", got)
	}
	if got := r.Pick(nil); got != "http://b" {
		t.Fatalf("pick 2 = %q", got)
	}
	r.Done("http://a")
	if got := r.Pick(nil); got != "http://a" {
		t.Fatalf("pick 3 = %q", got)
	}

	// Cooldown benches a worker; a heartbeat revives it early.
	r.Fail("http://a", 10*time.Second)
	if got := r.Pick(map[string]bool{"http://b": true}); got != "" {
		t.Fatalf("picked cooling worker %q", got)
	}
	r.Register("http://a")
	if got := r.Pick(map[string]bool{"http://b": true}); got != "http://a" {
		t.Fatalf("heartbeat did not clear cooldown: %q", got)
	}

	// Silence past the TTL ages workers out of the fleet.
	now = now.Add(16 * time.Second)
	if got := r.AliveCount(); got != 0 {
		t.Fatalf("alive after TTL %d, want 0", got)
	}
	if got := r.Pick(nil); got != "" {
		t.Fatalf("picked expired worker %q", got)
	}
	r.Register("http://b")
	if got := r.Pick(nil); got != "http://b" {
		t.Fatalf("re-registered worker not picked: %q", got)
	}
}

// TestHeartbeatRegistersWorker drives the worker-side announce loop
// against a real coordinator.
func TestHeartbeatRegistersWorker(t *testing.T) {
	c, ts := startCoordinator(t, CoordConfig{AuthToken: "tok"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := RegisterWorker(ctx, ts.URL, "http://worker:9", "tok", nil); err != nil {
		t.Fatal(err)
	}
	if got := c.Registry().AliveCount(); got != 1 {
		t.Fatalf("alive %d after registration, want 1", got)
	}
	if err := RegisterWorker(ctx, ts.URL, "http://worker:9", "wrong", nil); err == nil {
		t.Fatal("registration with a wrong token succeeded")
	}
}
