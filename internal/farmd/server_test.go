package farmd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"druzhba/internal/campaign"
)

// smallMatrix is the two-architecture request the server tests submit.
func smallMatrix() *MatrixRequest {
	return &MatrixRequest{Arch: "all", Run: "counter", Packets: 600, ShardSize: 128}
}

// rawRows posts req and returns the response's NDJSON lines.
func rawRows(t *testing.T, url string, req *MatrixRequest) []string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return rawRowsBody(t, url, body)
}

// rawRowsBody posts a matrix request body as is and returns the response's
// NDJSON lines.
func rawRowsBody(t *testing.T, url string, body []byte) []string {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("stream has %d rows, want at least one job row plus a summary", len(lines))
	}
	return lines
}

// TestServerCachedResubmissionStreamsIdenticalRows is the acceptance
// scenario: submitting the same matrix twice executes zero shards the
// second time (summary cache counters) while the job rows — and the
// reassembled reports — are byte-identical to each other and to an offline
// run of the same matrix.
func TestServerCachedResubmissionStreamsIdenticalRows(t *testing.T) {
	srv := httptest.NewServer(NewServer(Config{Cache: NewMemCache(0), Workers: 3}))
	defer srv.Close()
	req := smallMatrix()

	first := rawRows(t, srv.URL, req)
	second := rawRows(t, srv.URL, req)
	if len(first) != len(second) {
		t.Fatalf("row counts differ: %d vs %d", len(first), len(second))
	}
	for i := 0; i < len(first)-1; i++ { // all but the summary row
		if first[i] != second[i] {
			t.Fatalf("job row %d differs between submissions:\n%s\n%s", i, first[i], second[i])
		}
	}
	var sum1, sum2 Row
	if err := json.Unmarshal([]byte(first[len(first)-1]), &sum1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(second[len(second)-1]), &sum2); err != nil {
		t.Fatal(err)
	}
	if sum1.Summary == nil || sum2.Summary == nil {
		t.Fatal("stream did not end with a summary row")
	}
	if sum1.Summary.Cache.Hits != 0 || sum1.Summary.Cache.Misses == 0 {
		t.Fatalf("first submission cache stats: %+v", sum1.Summary.Cache)
	}
	if sum2.Summary.Cache.Misses != 0 || sum2.Summary.Cache.Hits != sum1.Summary.Cache.Misses {
		t.Fatalf("second submission executed shards: %+v (first ran %+v)", sum2.Summary.Cache, sum1.Summary.Cache)
	}

	// Client-reassembled reports render byte-identically to an offline
	// run at the same settings, at several offline worker counts.
	clientRep, err := Submit(context.Background(), srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	var clientJSON bytes.Buffer
	if err := clientRep.WriteJSON(&clientJSON, false); err != nil {
		t.Fatal(err)
	}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 5} {
		offline, err := campaign.Run(context.Background(), jobs, campaign.Options{Workers: workers, ShardSize: req.ShardSize})
		if err != nil {
			t.Fatal(err)
		}
		var offlineJSON bytes.Buffer
		if err := offline.WriteJSON(&offlineJSON, false); err != nil {
			t.Fatal(err)
		}
		if clientJSON.String() != offlineJSON.String() {
			t.Fatalf("streamed report differs from offline report at workers=%d:\n--- client ---\n%s--- offline ---\n%s",
				workers, clientJSON.String(), offlineJSON.String())
		}
		if offline.Text(false) != clientRep.Text(false) {
			t.Fatalf("text rendering differs at workers=%d", workers)
		}
	}
}

// countedTarget wraps a matrix target and counts, per job, what a campaign
// makes of it: Build, NewRunner and RunShard calls.
type countedTarget struct {
	campaign.Target
	calls *[3]atomic.Int64
}

func (c countedTarget) Fingerprint() string {
	return c.Target.(campaign.Fingerprinter).Fingerprint()
}
func (c countedTarget) Build() (campaign.Instance, error) {
	c.calls[0].Add(1)
	inst, err := c.Target.Build()
	return countedInstance{inst, c.calls}, err
}

type countedInstance struct {
	campaign.Instance
	calls *[3]atomic.Int64
}

func (c countedInstance) NewRunner() (campaign.Runner, error) {
	c.calls[1].Add(1)
	r, err := c.Instance.NewRunner()
	return countedRunner{r, c.calls}, err
}

type countedRunner struct {
	campaign.Runner
	calls *[3]atomic.Int64
}

func (c countedRunner) RunShard(seed int64, n int) campaign.ShardResult {
	c.calls[2].Add(1)
	return c.Runner.RunShard(seed, n)
}

// TestServerWarmResubmissionBuildsNothing is the served form of "fully
// cached means untouched": what handleCampaigns does with a submission, run
// twice on one Server with every target counted, builds each job once on the
// cold submission and touches nothing on the warm one; on a server whose
// cache holds only part of the matrix, only the jobs it lacks are built.
func TestServerWarmResubmissionBuildsNothing(t *testing.T) {
	full := &MatrixRequest{Run: "s", Levels: []string{"compiled"}, Packets: 600, ShardSize: 128}
	part := &MatrixRequest{Run: "sampling", Levels: []string{"compiled"}, Packets: 600, ShardSize: 128}
	calls := map[string]*[3]atomic.Int64{}
	snapshot := func() map[string][3]int64 {
		out := map[string][3]int64{}
		for name, c := range calls {
			out[name] = [3]int64{c[0].Load(), c[1].Load(), c[2].Load()}
		}
		return out
	}
	submit := func(s *Server, req *MatrixRequest) *campaign.Report {
		t.Helper()
		exp, err := req.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for i := range exp.Fuzz {
			job := &exp.Fuzz[i]
			if calls[job.Name] == nil {
				calls[job.Name] = new([3]atomic.Int64)
			}
			job.Target = countedTarget{job.Target, calls[job.Name]}
		}
		opts := s.core.Options(req)
		rep, err := RunMatrixPhases(context.Background(), req, exp, func(string, *campaign.Report) campaign.Options { return opts })
		if err != nil || !rep.Passed {
			t.Fatalf("submission failed: %v\n%s", err, rep.Text(false))
		}
		return rep
	}

	s := NewServer(Config{Cache: NewMemCache(0), Workers: 2})
	cold := submit(s, full)
	if len(cold.Jobs) < 3 {
		t.Fatalf("matrix has %d jobs, want several", len(cold.Jobs))
	}
	afterCold := snapshot()
	for name, c := range afterCold {
		if c[0] != 1 || c[1] < 1 || c[2] != 5 { // ceil(600/128) shards
			t.Fatalf("cold submission of %s: builds/runners/shards = %v", name, c)
		}
	}
	warm := submit(s, full)
	if got := snapshot(); !reflect.DeepEqual(got, afterCold) {
		t.Fatalf("warm resubmission touched its targets:\ncold %v\nwarm %v", afterCold, got)
	}
	if warm.Cache.Misses != 0 || warm.Text(false) != cold.Text(false) {
		t.Fatalf("warm resubmission: cache %+v, report moved = %v", warm.Cache, warm.Text(false) != cold.Text(false))
	}

	half := NewServer(Config{Cache: NewMemCache(0), Workers: 2})
	submit(half, part)
	before := snapshot()
	submit(half, full)
	for name, c := range snapshot() {
		was := before[name]
		if strings.Contains(name, "sampling") {
			if c != was {
				t.Fatalf("half-warm submission touched the cached %s: builds/runners/shards %v -> %v", name, was, c)
			}
		} else if c[0] != was[0]+1 || c[2] != was[2]+5 {
			t.Fatalf("half-warm submission of %s: builds/runners/shards %v -> %v, want one build, five shards", name, was, c)
		}
	}
}

// TestServerStreamsJobRowsInMatrixOrder: rows arrive one per job, in the
// same order req.Jobs() builds them.
func TestServerStreamsJobRowsInMatrixOrder(t *testing.T) {
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()
	req := smallMatrix()
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	rep, err := SubmitOpts(context.Background(), srv.URL, req, StreamOptions{}, func(row Row) error {
		if row.Job != nil {
			names = append(names, row.Job.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(jobs) || len(rep.Jobs) != len(jobs) {
		t.Fatalf("streamed %d rows for %d jobs", len(names), len(jobs))
	}
	for i := range jobs {
		if names[i] != jobs[i].Name {
			t.Fatalf("row %d is %q, want %q", i, names[i], jobs[i].Name)
		}
	}
}

// TestServerRejectsBadMatrix: matrix errors surface as HTTP 400 with a
// JSON error body, before any stream bytes.
func TestServerRejectsBadMatrix(t *testing.T) {
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()
	for name, req := range map[string]*MatrixRequest{
		"bad arch":       {Arch: "quantum"},
		"no benchmarks":  {Run: "no-such-benchmark"},
		"levels on drmt": {Arch: "drmt", Levels: []string{"scc"}},
		"bad traffic":    {Traffic: []string{"chaotic"}},
		"procs on rmt":   {Arch: "rmt", Procs: []int{4}},
	} {
		if _, err := Submit(context.Background(), srv.URL, req); err == nil {
			t.Fatalf("%s: submission accepted", name)
		}
	}
}

// TestExpandBoundsTheMatrix: admission counts a request's jobs from its
// axes before building any and refuses a matrix past MaxMatrixJobs,
// MaxMatrixShards or campaign.MaxJobShards with a 400, before the stream
// starts. A 109 KB request of 20 000 seeds is 960 000 jobs: expanding it
// allocated 564 MB, refusing it must take under 16 MB.
func TestExpandBoundsTheMatrix(t *testing.T) {
	seeds := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	compiled := []string{"compiled"}
	for _, tc := range []struct {
		name string
		req  *MatrixRequest
		want string // "" = admitted
	}{
		{"20 000 seeds", &MatrixRequest{Seeds: seeds(20000)}, "farmd: the matrix expands to more than 16384 jobs"},
		{"MaxMatrixJobs jobs", &MatrixRequest{Run: "sampling", Levels: compiled, Seeds: seeds(MaxMatrixJobs)}, ""},
		{"one job more", &MatrixRequest{Run: "sampling", Levels: compiled, Seeds: seeds(MaxMatrixJobs + 1)}, "farmd: the matrix expands to more than 16384 jobs"},
		{"every axis at once", &MatrixRequest{Arch: "all", Mode: ModeBoth, Traffic: []string{"uniform", "boundary"}, Procs: []int{1, 2, 3, 4}, Seeds: seeds(200)}, "farmd: the matrix expands to more than 16384 jobs"},
		{"math.MaxInt packets", &MatrixRequest{Run: "sampling", Levels: compiled, Packets: math.MaxInt}, `campaign: job "rmt/sampling/compiled/seed=1" asks for 2251799813685248 shards`},
		{"2^40 one-packet shards", &MatrixRequest{Run: "sampling", Levels: compiled, Packets: 1 << 40, ShardSize: 1}, `campaign: job "rmt/sampling/compiled/seed=1" asks for 1099511627776 shards`},
		{"MaxMatrixShards shards", &MatrixRequest{Run: "sampling", Levels: compiled, Packets: campaign.MaxJobShards, ShardSize: 1, Seeds: seeds(4)}, ""},
		{"one job of shards more", &MatrixRequest{Run: "sampling", Levels: compiled, Packets: campaign.MaxJobShards, ShardSize: 1, Seeds: seeds(5)}, "farmd: the matrix plans more than 4194304 shards"},
	} {
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		req, ok := DecodeMatrix(rec, httptest.NewRequest(http.MethodPost, "/v1/campaigns", bytes.NewReader(body)))
		if ok {
			_, ok = ExpandMatrix(rec, req)
		}
		runtime.ReadMemStats(&after)
		if tc.want == "" {
			if !ok {
				t.Errorf("%s: refused: %s", tc.name, rec.Body)
			}
			continue
		}
		if ok || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), strings.ReplaceAll(tc.want, `"`, `\"`)) {
			t.Errorf("%s: admission answered %d %s, want 400 with %q", tc.name, rec.Code, rec.Body, tc.want)
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 16<<20 {
			t.Errorf("%s: refusing a %d-byte request allocated %d MB", tc.name, len(body), bytes>>20)
		}
	}

	// dfarmd answers the same 400 before the stream starts.
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()
	_, err := Submit(context.Background(), srv.URL, &MatrixRequest{Seeds: seeds(20000)})
	var se *StatusError
	if !errors.As(err, &se) || !strings.HasPrefix(se.Status, "400") || !strings.Contains(se.Msg, "more than 16384 jobs") {
		t.Errorf("Submit of 20 000 seeds = %v, want a 400 naming the bound", err)
	}
}

// TestServerEndpoints: the sidecar endpoints answer.
func TestServerEndpoints(t *testing.T) {
	s := NewServer(Config{Cache: NewMemCache(0)})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	var benches map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&benches); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(benches["rmt"]) == 0 || len(benches["drmt"]) == 0 {
		t.Fatalf("benchmark registries empty: %v", benches)
	}

	if _, err := Submit(context.Background(), srv.URL, smallMatrix()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Campaigns != 1 || stats.Jobs == 0 || stats.CacheMisses == 0 {
		t.Fatalf("stats after one campaign: %+v", stats)
	}
}

// TestSubmitKeepsPartialRowsOnDeadStream: a stream that dies before its
// summary row still yields the rows received so far, marked stopped-early
// and failed — already-streamed work is never thrown away.
func TestSubmitKeepsPartialRowsOnDeadStream(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		jr := campaign.JobReport{Name: "rmt/x/scc/seed=1", Status: campaign.StatusPass, Checked: 100}
		json.NewEncoder(w).Encode(Row{Job: &jr}) //nolint:errcheck // test stream
		// Connection closes with no summary row.
	}))
	defer srv.Close()
	rep, err := Submit(context.Background(), srv.URL, &MatrixRequest{})
	if err == nil {
		t.Fatal("dead stream reported no error")
	}
	if rep == nil || len(rep.Jobs) != 1 || rep.Jobs[0].Name != "rmt/x/scc/seed=1" {
		t.Fatalf("partial rows lost: %+v", rep)
	}
	if rep.Passed || !rep.StoppedEarly || rep.TotalChecked != 100 {
		t.Fatalf("partial report not finalized as cancelled: %+v", rep)
	}
}

// TestSubmitDecodesARowLongerThanItsBuffer: a job row with unbounded
// counterexamples has no size cap; one of several hundred KiB — past the
// client's read buffer and past the 64 KiB one it used to have — decodes
// whole, and the summary row after it still arrives.
func TestSubmitDecodesARowLongerThanItsBuffer(t *testing.T) {
	jr := campaign.JobReport{Name: "rmt/x/scc/seed=1", Status: campaign.StatusFail, Checked: 5000}
	for i := range 5000 {
		jr.Counterexamples = append(jr.Counterexamples, campaign.Counterexample{
			Packet: i, Input: strings.Repeat("7", 40), Got: "[1 2 3]", Want: "[1 2 4]",
		})
	}
	row, err := json.Marshal(Row{Job: &jr})
	if err != nil {
		t.Fatal(err)
	}
	if len(row) <= 64<<10 {
		t.Fatalf("the row is %d bytes, not longer than 64 KiB", len(row))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		enc.Encode(Row{Job: &jr})                                                    //nolint:errcheck // test stream
		enc.Encode(Row{Summary: &Summary{Jobs: 1, TotalChecked: int64(jr.Checked)}}) //nolint:errcheck // test stream
	}))
	defer srv.Close()
	rep, err := Submit(context.Background(), srv.URL, &MatrixRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 1 || !reflect.DeepEqual(rep.Jobs[0], jr) {
		t.Fatalf("the long row did not decode whole: %d jobs", len(rep.Jobs))
	}
	if rep.TotalChecked != int64(jr.Checked) || rep.StoppedEarly {
		t.Fatalf("the summary after the long row was lost: %+v", rep)
	}
}

// TestSubmitReturnsAfterTheHandler: Submit reads the stream to its end, so
// it returns only once the server's handler has — a caller that inspects
// the server next (metrics, spans, counters) sees the request finished —
// and successive submissions reuse one connection.
func TestSubmitReturnsAfterTheHandler(t *testing.T) {
	inner := NewServer(Config{Cache: NewMemCache(0), Workers: 2})
	var finished atomic.Bool
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		finished.Store(false)
		inner.ServeHTTP(w, r)
		time.Sleep(20 * time.Millisecond) // the summary row is already on the wire
		finished.Store(true)
	}))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	for i := 0; i < 3; i++ {
		rep, err := Submit(context.Background(), srv.URL, smallMatrix())
		if err != nil || !rep.Passed {
			t.Fatalf("submission %d: passed=%v err=%v", i, rep != nil && rep.Passed, err)
		}
		if !finished.Load() {
			t.Fatalf("submission %d: Submit returned before the server's handler did", i)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("three submissions opened %d connections, want 1", n)
	}
}

// TestServerJobTimeoutDefault: the server's default job timeout applies
// when the request sets none, and the report surfaces the timeout without
// wedging the daemon.
func TestServerJobTimeoutDefault(t *testing.T) {
	// The wide-fanin benchmark at a large packet count cannot finish in a
	// microsecond; the daemon must still answer promptly.
	srv := httptest.NewServer(NewServer(Config{JobTimeout: time.Microsecond}))
	defer srv.Close()
	req := &MatrixRequest{Arch: "drmt", Run: "wide-fanin", Packets: 200000, ShardSize: 4096}
	start := time.Now()
	rep, err := Submit(context.Background(), srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("timed-out campaign took %v", elapsed)
	}
	if rep.Passed {
		t.Fatal("campaign passed despite an impossible job timeout")
	}
	if !strings.Contains(rep.Jobs[0].Error, "wall-clock budget") {
		t.Fatalf("job error %q does not mention the budget", rep.Jobs[0].Error)
	}
}

// TestHTTPServerBoundsHeaderReads: the http.Server both daemons listen with
// gives a peer a finite time to finish its request headers.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	if srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler()); srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", srv.ReadHeaderTimeout)
	}
}

// TestLegacyBatchFieldIsIgnored: "batch" was a MatrixRequest field while the
// execution strategy was the operator's to set; the fuzzer now picks its own
// kernel and the field is gone. A body that still carries it must decode
// (the decoder is lenient), name the same request — and therefore the same
// lease instance-cache key — and stream the same job rows as the body
// without it. fabric.CampaignID has the matching test.
func TestLegacyBatchFieldIsIgnored(t *testing.T) {
	const plain = `{"arch":"all","run":"counter","packets":600,"shard_size":128}`
	decode := func(body string) (*MatrixRequest, string) {
		t.Helper()
		w := httptest.NewRecorder()
		req, ok := DecodeMatrix(w, httptest.NewRequest("POST", "/v1/campaigns", strings.NewReader(body)))
		if !ok {
			t.Fatalf("body %s rejected: %s", body, w.Body)
		}
		key, err := leaseKey(&ShardLease{Phase: "fuzz", Job: "drmt/counter", Request: req})
		if err != nil {
			t.Fatal(err)
		}
		return req, key
	}
	srv := httptest.NewServer(NewServer(Config{Workers: 2})) // no cache: every submission executes
	defer srv.Close()

	wantReq, wantKey := decode(plain)
	wantRows := rawRowsBody(t, srv.URL, []byte(plain))
	for _, body := range []string{
		`{"arch":"all","run":"counter","packets":600,"shard_size":128,"batch":64}`,
		`{"batch":1,"arch":"all","run":"counter","packets":600,"shard_size":128}`,
		`{"arch":"all","run":"counter","batch":0,"packets":600,"shard_size":128}`,
	} {
		req, key := decode(body)
		if !reflect.DeepEqual(req, wantReq) {
			t.Errorf("body %s decodes to %+v, want %+v", body, req, wantReq)
		}
		if key != wantKey {
			t.Errorf("body %s: lease instance key %s, want %s", body, key, wantKey)
		}
		rows := rawRowsBody(t, srv.URL, []byte(body))
		if len(rows) != len(wantRows) {
			t.Fatalf("body %s: %d rows, want %d", body, len(rows), len(wantRows))
		}
		for i := 0; i < len(rows)-1; i++ { // all but the summary row, which carries timing
			if rows[i] != wantRows[i] {
				t.Errorf("body %s: job row %d differs:\n%s\n%s", body, i, rows[i], wantRows[i])
			}
		}
	}
}
