package farmd

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"druzhba/internal/campaign"
)

// TestRunMatrixBothMode drives the two-phase orchestration end to end on a
// real benchmark: the verify rows stream first (matrix order), the fuzz
// rows follow, and the merged summary aggregates both phases.
func TestRunMatrixBothMode(t *testing.T) {
	req := &MatrixRequest{
		Run:     "sampling",
		Mode:    ModeBoth,
		Packets: 256, ShardSize: 64,
		VerifyBits: []int{3}, VerifySteps: []int{2},
	}
	rep, err := RunMatrix(context.Background(), req, campaign.Options{Workers: 2, ShardSize: 64, Cache: NewMemCache(64)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("both-mode run on a correct benchmark failed:\n%s", rep.Text(false))
	}
	// 1 verify job (one benchmark × one seed), then 4 fuzz jobs (the four
	// rmt optimization levels).
	if len(rep.Jobs) != 5 {
		t.Fatalf("got %d rows, want 5 (1 verify + 4 fuzz)", len(rep.Jobs))
	}
	if rep.Jobs[0].Mode != campaign.ModeVerify {
		t.Fatalf("first row mode %q, want verify rows first", rep.Jobs[0].Mode)
	}
	if len(rep.Jobs[0].Cells) == 0 || rep.Jobs[0].Cells[0].Verdict != campaign.VerdictProven {
		t.Fatalf("verify row did not prove: %+v", rep.Jobs[0])
	}
	for _, j := range rep.Jobs[1:] {
		if j.Mode != campaign.ModeFuzz {
			t.Fatalf("row %q mode %q, want fuzz after the verify block", j.Name, j.Mode)
		}
	}
	if rep.Cache == nil || rep.Timing == nil {
		t.Fatal("merged report lost cache or timing metadata")
	}
	var checked int64
	for _, j := range rep.Jobs {
		checked += int64(j.Checked)
	}
	if rep.TotalChecked != checked {
		t.Fatalf("TotalChecked %d, want the row sum %d", rep.TotalChecked, checked)
	}
}

// TestRunMatrixPhasesRunsTheGivenExpansion: a served submission expands
// once — the jobs admission expanded are the jobs that run. The expansion
// handed in here deliberately belongs to another request, so the rows show
// which matrix executed: the given one for the verify phase and, when the
// proofs yield no corpus to thread into the fuzzer, for the fuzz phase too.
func TestRunMatrixPhasesRunsTheGivenExpansion(t *testing.T) {
	req := &MatrixRequest{Run: "sampling", Mode: ModeBoth, Packets: 128, ShardSize: 64, VerifyBits: []int{3}, Levels: []string{"compiled"}}
	other := &MatrixRequest{Run: "blue-decrease", Mode: ModeBoth, Packets: 128, ShardSize: 64, VerifyBits: []int{3}, Levels: []string{"compiled"}}
	exp, err := other.Expand()
	if err != nil {
		t.Fatal(err)
	}
	opts := func(string, *campaign.Report) campaign.Options { return campaign.Options{Workers: 2, ShardSize: 64} }
	rep, err := RunMatrixPhases(context.Background(), req, exp, opts)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, j := range rep.Jobs {
		names = append(names, j.Name)
	}
	if got, want := strings.Join(names, " "), "verify/blue-decrease/seed=1 rmt/blue-decrease/compiled/seed=1"; got != want {
		t.Errorf("ran %q, want the given expansion %q", got, want)
	}
	// Without an expansion the request's own matrix runs.
	rep, err = RunMatrixPhases(context.Background(), req, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 2 || rep.Jobs[1].Name != "rmt/sampling/compiled/seed=1" {
		t.Errorf("nil expansion ran %+v, want the request's own jobs", rep.Jobs)
	}
}

// TestMatrixRequestModeValidation pins the mode axis's error surface:
// requests that mix verify mode with fuzz-only knobs, unknown modes, and
// verify on an architecture without a prover are rejected before any job
// runs.
func TestMatrixRequestModeValidation(t *testing.T) {
	cases := []struct {
		name string
		req  MatrixRequest
		want string // substring of the error, "" = valid
	}{
		{"default is fuzz", MatrixRequest{Run: "sampling"}, ""},
		{"explicit verify", MatrixRequest{Run: "sampling", Mode: campaign.ModeVerify}, ""},
		{"both", MatrixRequest{Run: "sampling", Mode: ModeBoth}, ""},
		{"unknown mode", MatrixRequest{Run: "sampling", Mode: "prove"}, `mode "prove"`},
		{"verify with levels", MatrixRequest{Run: "sampling", Mode: campaign.ModeVerify, Levels: []string{"O3"}}, "fuzz jobs only"},
		{"verify with traffic", MatrixRequest{Run: "sampling", Mode: campaign.ModeVerify, Traffic: []string{"boundary"}}, "fuzz jobs only"},
		{"verify with procs", MatrixRequest{Run: "sampling", Mode: campaign.ModeVerify, Procs: []int{2}}, "fuzz jobs only"},
		{"verify on drmt", MatrixRequest{Arch: "drmt", Run: "sampling", Mode: campaign.ModeVerify}, "rmt architecture only"},
		{"verify matches nothing", MatrixRequest{Run: "no-such-benchmark", Mode: campaign.ModeVerify}, "matches no rmt benchmark"},
		{"bad grid", MatrixRequest{Run: "sampling", Mode: campaign.ModeVerify, VerifyBits: []int{99}}, "width 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.Expand()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestDirCacheEviction fills a byte-capped DirCache past its cap and checks
// the LRU contract over segments: the oldest segments lose their files,
// recently used ones survive, the tracked size stays under the cap, and
// every survivor still round-trips — eviction bounds the cache, it never
// corrupts it. A job's segment goes whole, every record with it.
func TestDirCacheEviction(t *testing.T) {
	// Keys that are not engine keys are segments of their own, and all
	// lines serialize identically sized, so the cap arithmetic is exact:
	// room for three one-record segments plus slack, never four.
	entry := func(i int) *campaign.ShardResult { return &campaign.ShardResult{Checked: i, Ticks: int64(i)} }
	probe, err := json.Marshal(diskEntry{Key: "k0"})
	if err != nil {
		t.Fatal(err)
	}
	unit := int64(len(probe)) + 1 // a record is a newline and its entry
	c, err := NewDirCacheLimit(t.TempDir(), 3*unit+unit/2)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	for i, k := range keys {
		c.Put(k, entry(i))
	}
	if c.Len() != 3 || c.Size() != 3*unit {
		t.Fatalf("len %d size %d after overfill, want 3 segments of %d bytes", c.Len(), c.Size(), unit)
	}
	for _, k := range keys[:2] {
		if _, ok := c.Get(k); ok {
			t.Fatalf("oldest segment %s survived eviction", k)
		}
		if _, err := os.Stat(c.Path(k)); !os.IsNotExist(err) {
			t.Fatalf("evicted segment %s left its file behind", k)
		}
	}
	for i, k := range keys[2:] {
		res, ok := c.Get(k)
		if !ok {
			t.Fatalf("recent segment %s evicted", k)
		}
		if res.Checked != i+2 {
			t.Fatalf("record %s corrupted by eviction: %+v", k, res)
		}
	}

	// Get refreshes recency: touch the now-oldest survivor, overflow again,
	// and the untouched middle segment goes instead.
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("k2 missing before refresh")
	}
	c.Put("k5", entry(5))
	if _, ok := c.Get("k3"); ok {
		t.Fatal("k3 survived despite being least recently used")
	}
	if _, ok := c.Get("k2"); !ok {
		t.Fatal("recently touched k2 was evicted")
	}

	// Two records of one job weigh as one segment of their sum, and go
	// together: three more one-record segments push it out whole.
	job := strings.Repeat("4b", 16)
	c.Put(jobKey(job, 1), entry(1))
	c.Put(jobKey(job, 2), entry(2))
	for _, k := range []string{"k6", "k7", "k8"} {
		c.Put(k, entry(6))
	}
	for _, i := range []int{1, 2} {
		if _, ok := c.Get(jobKey(job, i)); ok {
			t.Fatalf("record %d of an evicted job's segment survived", i)
		}
	}
	if _, err := os.Stat(c.Path(jobKey(job, 1))); !os.IsNotExist(err) {
		t.Fatal("the evicted job's segment left its file behind")
	}
}

// TestDirCacheSingleEntrySurvivesCap: the most recent segment is never
// evicted, even when it alone exceeds the cap — a too-small cap degrades to
// a one-segment cache instead of an always-empty one.
func TestDirCacheSingleEntrySurvivesCap(t *testing.T) {
	c, err := NewDirCacheLimit(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("only", &campaign.ShardResult{Checked: 9})
	if _, ok := c.Get("only"); !ok {
		t.Fatal("sole entry evicted under a cap smaller than one entry")
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

// TestDirCacheScanSeedsRecencyFromMtimes: reopening a bounded cache over an
// existing directory rebuilds the accounting from the segment files,
// ordered by modification time, so eviction after a restart still removes
// the oldest segments first.
func TestDirCacheScanSeedsRecencyFromMtimes(t *testing.T) {
	dir := t.TempDir()
	warm, err := NewDirCache(dir) // unbounded writer: no eviction while seeding
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a0", "b1", "c2", "d3"}
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		warm.Put(k, &campaign.ShardResult{Checked: i})
		// Distinct mtimes in key order, oldest first.
		if err := os.Chtimes(warm.Path(k), base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error { //nolint:errcheck // test walk
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})

	unit := total / int64(len(keys))
	c, err := NewDirCacheLimit(dir, total-unit/2) // forces exactly one eviction on open
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("len %d after reopen past cap, want 3", c.Len())
	}
	if _, ok := c.Get("a0"); ok {
		t.Fatal("oldest-mtime segment survived the reopen eviction")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("newer segment %s evicted on reopen", k)
		}
	}
}

// TestDirCacheVerifyCellsRoundtrip: verify shard results persist their full
// deterministic cell payload — verdict, SAT stats, counterexample trace —
// while solve wall time never reaches disk.
func TestDirCacheVerifyCellsRoundtrip(t *testing.T) {
	c, err := NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := &campaign.ShardResult{
		Checked: 1,
		Cells: []campaign.VerifyCell{{
			Bits: 5, Steps: 2,
			Verdict: campaign.VerdictCounterexample,
			Vars:    474, Clauses: 1507, Conflicts: 206,
			Trace:    [][]int64{{7, 3, 1}, {7, 3, 1}},
			FailStep: 1,
			SolveMS:  123.456,
		}},
		Findings: []campaign.Finding{{Index: 0, Input: "trace", Got: "refuted", Want: "proven"}},
	}
	c.Put("cellkey", in)
	out, ok := c.Get("cellkey")
	if !ok {
		t.Fatal("verify result missing after Put")
	}
	if len(out.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(out.Cells))
	}
	cell := out.Cells[0]
	if cell.SolveMS != 0 {
		t.Fatalf("solve wall time leaked to disk: %v", cell.SolveMS)
	}
	want := in.Cells[0]
	want.SolveMS = 0
	if cell.Bits != want.Bits || cell.Steps != want.Steps || cell.Verdict != want.Verdict ||
		cell.Vars != want.Vars || cell.Clauses != want.Clauses || cell.Conflicts != want.Conflicts ||
		cell.FailStep != want.FailStep || len(cell.Trace) != 2 ||
		cell.Trace[0][0] != 7 || cell.Trace[1][2] != 1 {
		t.Fatalf("cell roundtrip mismatch:\n got %+v\nwant %+v", cell, want)
	}
	if len(out.Findings) != 1 || out.Findings[0] != in.Findings[0] {
		t.Fatalf("findings roundtrip mismatch: %+v", out.Findings)
	}
}
