package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// stubTarget scripts shard outcomes so merge edge paths can be pinned
// without real machinery. run must be a pure function of (seed, n), like
// any Runner.
type stubTarget struct {
	buildErr error
	run      func(seed int64, n int) ShardResult
}

func (t *stubTarget) Arch() string   { return "stub" }
func (t *stubTarget) Engine() string { return "none" }
func (t *stubTarget) Build() (Instance, error) {
	if t.buildErr != nil {
		return nil, t.buildErr
	}
	return t, nil
}
func (t *stubTarget) NewRunner() (Runner, error) { return t, nil }
func (t *stubTarget) RunShard(seed int64, n int) ShardResult {
	return t.run(seed, n)
}

// render snapshots a report's deterministic text and JSON renderings.
func render(t *testing.T, rep *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.String() + "\n---\n" + rep.Text(false)
}

// TestMergeEdgePathsGolden drives every merge edge path — build errors,
// shard errors, duplicate findings across shards, the counterexample cap —
// through the full engine and asserts a byte-identical golden report across
// worker counts.
func TestMergeEdgePathsGolden(t *testing.T) {
	jobs := []Job{
		{
			Name:    "unbuildable",
			Target:  &stubTarget{buildErr: errors.New("machine code incompatible")},
			Packets: 100,
		},
		{
			Name: "shard-error",
			Target: &stubTarget{run: func(seed int64, n int) ShardResult {
				// Every shard fails identically after checking 3 packets.
				return ShardResult{Checked: 3, Ticks: 9, Err: errors.New("boom")}
			}},
			Packets: 100, // 4 shards at size 32
		},
		{
			// Each shard reports the same two finding tuples (dedup across
			// shards must keep each once) plus one shard-unique tuple; the
			// cap of 3 then keeps the two duplicates-of-record and the
			// first unique one, in ascending packet order.
			Name: "dup-findings",
			Target: &stubTarget{run: func(seed int64, n int) ShardResult {
				return ShardResult{
					Checked: n,
					Ticks:   int64(n),
					Findings: []Finding{
						{Index: 0, Input: "{a}", Got: "{g}", Want: "{w}"},
						{Index: 1, Input: "{b}", Got: "{g}", Want: "{w}"},
						{Index: 2, Input: fmt.Sprintf("{seed=%d}", seed), Got: "{g}", Want: "{w}"},
					},
				}
			}},
			Packets: 96, // 3 shards at size 32
		},
		{
			Name: "clean",
			Target: &stubTarget{run: func(seed int64, n int) ShardResult {
				return ShardResult{Checked: n, Ticks: int64(2 * n)}
			}},
			Packets: 64,
		},
	}

	var want string
	var first *Report
	for _, workers := range []int{1, 3, 8} {
		rep, err := Run(context.Background(), jobs, Options{
			Workers: workers, ShardSize: 32, MaxCounterexamples: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := render(t, rep)
		if want == "" {
			want, first = got, rep
			continue
		}
		if got != want {
			t.Fatalf("report differs at workers=%d:\n--- want ---\n%s--- got ---\n%s", workers, want, got)
		}
	}

	byName := map[string]*JobReport{}
	for i := range first.Jobs {
		byName[first.Jobs[i].Name] = &first.Jobs[i]
	}
	if j := byName["unbuildable"]; j.Status != StatusError || !strings.Contains(j.Error, "incompatible") || j.Shards != 0 {
		t.Fatalf("unbuildable: %+v", j)
	}
	if j := byName["shard-error"]; j.Status != StatusError || j.Checked != 12 || !strings.Contains(j.Error, "shard 0: boom") {
		t.Fatalf("shard-error: %+v", j)
	}
	j := byName["dup-findings"]
	if j.Status != StatusFail || len(j.Counterexamples) != 3 {
		t.Fatalf("dup-findings: %+v", j)
	}
	// Shard 0 contributes {a} (packet 0), {b} (packet 1) and its unique
	// tuple (packet 2); later shards' {a}/{b} duplicates are deduped and
	// the cap stops their unique tuples from entering.
	for i, wantPkt := range []int{0, 1, 2} {
		if j.Counterexamples[i].Packet != wantPkt {
			t.Fatalf("counterexample %d at packet %d, want %d: %+v", i, j.Counterexamples[i].Packet, wantPkt, j.Counterexamples)
		}
	}
	if c := byName["clean"]; c.Status != StatusPass || c.Checked != 64 || c.Ticks != 128 {
		t.Fatalf("clean: %+v", c)
	}
	if first.Passed {
		t.Fatal("campaign with failing jobs reported as passed")
	}
}

// TestMergeUncappedCounterexamples: a negative cap keeps every distinct
// tuple across shards.
func TestMergeUncappedCounterexamples(t *testing.T) {
	job := Job{
		Name: "uncapped",
		Target: &stubTarget{run: func(seed int64, n int) ShardResult {
			return ShardResult{
				Checked:  n,
				Findings: []Finding{{Index: 0, Input: fmt.Sprintf("{seed=%d}", seed), Got: "{g}", Want: "{w}"}},
			}
		}},
		Packets: 128,
	}
	rep, err := Run(context.Background(), []Job{job}, Options{
		Workers: 2, ShardSize: 16, MaxCounterexamples: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Jobs[0].Counterexamples); got != 8 {
		t.Fatalf("kept %d counterexamples, want 8 (one per shard)", got)
	}
}

// TestMergeCancellationSkippedJobs: a pre-cancelled context aborts every
// job deterministically — nothing is built, every planned shard is skipped
// (the row says how many there were), and the report renders
// byte-identically for every worker count.
func TestMergeCancellationSkippedJobs(t *testing.T) {
	jobs := []Job{
		{Name: "a", Target: &stubTarget{run: func(int64, int) ShardResult { return ShardResult{} }}, Packets: 10},
		{Name: "b", Target: &stubTarget{run: func(int64, int) ShardResult { return ShardResult{} }}, Packets: 10},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var want string
	for _, workers := range []int{1, 4} {
		rep, err := Run(ctx, jobs, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		for i := range rep.Jobs {
			if rep.Jobs[i].Status != StatusAborted || rep.Jobs[i].ShardsRun != 0 || rep.Jobs[i].Shards != 1 {
				t.Fatalf("job %s: %+v", rep.Jobs[i].Name, rep.Jobs[i])
			}
		}
		if rep.Passed || !rep.StoppedEarly {
			t.Fatalf("aborted campaign: passed=%v stoppedEarly=%v", rep.Passed, rep.StoppedEarly)
		}
		got := render(t, rep)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("aborted report differs across worker counts")
		}
	}
}
