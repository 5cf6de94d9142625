package campaign

import (
	"context"
	"encoding/json"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/spec"
)

// TestReportIdenticalAcrossKernels is the fused ≡ ticks contract at
// campaign level. Nothing here can choose a kernel — sim.NewFuzzer does,
// from the pipeline: the unoptimized level runs the tick loop, every other
// level the fused output cone (the loop-level sweeps live in internal/sim,
// next to the fork). So the same benchmarks, a failing job among them, are run at every
// level and every worker count, and each level's job rows — checked, ticks,
// status, every counterexample's packet index and rendering — must equal the
// unoptimized level's apart from the level's own name.
func TestReportIdenticalAcrossKernels(t *testing.T) {
	var bms []*spec.Benchmark
	for _, name := range []string{"sampling", "snap-heavy-hitter", "conga"} {
		bm, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		bms = append(bms, bm)
	}
	rows := func(level core.OptLevel, workers int) string {
		t.Helper()
		jobs, err := Matrix(bms, []core.OptLevel{level}, nil, []int64{1}, 1500)
		if err != nil {
			t.Fatal(err)
		}
		broken := brokenJob(t, "broken", 1500)
		broken.Target.(*PipelineTarget).Level = level
		rep, err := Run(context.Background(), append(jobs, broken), Options{
			Workers:            workers,
			ShardSize:          512,
			MaxCounterexamples: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rep.Jobs[len(rep.Jobs)-1].Counterexamples); n == 0 {
			t.Fatalf("%s: the broken job produced no counterexamples to compare", level)
		}
		for i := range rep.Jobs {
			rep.Jobs[i].Name, rep.Jobs[i].Engine = "", ""
		}
		out, err := json.MarshalIndent(rep.Jobs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}

	want := rows(core.Unoptimized, 1) // the tick loop, single worker, is the anchor
	for _, level := range core.AllLevels() {
		for _, workers := range []int{1, 4} {
			if got := rows(level, workers); got != want {
				t.Fatalf("job rows differ at level=%s workers=%d:\n--- want ---\n%s\n--- got ---\n%s", level, workers, want, got)
			}
		}
	}
}
