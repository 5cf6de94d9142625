package verify

import (
	"fmt"
	"testing"

	"druzhba/internal/sat"
	"druzhba/internal/spec"
)

// gridCells is what the solver did on each cell of the benchmark's
// verify-grid workload (12 Table-1 programs × bits {4,5} × 2 steps) before
// internal/sat moved to its arena layout. vars, clauses and conflicts are
// serialized in every campaign.VerifyCell, so a layout change that moves
// any of these numbers moves report bytes; a change that means to (a new
// encoding, a new heuristic) regenerates the table.
var gridCells = []struct {
	name          string
	bits          int
	vars, clauses int
	stats         sat.Stats
}{
	{"blue-decrease", 4, 179, 554, sat.Stats{Decisions: 70, Propagations: 3710, Conflicts: 59, Restarts: 1, Learned: 58}},
	{"blue-decrease", 5, 236, 735, sat.Stats{Decisions: 149, Propagations: 6856, Conflicts: 122, Restarts: 2, Learned: 121}},
	{"blue-increase", 4, 640, 2152, sat.Stats{Decisions: 17, Propagations: 373, Conflicts: 16, Restarts: 1, Learned: 15}},
	{"blue-increase", 5, 823, 2766, sat.Stats{Decisions: 17, Propagations: 666, Conflicts: 16, Restarts: 1, Learned: 15}},
	{"sampling", 4, 9, 0, sat.Stats{Propagations: 1}},
	{"sampling", 5, 11, 0, sat.Stats{Propagations: 1}},
	{"marple-new-flow", 4, 122, 360, sat.Stats{Propagations: 1}},
	{"marple-new-flow", 5, 156, 462, sat.Stats{Propagations: 1}},
	{"marple-tcp-nmo", 4, 244, 780, sat.Stats{Decisions: 63, Propagations: 3754, Conflicts: 56, Restarts: 1, Learned: 55}},
	{"marple-tcp-nmo", 5, 312, 998, sat.Stats{Decisions: 124, Propagations: 7628, Conflicts: 86, Restarts: 1, Learned: 85}},
	{"snap-heavy-hitter", 4, 9, 0, sat.Stats{Propagations: 1}},
	{"snap-heavy-hitter", 5, 11, 0, sat.Stats{Propagations: 1}},
	{"stateful-firewall", 4, 849, 2735, sat.Stats{Decisions: 476, Propagations: 12684, Conflicts: 51, Restarts: 1, Learned: 50}},
	{"stateful-firewall", 5, 1167, 3775, sat.Stats{Decisions: 204, Propagations: 17325, Conflicts: 58, Restarts: 1, Learned: 57}},
	{"flowlets", 4, 753, 2435, sat.Stats{Decisions: 83, Propagations: 17871, Conflicts: 79, Restarts: 1, Learned: 78}},
	{"flowlets", 5, 965, 3123, sat.Stats{Decisions: 186, Propagations: 48861, Conflicts: 146, Restarts: 2, Learned: 145}},
	{"learn-filter", 4, 914, 2977, sat.Stats{Decisions: 1047, Propagations: 199441, Conflicts: 730, Restarts: 6, Learned: 729}},
	{"learn-filter", 5, 1410, 4633, sat.Stats{Decisions: 3773, Propagations: 1068544, Conflicts: 2401, Restarts: 15, Learned: 2400}},
	{"rcp", 4, 374, 1188, sat.Stats{Decisions: 243, Propagations: 5454, Conflicts: 110, Restarts: 2, Learned: 109}},
	{"rcp", 5, 474, 1507, sat.Stats{Decisions: 509, Propagations: 13541, Conflicts: 206, Restarts: 3, Learned: 205}},
	{"conga", 4, 436, 1373, sat.Stats{Decisions: 121, Propagations: 5388, Conflicts: 46, Restarts: 1, Learned: 45}},
	{"conga", 5, 560, 1766, sat.Stats{Decisions: 248, Propagations: 10441, Conflicts: 67, Restarts: 1, Learned: 66}},
	{"spam-detection", 4, 88, 272, sat.Stats{Decisions: 1, Propagations: 6, Conflicts: 2, Restarts: 1, Learned: 1}},
	{"spam-detection", 5, 114, 354, sat.Stats{Decisions: 1, Propagations: 11, Conflicts: 2, Restarts: 1, Learned: 1}},
}

// TestGridTrajectoryPinned: every verify-grid cell proves with exactly the
// instance size and search effort recorded above.
func TestGridTrajectoryPinned(t *testing.T) {
	if len(gridCells) != 2*len(spec.All()) {
		t.Fatalf("table has %d cells, the grid has %d", len(gridCells), 2*len(spec.All()))
	}
	for _, c := range gridCells {
		bm, err := spec.Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		res := proveBenchmark(t, bm, Options{Bits: c.bits, Steps: 2})
		if !res.Equivalent {
			t.Errorf("%s/%d bits: %v, want a proof", c.name, c.bits, res)
		}
		if res.Vars != c.vars || res.Clauses != c.clauses || res.SolverStats != c.stats {
			t.Errorf("%s/%d bits: vars=%d clauses=%d %+v, pinned vars=%d clauses=%d %+v",
				c.name, c.bits, res.Vars, res.Clauses, res.SolverStats, c.vars, c.clauses, c.stats)
		}
	}
}

// TestRefutationTrajectoryPinned: a satisfiable instance with real search
// behind it (rcp with one stateful-ALU hole flipped: 119 conflicts, two
// restarts) decodes the same model, so the same counterexample trace,
// failing step and outputs, as before the layout change.
func TestRefutationTrajectoryPinned(t *testing.T) {
	bm, err := spec.Lookup("rcp")
	if err != nil {
		t.Fatal(err)
	}
	hw, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.DominoProgram()
	if err != nil {
		t.Fatal(err)
	}
	code.Set("pipeline_stage_1_stateful_alu_0_opt_1", 1)
	res, err := Equivalence(hw, code, prog, bm.Fields, Options{Bits: 5, Steps: 2, MaxInput: bm.MaxInput})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent || res.Unknown {
		t.Fatalf("perturbed rcp should be refuted: %v", res)
	}
	got := fmt.Sprintf("vars=%d clauses=%d %+v fail=%d trace=%v %v pipeline=%v spec=%v",
		res.Vars, res.Clauses, res.SolverStats, res.FailStep,
		res.Counterexample.At(0), res.Counterexample.At(1), res.PipelineOut, res.SpecOut)
	const want = "vars=452 clauses=1432 {Decisions:340 Propagations:6470 Conflicts:119 Restarts:2 Learned:119 Removed:0}" +
		" fail=1 trace=[6 29 0] [7 11 0] pipeline=[7 8 2] spec=[13 8 2]"
	if got != want {
		t.Fatalf("refutation moved:\n got %s\nwant %s", got, want)
	}
}

// TestSlowestProofAllocations: the slowest grid cell (learn-filter at 5
// bits, a million propagations) allocated 1 330 513 times when propagate
// rebuilt a watch list per propagation. What is left is instance
// construction, which is the next change's business; the search itself
// must stay out of the allocator.
func TestSlowestProofAllocations(t *testing.T) {
	bm, err := spec.Lookup("learn-filter")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if res := proveBenchmark(t, bm, Options{Bits: 5, Steps: 2}); !res.Equivalent {
			t.Fatalf("learn-filter should prove: %v", res)
		}
	})
	if allocs > 25000 {
		t.Fatalf("learn-filter 5-bit proof allocates %.0f times, budget 25000", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
