package verify

import (
	"fmt"
	"testing"

	"druzhba/internal/sat"
	"druzhba/internal/spec"
	"druzhba/internal/verify/verifytest"
)

// gridCells is the benchmark's verify-grid workload (12 Table-1 programs ×
// bits {4,5} × 2 steps) with the number of gates symbolic execution builds
// for each cell. Since internal/bv hashes gates and the pipeline side only
// executes the compared cone, every one of these miters folds to the
// constant false while it is built: the solver is handed one variable (the
// constant) and no clause, and reports no conflict. vars, clauses and
// conflicts are serialized in every campaign.VerifyCell, so a change that
// stops a cell folding moves report bytes; the gate counts pin the work the
// builder does instead — a dead ALU that gets executed, or a fold that stops
// firing upstream of the miter, shows here first.
var gridCells = []struct {
	name  string
	bits  int
	gates int
}{
	{"blue-decrease", 4, 17},
	{"blue-decrease", 5, 24},
	{"blue-increase", 4, 4},
	{"blue-increase", 5, 6},
	{"sampling", 4, 0},
	{"sampling", 5, 0},
	{"marple-new-flow", 4, 0},
	{"marple-new-flow", 5, 0},
	{"marple-tcp-nmo", 4, 25},
	{"marple-tcp-nmo", 5, 32},
	{"snap-heavy-hitter", 4, 0},
	{"snap-heavy-hitter", 5, 0},
	{"stateful-firewall", 4, 2},
	{"stateful-firewall", 5, 2},
	{"flowlets", 4, 37},
	{"flowlets", 5, 48},
	{"learn-filter", 4, 287},
	{"learn-filter", 5, 480},
	{"rcp", 4, 54},
	{"rcp", 5, 68},
	{"conga", 4, 22},
	{"conga", 5, 28},
	{"spam-detection", 4, 17},
	{"spam-detection", 5, 23},
}

// TestGridTrajectoryPinned: every verify-grid cell is proved structurally —
// one solver variable, no clause, no search — from exactly the gates
// recorded above.
func TestGridTrajectoryPinned(t *testing.T) {
	if len(gridCells) != 2*len(spec.All()) {
		t.Fatalf("table has %d cells, the grid has %d", len(gridCells), 2*len(spec.All()))
	}
	folded := sat.Stats{Propagations: 1} // the constant's unit clause
	for _, c := range gridCells {
		bm, err := spec.Lookup(c.name)
		if err != nil {
			t.Fatal(err)
		}
		res := proveBenchmark(t, bm, Options{Bits: c.bits, Steps: 2})
		if !res.Equivalent {
			t.Errorf("%s/%d bits: %v, want a proof", c.name, c.bits, res)
		}
		if res.Vars != 1 || res.Clauses != 0 || res.SolverStats != folded || res.GatesEmitted != 0 || res.GatesBuilt != c.gates {
			t.Errorf("%s/%d bits: vars=%d clauses=%d gates=%d/%d %+v, pinned vars=1 clauses=0 gates=%d/0 %+v",
				c.name, c.bits, res.Vars, res.Clauses, res.GatesBuilt, res.GatesEmitted, res.SolverStats, c.gates, folded)
		}
	}
}

// TestRefutationTrajectoryPinned: a satisfiable instance (rcp with one
// stateful-ALU hole flipped) emits the same cone, runs the same search and
// decodes the same model — so the same counterexample trace, failing step
// and outputs — every time. Before gates were hashed this instance was 452
// variables and 119 conflicts.
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
	const want = "vars=66 clauses=189 {Decisions:11 Propagations:115 Conflicts:2 Restarts:1 Learned:2 Removed:0}" +
		" fail=1 trace=[1 0 0] [0 0 0] pipeline=[0 0 2] spec=[1 0 2]"
	if got != want {
		t.Fatalf("refutation moved:\n got %s\nwant %s", got, want)
	}
}

// TestCommutedMulNeedsSearch keeps the SAT path itself under test now that
// no Table-1 cell reaches it: a*b against b*a is equal but not structurally
// equal, so the miter survives hashing, the emitted cone is a real instance
// and the proof is a search, pinned like the grid's used to be. A budget
// below what the search needs is Unknown after exactly that many conflicts.
func TestCommutedMulNeedsSearch(t *testing.T) {
	hw, code, prog, fields := verifytest.CommutedMul()
	res, err := Equivalence(hw, code, prog, fields, Options{Bits: 5, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("multiplication commutes: %v", res)
	}
	got := fmt.Sprintf("vars=%d clauses=%d gates=%d/%d %+v", res.Vars, res.Clauses, res.GatesBuilt, res.GatesEmitted, res.SolverStats)
	const want = "vars=83 clauses=249 gates=94/72 {Decisions:563 Propagations:12952 Conflicts:454 Restarts:4 Learned:453 Removed:224}"
	if got != want {
		t.Fatalf("search moved:\n got %s\nwant %s", got, want)
	}

	res, err = Equivalence(hw, code, prog, fields, Options{Bits: 5, Steps: 1, MaxConflicts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unknown || res.Equivalent || res.SolverStats.Conflicts != 100 {
		t.Fatalf("a 100-conflict budget should be Unknown after 100 conflicts: %v %+v", res, res.SolverStats)
	}
}

// TestSlowestProofAllocations: the largest grid cell (learn-filter at 5
// bits) allocated 1 330 513 times when propagate rebuilt a watch list per
// propagation and about 20 000 while every gate was written to the solver
// as it was built. What is left is lowering the cone of nine live ALUs and
// the Domino program, and evaluating both symbolically: vectors, the node
// slice and the hash.
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
	if allocs > 4000 {
		t.Fatalf("learn-filter 5-bit proof allocates %.0f times, budget 4000", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
