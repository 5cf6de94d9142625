package spec

import (
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/sim"
)

// TestCompiledMatchesSCCInlining differentially tests the closure-compiled
// engine against the paper's most-optimized interpreted engine on every
// Table-1 benchmark: the same input trace must yield identical output
// traces (every container, not just the spec-defined ones) and identical
// final state snapshots.
func TestCompiledMatchesSCCInlining(t *testing.T) {
	const n = 512
	for _, bm := range All() {
		t.Run(bm.Name, func(t *testing.T) {
			inline, err := bm.Pipeline(core.SCCInlining)
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := bm.Pipeline(core.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			input := sim.NewTrafficGen(7, inline.PHVLen(), inline.Bits(), bm.MaxInput).Trace(n)
			resInline, err := sim.Run(inline, input)
			if err != nil {
				t.Fatal(err)
			}
			resCompiled, err := sim.Run(compiled, input)
			if err != nil {
				t.Fatal(err)
			}
			if d := resInline.Output.Diff(resCompiled.Output); d != "" {
				t.Errorf("output traces diverge: %s", d)
			}
			if !resInline.FinalState.Equal(resCompiled.FinalState) {
				t.Errorf("final states diverge:\n inline:   %s\n compiled: %s", resInline.FinalState, resCompiled.FinalState)
			}
		})
	}
}

// TestCompiledPassesFig5 runs the Fig. 5 fuzzing workflow for every
// benchmark at the Compiled level: the closure-compiled pipeline must match
// the high-level Domino specification, like the three paper levels do.
func TestCompiledPassesFig5(t *testing.T) {
	for _, bm := range All() {
		t.Run(bm.Name, func(t *testing.T) {
			rep, err := bm.Verify(core.Compiled, 3, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Passed() {
				t.Errorf("fuzz failed: %s", rep)
			}
		})
	}
}
