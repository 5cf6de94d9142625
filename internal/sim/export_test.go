package sim

import (
	"druzhba/internal/core"
	"druzhba/internal/domino"
)

// The fuzzer has two loops and no switch: NewFuzzer binds the fused loop to a
// prechecked pipeline and the tick loop to any other. The hooks below exist
// for the tests that pin fused ≡ ticks: they put the tick loop, the reference
// engine, on a prechecked pipeline too.

// tickFuzzer is NewFuzzer forced onto the tick loop, which runs the whole
// grid of any pipeline through core.ExecuteStage.
func tickFuzzer(p *core.Pipeline) *Fuzzer { return newTickFuzzer(p.Clone()) }

// onFused reports which loop the fuzzer was bound to.
func (f *Fuzzer) onFused() bool { return f.fused != nil }

// Linked reports whether the fuzzer's last run linked its specification after
// the cone, rather than admitting it into want registers.
func (f *Fuzzer) Linked() bool { return f.oracle != nil && f.oracle.link != nil }

// Dispatched runs n packets from gen through the oracle the fused loop links
// for spec, on its counting run (flat.Oracle.Count), and returns the
// instructions it dispatched.
func (f *Fuzzer) Dispatched(spec Spec, gen *TrafficGen, n int) int64 {
	var b *domino.Binding
	if ps, ok := spec.(*domino.PHVSpec); ok {
		b = ps.Binding()
	}
	dispatched, _ := f.useOracle(b).Count(gen, n)
	return dispatched
}
