package sim

import (
	"druzhba/internal/core"
	"druzhba/internal/domino"
)

// The fuzzer has two loops and no switch: a run links a Domino binding after
// the cone of a prechecked pipeline and runs everything else on the tick
// loop. The hooks below exist for the tests that pin fused ≡ ticks: they put
// a binding on the tick loop of a prechecked pipeline too, and report which
// loop a run took.

// tickFuzzer is NewFuzzer with no cone to link after, so every run takes the
// tick loop, which runs the whole grid of any pipeline through
// core.ExecuteStage.
func tickFuzzer(p *core.Pipeline) *Fuzzer { return &Fuzzer{pipe: p} }

// onFused reports whether the fuzzer has the fused loop: a cone to link a
// binding after.
func (f *Fuzzer) onFused() bool { return f.fused != nil }

// onTicks reports whether a run has laid out the tick loop.
func (f *Fuzzer) onTicks() bool { return f.stream != nil }

// Linked reports whether the last Domino binding the fuzzer ran was linked
// after its cone, so that the run took the fused loop.
func (f *Fuzzer) Linked() bool { return f.oracle != nil }

// Dispatched runs n packets from gen through the oracle the fused loop links
// for spec, a Domino binding that links after the cone, on its counting run
// (flat.Oracle.Count), and returns the instructions it dispatched.
func (f *Fuzzer) Dispatched(spec Spec, gen *TrafficGen, n int) int64 {
	dispatched, _ := f.useOracle(spec.(*domino.PHVSpec).Binding()).Count(gen, n)
	return dispatched
}
