package sim

import "druzhba/internal/core"

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
