package sim

import (
	"testing"

	"druzhba/internal/core"
)

// The fuzzer has two loops and no switch: NewFuzzer binds the planes loop at
// planeChunk to a prechecked pipeline and the tick loop to any other. The
// hooks below exist for the tests that pin planes ≡ ticks; they put either
// loop on the same prechecked pipeline, and the planes loop at chunks other
// than planeChunk. Like NewFuzzer they execute a private output-cone clone.

// testChunks is the chunk sweep of the planes ≡ ticks tests: single packet,
// a partial-tail-inducing 7, the production chunk, 64, and one larger than
// the whole run.
func testChunks(run int) []int { return []int{1, 7, planeChunk, 64, run + 100} }

// planesFuzzer is NewFuzzer forced onto the planes loop at the given chunk.
func planesFuzzer(t testing.TB, p *core.Pipeline, chunk int) *Fuzzer {
	t.Helper()
	f, err := newPlanesFuzzer(p.OutputCone(), chunk)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// tickFuzzer is NewFuzzer forced onto the tick loop, the reference engine,
// which runs prechecked pipelines too.
func tickFuzzer(p *core.Pipeline) *Fuzzer { return newTickFuzzer(p.OutputCone()) }

// onPlanes reports which loop the fuzzer was bound to.
func (f *Fuzzer) onPlanes() bool { return f.batch != nil }
