package sim

import (
	"errors"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/phv"
)

// FuzzPlanesVsTicks pins the fuzzer's two loops to each other on inputs
// nobody chose (the name predates the fused loop: the fast side was a loop
// over column planes): random machine code (seed) at a prechecked level with
// one pair perturbed — an injected miscompile against the Unoptimized
// reference of the unperturbed code, optionally under a specification that is
// itself wrong — fuzzed traffic seed and mode, counterexample cap, compared
// containers, and a generator and a specification failure at fuzzed packet
// indices (past the run = never). The fused loop over the output cone and the
// tick loop over the whole grid of the same pipeline must return the same
// harness error text or the same BatchReport: Checked, Ticks, Err text, and
// every mismatch by value and by rendering. The chunk byte, the planes loop's
// sweep width, is kept so the seeds and any saved corpus still decode; it now
// picks the packet count.
func FuzzPlanesVsTicks(f *testing.F) {
	const never = 0xffff
	f.Add(int64(45), uint8(2), uint8(8), uint8(0), false, false, false, uint16(14), uint16(never), uint16(never))
	f.Add(int64(45), uint8(0), uint8(7), uint8(3), true, false, true, uint16(16), uint16(never), uint16(never))
	f.Add(int64(43), uint8(1), uint8(1), uint8(1), false, true, false, uint16(13), uint16(never), uint16(90))
	f.Add(int64(43), uint8(2), uint8(64), uint8(0), true, true, false, uint16(13), uint16(77), uint16(never))
	f.Add(int64(7), uint8(2), uint8(200), uint8(2), false, true, true, uint16(0), uint16(0), uint16(never))
	f.Add(int64(900), uint8(1), uint8(5), uint8(0), false, false, false, uint16(21), uint16(149), uint16(149))
	f.Add(int64(901), uint8(0), uint8(16), uint8(1), true, true, false, uint16(3), uint16(60), uint16(12))
	// Found by this target: the cap is reached on packet 8 of a depth-3 grid,
	// which surfaces on tick 10 — after packet 10's admission, where the spec
	// fails; the failure wins on the tick loop and must win at chunk 1 too.
	f.Add(int64(89), uint8(12), uint8(0), uint8(9), true, true, false, uint16(35), uint16(never), uint16(10))
	f.Add(int64(89), uint8(12), uint8(0), uint8(9), true, true, false, uint16(35), uint16(10), uint16(never))
	f.Fuzz(func(t *testing.T, seed int64, level, chunk, maxMM uint8, boundary, wrongSpec, oneContainer bool, pair, genErrAt, specFailAt uint16) {
		n := 150 - int(chunk)%8 // every packet count's tail lands differently against depth and cap
		levels := []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled}
		p, ref, _ := miscompiled(t, seed, int(pair), levels[int(level)%len(levels)])
		ref.(*pipeSpec).wrong = wrongSpec
		mode := TrafficUniform
		if boundary {
			mode = TrafficBoundary
		}
		var opts FuzzOptions
		if oneContainer {
			opts.Containers = []int{0}
		}
		boom := errors.New("traffic source failed")
		run := func(fz *Fuzzer) (*BatchReport, error) {
			gen, err := NewTrafficGenMode(seed, p.PHVLen(), p.Bits(), 1<<16, mode)
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			next := func(dst []phv.Value) error {
				if calls == int(genErrAt) {
					return boom
				}
				calls++
				gen.Fill(dst)
				return nil
			}
			return fz.Fuzz(specErrAt(ref, int(specFailAt)), n, next, opts, int(maxMM))
		}
		want, werr := run(tickFuzzer(p))
		got, gerr := run(NewFuzzer(p))
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() || want != nil || got != nil {
				t.Fatalf("harness errors differ: fused (%v, %v), ticks (%v, %v)", got, gerr, want, werr)
			}
			return
		}
		batchReportsEqual(t, "fused vs ticks", got, want)
	})
}
