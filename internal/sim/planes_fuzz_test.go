package sim

import (
	"errors"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/phv"
)

// linkedSpecs are FuzzStep's seed programs (internal/domino): a state machine,
// a local read that traps unless the packet took the branch assigning it, a
// local shadowing a state, division by zero, short-circuits over a local whose
// check must see this packet's flags only, and a trap after state and field
// writes that must survive it; and two for flat.Optimize: learn-filter's
// shape — a value computed twice beside another of the same operand, a state
// the packet overwrites and nothing reads, and a field that ends as a copy
// of a state — and a state write that only a trap before the next one sees.
var linkedSpecs = []string{
	"state count = 0;\ntransaction { if (count == 9) { count = 0; pkt.sample = 1; } else { count = count + 1; pkt.sample = 0; } }",
	"transaction { if (pkt.a == 1) { int t = 5; } pkt.b = t; }",
	"state x = 7;\ntransaction { int x = pkt.a; pkt.b = x; x = x + 1; }",
	"state s = 1;\ntransaction { s = s + pkt.a / pkt.b; pkt.a = pkt.a % pkt.b; }",
	"transaction { if (pkt.a == 0) { int t = 1; } if (pkt.a != 0 || t == 1) { pkt.b = 1; } if (pkt.a == 0 && t == 1) { pkt.b = 2; } }",
	"transaction { if (pkt.a == 0) { int t = 1; } pkt.b = (pkt.a == 0 || t) + (pkt.a != 0 && t); }",
	"state s = 0;\ntransaction { s = s + 1; pkt.a = s; if (s == 2) { int t = 0; } pkt.b = t + -s; }",
	"state h1 = 0;\nstate h2 = 0;\nstate last = 0;\ntransaction { h1 = h1 + (pkt.a * 3) % 101; h2 = h2 + (pkt.a * 5) % 103; last = pkt.a; h1 = h1 + (pkt.a * 3) % 101; pkt.b = h1; }",
	"state s = 0;\ntransaction { s = pkt.a; if (pkt.a == 1) { int t = 1; } s = t; }",
}

// linkedBinding binds linkedSpecs[k]'s fields to containers 0, 1, … at the
// pipeline's width — the specification the fused loop links after the cone —
// and returns it with the program's state names.
func linkedBinding(t *testing.T, k int, p *core.Pipeline) (*domino.Binding, []string) {
	t.Helper()
	prog, err := domino.Parse(linkedSpecs[k%len(linkedSpecs)])
	if err != nil {
		t.Fatal(err)
	}
	fields := domino.FieldMap{}
	for i, name := range prog.Fields() {
		fields[name] = i
	}
	b, err := domino.Bind(prog, fields, p.Bits())
	if err != nil {
		t.Fatal(err)
	}
	return b, prog.StateNames()
}

// FuzzPlanesVsTicks pins a fuzzer over a prechecked build to the tick loop
// over the interpreter on inputs nobody chose (the name predates the fused
// loop: the fast side was a loop over column planes): random machine code
// (seed) with one pair perturbed — an injected miscompile against the
// Unoptimized reference of the unperturbed code, optionally under a
// specification that is itself wrong — fuzzed traffic seed and mode,
// counterexample cap, compared containers, and a generator and a
// specification failure at fuzzed packet indices (past the run = never). The
// fast side runs the perturbed code built at a prechecked level; the
// reference runs the same perturbed code built at Unoptimized, over the whole
// grid through the AST interpreter, so it shares no lowering with the fast
// side. Without linked the specification is that reference pipeline, which
// the fast side runs on the tick loop over its stage programs. With linked it
// is a Domino binding instead, one of linkedSpecs picked by specFailAt, which
// the fast side links after its output cone and runs on the fused loop: its
// failures are its own traps, and its state after the run must equal the
// reference's instance's. The two must return the same harness error text or
// the same BatchReport: Checked, Ticks, Err text, and every mismatch by value
// and by rendering. The chunk byte, the planes loop's sweep width, is kept so
// the seeds and any saved corpus still decode; it now picks the packet count.
func FuzzPlanesVsTicks(f *testing.F) {
	const never = 0xffff
	f.Add(int64(45), uint8(2), uint8(8), uint8(0), false, false, false, uint16(14), uint16(never), uint16(never), false)
	f.Add(int64(45), uint8(0), uint8(7), uint8(3), true, false, true, uint16(16), uint16(never), uint16(never), false)
	f.Add(int64(43), uint8(1), uint8(1), uint8(1), false, true, false, uint16(13), uint16(never), uint16(90), false)
	f.Add(int64(43), uint8(2), uint8(64), uint8(0), true, true, false, uint16(13), uint16(77), uint16(never), false)
	f.Add(int64(7), uint8(2), uint8(200), uint8(2), false, true, true, uint16(0), uint16(0), uint16(never), false)
	f.Add(int64(900), uint8(1), uint8(5), uint8(0), false, false, false, uint16(21), uint16(149), uint16(149), false)
	f.Add(int64(901), uint8(0), uint8(16), uint8(1), true, true, false, uint16(3), uint16(60), uint16(12), false)
	// Found by this target: the cap is reached on packet 8 of a depth-3 grid,
	// which surfaces on tick 10 — after packet 10's admission, where the spec
	// fails; the failure wins on the tick loop and must win at chunk 1 too.
	f.Add(int64(89), uint8(12), uint8(0), uint8(9), true, true, false, uint16(35), uint16(never), uint16(10), false)
	f.Add(int64(89), uint8(12), uint8(0), uint8(9), true, true, false, uint16(35), uint16(10), uint16(never), false)
	// Every linked program, clean to the end, under a cap, a generator
	// failure, and (boundary traffic) traps at later packets.
	for k := range linkedSpecs {
		f.Add(int64(45+k), uint8(k), uint8(k), uint8(0), false, false, false, uint16(14), uint16(never), uint16(k), true)
		f.Add(int64(45+k), uint8(k), uint8(k), uint8(2), true, false, k%2 == 0, uint16(14), uint16(40), uint16(k), true)
		f.Add(int64(89+k), uint8(k), uint8(k), uint8(0), true, false, false, uint16(35), uint16(never), uint16(k), true)
	}
	f.Fuzz(func(t *testing.T, seed int64, level, chunk, maxMM uint8, boundary, wrongSpec, oneContainer bool, pair, genErrAt, specFailAt uint16, linked bool) {
		n := 150 - int(chunk)%8 // every packet count's tail lands differently against depth and cap
		levels := []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled}
		p, ref, _ := miscompiled(t, seed, int(pair), levels[int(level)%len(levels)])
		interpreted, _, _ := miscompiled(t, seed, int(pair), core.Unoptimized)
		ref.(*pipeSpec).wrong = wrongSpec
		newSpec := func() Spec { return specErrAt(ref, int(specFailAt)) }
		var states []string
		if linked {
			var binding *domino.Binding
			binding, states = linkedBinding(t, int(specFailAt), p)
			newSpec = func() Spec { return binding.NewSpec() }
		}
		mode := TrafficUniform
		if boundary {
			mode = TrafficBoundary
		}
		var opts FuzzOptions
		if oneContainer {
			opts.Containers = []int{0}
		}
		boom := errors.New("traffic source failed")
		run := func(fz *Fuzzer, spec Spec) (*BatchReport, error) {
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
			return fz.Fuzz(spec, n, next, opts, int(maxMM))
		}
		wantSpec, gotSpec := newSpec(), newSpec()
		fused := NewFuzzer(p)
		ticks := NewFuzzer(interpreted)
		if ticks.onFused() {
			t.Fatal("an unoptimized pipeline was bound to the fused loop")
		}
		want, werr := run(ticks, wantSpec)
		got, gerr := run(fused, gotSpec)
		if fused.Linked() != linked {
			t.Fatalf("linked %v: the fuzzer ran the fused loop %v", linked, fused.Linked())
		}
		for _, name := range states {
			g, _ := gotSpec.(*domino.PHVSpec).State(name)
			w, _ := wantSpec.(*domino.PHVSpec).State(name)
			if g != w {
				t.Fatalf("state %s after the fused loop %d, after the tick loop %d", name, g, w)
			}
		}
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() || want != nil || got != nil {
				t.Fatalf("harness errors differ: fused (%v, %v), ticks (%v, %v)", got, gerr, want, werr)
			}
		} else {
			batchReportsEqual(t, "fused vs ticks", got, want)
		}
	})
}
