package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"druzhba/internal/bv"
	"druzhba/internal/core"
	"druzhba/internal/flat"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// A mutant is one structural mistake a lowering could make, planted in a
// fused program's instructions.
type mutant struct {
	kind, id string // id: the kind, the operand where there are two, and the instruction index
	edit     func(code []flat.Instr) []flat.Instr
}

// relocate rewrites jump targets after instructions moved: at maps an old
// instruction index (or len(code), the exit) to its new one.
func relocate(code []flat.Instr, at func(old int) int) {
	for i, in := range code {
		if jumps(in.Op) {
			code[i].A = uint32(at(int(in.A)))
		}
	}
}

// jumps reports whether an instruction of op jumps: a Jmp, or a Jeq or Jne
// that compares two registers.
func jumps(op flat.Op) bool { return op == flat.Jmp || op == flat.Jeq || op == flat.Jne }

// mutantsOf enumerates the structural mutants of a program whose first and
// last input containers are registers in0 and in1, in the style of drmt's
// isaMutants:
//
//   - rename: an operand reads an input container's register instead of its
//     own — the mistake a wrong mux-to-register renaming makes;
//   - drop: an instruction is missing;
//   - jump: a conditional tests the opposite sense, or a jump lands one
//     instruction late (or, at the end, one early);
//   - stale: an instruction that reads a stateful ALU's state register after
//     the update is hoisted above the update — the output taken from the
//     pre-update state.
func mutantsOf(code []flat.Instr, in0, in1 uint32, state map[uint32]bool) []mutant {
	var out []mutant
	add := func(kind string, at int, edit func(code []flat.Instr) []flat.Instr) {
		id := fmt.Sprintf("%s@%d", kind, at)
		if at < 0 {
			id = fmt.Sprintf("%s.C@%d", kind, -at)
		}
		out = append(out, mutant{kind, id, edit})
	}
	next := func(r uint32) uint32 {
		if r == in0 {
			return in1
		}
		return in0
	}
	firstWrite := map[uint32]int{}
	for i, in := range code {
		i, in := i, in
		if in.Op != flat.Jmp && next(in.B) != in.B {
			add("rename", i, func(c []flat.Instr) []flat.Instr { c[i].B = next(c[i].B); return c })
		}
		if in.Op <= flat.Ge && next(in.C) != in.C {
			add("rename", -i, func(c []flat.Instr) []flat.Instr { c[i].C = next(c[i].C); return c })
		}
		add("drop", i, func(c []flat.Instr) []flat.Instr {
			c = append(c[:i], c[i+1:]...)
			relocate(c, func(old int) int {
				if old > i {
					return old - 1
				}
				return old
			})
			return c
		})
		if in.Op == flat.Jeq || in.Op == flat.Jne {
			add("jump", i, func(c []flat.Instr) []flat.Instr { c[i].Op = flat.Jeq + flat.Jne - c[i].Op; return c })
		}
		if jumps(in.Op) {
			add("jump", i, func(c []flat.Instr) []flat.Instr {
				if c[i].A++; int(c[i].A) > len(c) {
					c[i].A -= 2
				}
				return c
			})
			continue
		}
		for _, r := range []uint32{in.B, in.C} {
			w, written := firstWrite[r]
			if !state[r] || !written || (r == in.C && in.Op > flat.Ge) {
				continue
			}
			add("stale", i, func(c []flat.Instr) []flat.Instr {
				moved := c[i]
				copy(c[w+1:i+1], c[w:i])
				c[w] = moved
				relocate(c, func(old int) int {
					switch {
					case old == i:
						return w
					case old >= w && old < i:
						return old + 1
					}
					return old
				})
				return c
			})
			break
		}
		if _, seen := firstWrite[in.A]; !seen {
			firstWrite[in.A] = i
		}
	}
	return out
}

// traffic is the streams a mutant is run on, and what the reference makes
// of them: the output PHVs of every packet, and the state after each
// stream.
type traffic struct {
	packets, want [][]phv.Value
	state         []phv.StateSnapshot
}

// TestLoweringMutantsAreCaught plants every structural mutant in the
// compiled cone of every Table-1 program (every prechecked level builds that
// one program), and runs the differential the fused programs are pinned by:
// output PHVs and live stateful state against ExecuteStage at Unoptimized, on
// the program's own traffic. Every kind of mutant must be caught on at least
// one program. A mutant the traffic does not catch goes to flat.Sym, which
// decides it: from every frame — free inputs, free state and free
// temporaries — the mutant leaves every output register and every state
// register as the cone does, or not. The few it proves are the survivors,
// mutants that are not mistakes; the few it refutes are mistakes uniform
// traffic misses. Both must be the ones listed. Every one of them also runs
// on boundary traffic (0 and the extremes of the draw range): it must tell
// apart none that Sym proves, and the refuted ones it catches are listed too.
func TestLoweringMutantsAreCaught(t *testing.T) {
	const n, seeds = 1000, 4
	planted, caught := map[string]int{}, map[string]int{}
	var survivors, refuted, atBoundary []string
	for _, bm := range spec.All() {
		ref, err := bm.Pipeline(core.Unoptimized)
		if err != nil {
			t.Fatal(err)
		}
		// Several streams, each from reset state: a latch that the first
		// packet of one stream happens to set hides what it guards.
		streams := func(mode sim.TrafficMode) (tr traffic) {
			var gen *sim.TrafficGen
			tr.packets, tr.want = make([][]phv.Value, seeds*n), make([][]phv.Value, seeds*n)
			for i := range tr.packets {
				if i%n == 0 {
					ref.ResetState()
					gen, err = sim.NewTrafficGenMode(int64(1+i/n), ref.PHVLen(), ref.Bits(), bm.MaxInput, mode)
					if err != nil {
						t.Fatal(err)
					}
				}
				tr.packets[i] = make([]phv.Value, ref.PHVLen())
				gen.Fill(tr.packets[i])
				out, err := ref.Process(phv.FromValues(tr.packets[i]))
				if err != nil {
					t.Fatal(err)
				}
				tr.want[i] = out.Values()
				if i%n == n-1 {
					tr.state = append(tr.state, ref.StateSnapshot())
				}
			}
			return tr
		}
		uniform, boundary := streams(sim.TrafficUniform), streams(sim.TrafficBoundary)
		p, err := bm.Pipeline(core.Compiled)
		if err != nil {
			t.Fatal(err)
		}
		cone, name := p.Cone(), bm.Name
		agrees := func(f *core.Fused, tr traffic) bool {
			q, frame := p.Clone(), f.NewFrame()
			for i, vals := range tr.packets {
				if i%n == 0 {
					f.Reset(frame)
				}
				copy(f.Inputs(frame), vals)
				f.Run(frame)
				for c, r := range f.Out() {
					if frame[r] != tr.want[i][c] {
						return false
					}
				}
				if i%n < n-1 {
					continue
				}
				f.StoreState(frame, q)
				for si, stage := range q.StateSnapshot() {
					for slot, got := range stage {
						if f.Executes(si, true, slot) && !reflect.DeepEqual(got, tr.state[i/n][si][slot]) {
							return false
						}
					}
				}
			}
			return true
		}
		if !agrees(cone, uniform) || !agrees(cone, boundary) {
			t.Fatalf("%s: the unmutated cone disagrees with the reference", name)
		}
		var code []flat.Instr
		cone.Mutated(func(c []flat.Instr) []flat.Instr { code = c; return c }) //nolint:errcheck // reads the code
		// Registers are numbered in allocation order and the inputs come first.
		in0, in1 := uint32(0), uint32(p.PHVLen()-1)
		if cone.RegName(0) != "in0" {
			t.Fatalf("%s: register 0 is %q, not input container 0", name, cone.RegName(0))
		}
		state := cone.StateRegs(p)
		for _, m := range mutantsOf(code, in0, in1, state) {
			f, err := cone.Mutated(m.edit)
			if err != nil {
				continue // flat's checker refused it: caught before it could run
			}
			planted[m.kind]++
			switch {
			case !agrees(f, uniform):
				caught[m.kind]++
			case sameCone(cone, f, state, p.Bits().Bits()):
				survivors = append(survivors, name+" "+m.id)
				if !agrees(f, boundary) {
					t.Errorf("%s %s: Sym proves it the cone, yet boundary traffic tells them apart", name, m.id)
				}
			default:
				refuted = append(refuted, name+" "+m.id)
				caught[m.kind]++
				if !agrees(f, boundary) {
					atBoundary = append(atBoundary, name+" "+m.id)
				}
			}
		}
	}
	for _, kind := range []string{"rename", "drop", "jump", "stale"} {
		t.Logf("%s: %d of %d caught", kind, caught[kind], planted[kind])
		if caught[kind] == 0 {
			t.Errorf("no %s mutant was caught", kind)
		}
	}
	// The survivors are not mistakes: Sym proved each one. blue-increase and
	// conga keep their state on the else path as "s = s + 0" twice
	// (instructions 5 and 6, what the lowering makes of a mux that selects
	// "keep"): dropping either, jumping past them, falling into them or
	// hoisting one changes nothing. marple-new-flow and rcp test a compare
	// of two constants, "ge t, #0, #0", which always holds (the lowering folds
	// nothing): the jeq on it never jumps, so dropping it, jumping one late,
	// or making the compare read an input changes nothing.
	//
	// The refuted are mistakes no stream shows. snap-heavy-hitter and
	// spam-detection clear a flag (drop@6 drops the clear) on the path that
	// runs while the counter is below its threshold, and a stream sets the
	// flag only once the counter has passed it: the clear matters only after
	// the counter wraps, from a state Sym starts in and no stream reaches.
	// marple-new-flow rename@1 skips the count where input container 0 is 0,
	// a value uniform traffic does not draw and boundary traffic does.
	sort.Strings(survivors)
	sort.Strings(refuted)
	if want := []string{"marple-new-flow rename@1", "snap-heavy-hitter drop@6", "spam-detection drop@6"}; !reflect.DeepEqual(refuted, want) {
		t.Errorf("Sym refutes the survivors %q of the differential, want %q", refuted, want)
	}
	if want := []string{"marple-new-flow rename@1"}; !reflect.DeepEqual(atBoundary, want) {
		t.Errorf("boundary traffic catches %q of the refuted, want %q", atBoundary, want)
	}
	want := []string{
		"blue-increase drop@4", "blue-increase drop@5", "blue-increase drop@6",
		"blue-increase jump@1", "blue-increase jump@4", "blue-increase stale@6",
		"conga drop@4", "conga drop@5", "conga drop@6", "conga jump@1", "conga jump@4",
		"conga stale@6",
		"marple-new-flow drop@1", "marple-new-flow jump@1", "marple-new-flow rename@0",
		"rcp drop@5", "rcp jump@5", "rcp rename@4",
	}
	if !reflect.DeepEqual(survivors, want) {
		t.Errorf("survivors %q, want %q", survivors, want)
	}
}

// sameCone reports whether Sym proves that the mutant f leaves every output
// register and every state register as the cone does, from every frame of
// the given width: the inputs, the state and the temporaries free, the
// constants as they are.
func sameCone(cone, f *core.Fused, state map[uint32]bool, bits int) bool {
	b := bv.NewBuilder(sat.New())
	start := cone.SymFrame(b, bits, func(int) bv.Vec { return b.Var(bits) })
	want, _ := cone.Sym(b, slices.Clone(start))
	got, _ := f.Sym(b, slices.Clone(start))
	differ := b.False()
	for _, r := range cone.Out() {
		differ = b.Or(differ, b.Ne(got[r], want[r]))
	}
	for r := range state {
		differ = b.Or(differ, b.Ne(got[r], want[r]))
	}
	b.Assert(differ)
	return b.Solve() == sat.Unsat
}
