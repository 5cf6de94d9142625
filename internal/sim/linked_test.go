package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// reportBytes renders everything a BatchReport says.
func reportBytes(rep *sim.BatchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s checked=%d ticks=%d err=%v\n", rep.SpecName, rep.Checked, rep.Ticks, rep.Err)
	for _, m := range rep.Mismatches {
		fmt.Fprintln(&b, m.String())
	}
	return b.String()
}

// liveMutants returns the benchmark's machine code with one pair of a live
// ALU — live for the compared containers, as core.MuxTable.Live finds them —
// changed: an unbounded immediate by -1 and +1, a select (operand mux or
// bounded hole) to its next value. TestVerifyConeByMutation enumerates the
// same pairs.
func liveMutants(t *testing.T, r *spec.Resolved) []*machinecode.Program {
	t.Helper()
	hw, err := r.Spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	read, err := hw.Read(r.Code)
	if err != nil {
		t.Fatal(err)
	}
	muxes := read.Muxes
	out := make([]bool, hw.PHVLen)
	for _, c := range r.Containers {
		out[c] = true
	}
	live := muxes.Live(out, nil)
	var mutants []*machinecode.Program
	for si := 0; si < hw.Depth; si++ {
		for _, alu := range []*aludsl.Program{hw.StatelessALU, hw.StatefulALU} {
			for slot := 0; alu != nil && slot < hw.Width; slot++ {
				stateful := alu.Kind == aludsl.Stateful
				latch := slot
				if stateful {
					latch += hw.Width
				}
				if !live[si][latch] {
					continue
				}
				pairs := []core.HoleSpec{}
				for op := 0; op < alu.NumOperands(); op++ {
					pairs = append(pairs, core.HoleSpec{Name: machinecode.OperandMuxName(si, stateful, slot, op), Domain: hw.PHVLen})
				}
				for _, h := range alu.Holes {
					pairs = append(pairs, core.HoleSpec{Name: machinecode.ALUHoleName(si, stateful, slot, h.Name), Domain: h.Domain})
				}
				for _, pair := range pairs {
					v, _ := r.Code.Get(pair.Name)
					next := []int64{v - 1, v + 1}
					if pair.Domain == 1 {
						continue
					} else if pair.Domain > 1 {
						next = []int64{(v + 1) % int64(pair.Domain)}
					}
					for _, nv := range next {
						m := r.Code.Clone()
						m.Set(pair.Name, nv)
						mutants = append(mutants, m)
					}
				}
			}
		}
	}
	return mutants
}

// TestLinkedOracleMatchesReference pins the fused loop, with the Domino
// specification linked after the cone, to the reference on the programs
// campaigns run: every Table-1 program at scc, scc+inline and compiled, on
// three seeds, and on every live-pair mutant of its machine code (one seed
// each, the levels in turn), must return byte for byte the report of the tick
// loop at unoptimized on the same code, and leave its specification instance
// in the tick loop's instance's state.
func TestLinkedOracleMatchesReference(t *testing.T) {
	const packets = 300
	levels := []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled}
	var runs, diverging, mutantsTotal int
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		type trial struct {
			code   *machinecode.Program
			seed   int64
			levels []core.OptLevel
		}
		trials := []trial{{r.Code, 1, levels}, {r.Code, 2, levels}, {r.Code, 3, levels}}
		for i, m := range liveMutants(t, r) {
			trials = append(trials, trial{m, int64(10 + i), []core.OptLevel{levels[i%len(levels)]}})
			mutantsTotal++
		}
		opts := sim.FuzzOptions{Containers: r.Containers}
		fuzz := func(p *core.Pipeline, seed int64) (*sim.BatchReport, *domino.PHVSpec, *sim.Fuzzer) {
			sp := r.NewSpec().(*domino.PHVSpec)
			f := sim.NewFuzzer(p)
			rep, err := f.FuzzGen(sp, sim.NewTrafficGen(seed, p.PHVLen(), p.Bits(), bm.MaxInput), packets, opts, 0)
			if err != nil {
				t.Fatalf("%s: %v", bm.Name, err)
			}
			return rep, sp, f
		}
		for _, tr := range trials {
			ref, err := core.Build(r.Spec, tr.code, core.Unoptimized)
			if err != nil {
				t.Fatal(err)
			}
			wantRep, wantSpec, _ := fuzz(ref, tr.seed)
			if len(wantRep.Mismatches) > 0 {
				diverging++
			}
			want := reportBytes(wantRep)
			for _, level := range tr.levels {
				p, err := core.Build(r.Spec, tr.code, level)
				if err != nil {
					t.Fatalf("%s/%s: %v", bm.Name, level, err)
				}
				gotRep, gotSpec, f := fuzz(p, tr.seed)
				if !f.Linked() {
					t.Fatalf("%s/%s: the fused loop did not link the specification", bm.Name, level)
				}
				if got := reportBytes(gotRep); got != want {
					t.Fatalf("%s/%s seed %d: linked oracle\n%s\ntick loop at unoptimized\n%s", bm.Name, level, tr.seed, got, want)
				}
				for _, name := range r.Program.StateNames() {
					g, _ := gotSpec.State(name)
					w, _ := wantSpec.State(name)
					if g != w {
						t.Fatalf("%s/%s seed %d: state %s = %d after the linked oracle, %d after the tick loop", bm.Name, level, tr.seed, name, g, w)
					}
				}
				runs++
			}
		}
	}
	if mutantsTotal < 100 || diverging == 0 {
		t.Fatalf("%d mutants, %d of them diverging: too few to mean anything", mutantsTotal, diverging)
	}
	t.Logf("%d runs equal to the reference; %d of %d live-pair mutants diverge from the specification", runs, diverging, mutantsTotal)
}

// TestLinkedStateEndsWhereOptimizeLeavesIt pins StoreState to flat.Optimize's
// end map: on every Table-1 pipeline at compiled, a specification whose state
// variable last is written first and never read ends each packet as a copy
// of the packet's field, so the optimized oracle drops the copy and last ends
// in the field's input register. The state handed back after the fused loop
// must still be the tick loop's at unoptimized, last and the sum beside it.
func TestLinkedStateEndsWhereOptimizeLeavesIt(t *testing.T) {
	prog, err := domino.Parse(`
state last = 0;
state sum = 0;
transaction {
    last = pkt.f;
    sum = sum + pkt.f;
    pkt.f = sum;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		var states [2][]int64
		for i, level := range []core.OptLevel{core.Unoptimized, core.Compiled} {
			p, err := core.Build(r.Spec, r.Code, level)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := domino.NewPHVSpec(prog, domino.FieldMap{"f": 0}, p.Bits())
			if err != nil {
				t.Fatal(err)
			}
			f := sim.NewFuzzer(p)
			if _, err := f.FuzzGen(sp, sim.NewTrafficGen(1, p.PHVLen(), p.Bits(), bm.MaxInput), 200, sim.FuzzOptions{}, 0); err != nil {
				t.Fatalf("%s/%s: %v", bm.Name, level, err)
			}
			if f.Linked() != (level == core.Compiled) {
				t.Fatalf("%s/%s: linked %v", bm.Name, level, f.Linked())
			}
			for _, name := range []string{"last", "sum"} {
				v, _ := sp.State(name)
				states[i] = append(states[i], v)
			}
		}
		if states[0][0] == 0 || states[0][0] != states[1][0] || states[0][1] != states[1][1] {
			t.Errorf("%s: state last, sum = %v after the fused loop, %v after the tick loop", bm.Name, states[1], states[0])
		}
	}
}
