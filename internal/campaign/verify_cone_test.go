package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/spec"
)

// TestVerifyConeByMutation checks the verifier's cone against the machine
// code itself, for all twelve Table-1 programs at 5 bits × 2 steps. The
// liveness routine the verifier shares with core.Pipeline.Cone
// (core.MuxTable.Live, seeded with the compared containers) splits each
// grid into live and dead ALUs. Changing any pair of a dead ALU — an
// operand mux or a hole — must leave the cell's serialized bytes exactly
// where they were, vars and clauses included: a dead ALU executed after all
// would build gates, and gates built ahead of the live cone renumber it.
// Changing a live ALU's immediate by ±1 is a real question: it must come
// back proven or as a counterexample (which the verifier has replayed
// concretely before returning it), never as an error.
func TestVerifyConeByMutation(t *testing.T) {
	cellBytes := func(t *testing.T, bm *spec.Benchmark, r *spec.Resolved, code *machinecode.Program) ([]byte, VerifyCell) {
		t.Helper()
		target := &VerifyTarget{
			Benchmark: bm.Name, Spec: r.Spec, Code: code, Prog: r.Program, Fields: bm.Fields,
			Containers: r.Containers, MaxInput: bm.MaxInput, Bits: []int{5}, Steps: []int{2}, Seed: 1,
		}
		inst, err := target.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", bm.Name, err)
		}
		res := inst.(ContextRunner).RunShardContext(context.Background(), deriveSeed(1, 0), 1)
		if res.Err != nil {
			t.Fatalf("%s: %v", bm.Name, res.Err)
		}
		data, err := json.Marshal(res.Cells[0])
		if err != nil {
			t.Fatal(err)
		}
		return data, res.Cells[0]
	}
	var deadPairs, liveConsts, refuted int
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
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
		want, _ := cellBytes(t, bm, r, r.Code)

		for si := 0; si < hw.Depth; si++ {
			for _, alu := range []*aludsl.Program{hw.StatelessALU, hw.StatefulALU} {
				for slot := 0; alu != nil && slot < hw.Width; slot++ {
					stateful := alu.Kind == aludsl.Stateful
					latch := slot
					if stateful {
						latch += hw.Width
					}
					// Every pair the ALU owns, with its domain (0 = unbounded).
					var pairs []core.HoleSpec
					for op := 0; op < alu.NumOperands(); op++ {
						pairs = append(pairs, core.HoleSpec{Name: machinecode.OperandMuxName(si, stateful, slot, op), Domain: hw.PHVLen})
					}
					for _, h := range alu.Holes {
						pairs = append(pairs, core.HoleSpec{Name: machinecode.ALUHoleName(si, stateful, slot, h.Name), Domain: h.Domain})
					}
					for _, pair := range pairs {
						name, domain := pair.Name, pair.Domain
						v, _ := r.Code.Get(name)
						switch {
						case !live[si][latch]:
							if domain == 1 {
								continue // a one-value hole has no mutant
							}
							next := v + 1
							if domain > 0 {
								next %= int64(domain)
							}
							mutant := r.Code.Clone()
							mutant.Set(name, next)
							deadPairs++
							if got, _ := cellBytes(t, bm, r, mutant); string(got) != string(want) {
								t.Errorf("%s: dead pair %s %d→%d moved the cell:\n got %s\nwant %s", bm.Name, name, v, next, got, want)
							}
						case domain == 0 && strings.Contains(name, "const_"):
							for _, d := range []int64{-1, 1} {
								mutant := r.Code.Clone()
								mutant.Set(name, v+d)
								liveConsts++
								if _, cell := cellBytes(t, bm, r, mutant); cell.Verdict == VerdictCounterexample {
									refuted++
								} else if cell.Verdict != VerdictProven {
									t.Errorf("%s: live %s %d→%d: verdict %s", bm.Name, name, v, v+d, cell.Verdict)
								}
							}
						}
					}
				}
			}
		}
	}
	// 165 of Table 1's 198 ALUs are dead; a table that stops marking them
	// would make this test vacuous.
	if deadPairs < 1000 || liveConsts == 0 || refuted == 0 {
		t.Fatalf("checked %d dead pairs and %d live immediates (%d refuted): the mutation sets are too small to mean anything", deadPairs, liveConsts, refuted)
	}
	t.Logf("%d dead-pair mutants left their cell's bytes alone; %d live immediate mutants: %d refuted, %d proven", deadPairs, liveConsts, refuted, liveConsts-refuted)
}
