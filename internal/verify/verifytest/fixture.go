// Package verifytest holds the proof fixtures the verifier's tests and
// benchmarks share across packages. CommutedMul is a pair that is equal but
// not structurally equal, so deciding it takes SAT search; the Table-1
// fixtures no longer do — their miters fold to a constant while they are
// built — which leaves budget exhaustion, the search counters and the solver
// path itself to this one. StateOnly is the question that compares nothing,
// CanFail the one whose specification fails.
package verifytest

import (
	"fmt"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
)

// CommutedMul returns a 1×1 stateless_full pipeline whose machine code
// computes pkt.a * pkt.b into container 0 and the specification
// pkt.a = pkt.b * pkt.a. Shift-and-add multiplication sums the same partial
// products in another order when its operands trade places, so the two
// circuits share their AND gates and none of their adders: the miter
// survives hashing and the solver has to prove multiplication commutative
// (conflicts > 0 from 3 bits up, about two thousand at 6).
func CommutedMul() (core.Spec, *machinecode.Program, *domino.Program, domino.FieldMap) {
	s := core.Spec{Depth: 1, Width: 1, PHVLen: 2, StatelessALU: atoms.MustLoad("stateless_full")}
	code := zeroCode(s)
	code.Set(machinecode.OperandMuxName(0, false, 0, 1), 1)       // operand 1 = container 1
	code.Set(machinecode.ALUHoleName(0, false, 0, "alu_op_0"), 2) // ALUOpMul
	code.Set(machinecode.ALUHoleName(0, false, 0, "mux3_1"), 1)   // second ALU input = pkt_1
	code.Set(machinecode.OutputMuxName(0, 0), 1)                  // container 0 = stateless ALU 0
	prog := mustParse("commuted-mul", `transaction { pkt.a = pkt.b * pkt.a; }`)
	return s, code, prog, domino.FieldMap{"a": 0, "b": 1}
}

// StateOnly returns the vacuous-proof reproduction: a Domino program that
// writes only state, over a 1×1 raw grid with all-zero machine code
// (containers pass through; Mux2 = 0 selects pkt_0, so the stateful ALU does
// compute state_0 += pkt.a). No container is compared, so without a state
// binding the miter has no term and any machine code would be proved.
func StateOnly() (core.Spec, *machinecode.Program, *domino.Program, domino.FieldMap) {
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full"), StatefulALU: atoms.MustLoad("raw")}
	prog := mustParse("state-only", "state count = 0;\ntransaction { count = count + pkt.a; }")
	return s, zeroCode(s), prog, domino.FieldMap{"a": 0}
}

// CanFail returns a specification that fails on every input the question
// admits: it reads a local assigned only when pkt.a is 1, and MaxInput (the
// fourth result) holds pkt.a at 0. The pipeline is a 1×1 stateless_full grid
// with all-zero machine code, which passes pkt.b through; the compared
// container is pkt.b's, which the specification would set to x.
func CanFail() (core.Spec, *machinecode.Program, *domino.Program, domino.FieldMap, []int, int64) {
	s := core.Spec{Depth: 1, Width: 1, PHVLen: 2, StatelessALU: atoms.MustLoad("stateless_full")}
	prog := mustParse("can-fail", `transaction { if (pkt.a == 1) { int x = 0; } pkt.b = x; }`)
	return s, zeroCode(s), prog, domino.FieldMap{"a": 0, "b": 1}, []int{1}, 1
}

// zeroCode returns machine code with every pair the spec requires set to 0.
func zeroCode(s core.Spec) *machinecode.Program {
	req, err := s.RequiredPairs()
	if err != nil {
		panic(fmt.Sprintf("verifytest: %v", err))
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	return code
}

func mustParse(name, src string) *domino.Program {
	prog, err := domino.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("verifytest: %v", err))
	}
	prog.Name = name
	return prog
}
