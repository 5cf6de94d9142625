package core

import (
	"druzhba/internal/aludsl"
	"druzhba/internal/flat"
)

// Hooks for the structural-mutant and build tests (mutants_test.go,
// build_test.go: an external test package because they need package spec's
// Table-1 programs, which import this package).

// ALUPrograms returns the program each ALU runs, indexed [stage][latch].
func (p *Pipeline) ALUPrograms() [][]*aludsl.Program {
	out := make([][]*aludsl.Program, len(p.stages))
	for si, st := range p.stages {
		for _, a := range st.alus {
			out[si] = append(out[si], a.prog)
		}
	}
	return out
}

// Mutated returns f around its program as rewritten by edit, or the error
// flat's checker has for the result.
func (f *Fused) Mutated(edit func(code []flat.Instr) []flat.Instr) (*Fused, error) {
	g := &Fused{width: f.width, phvLen: f.phvLen, in: f.in, out: f.out, state: f.state, live: f.live}
	var err error
	g.Program, err = f.Program.Mutate(edit)
	return g, err
}

// StateRegs returns the registers that hold stateful ALU state.
func (f *Fused) StateRegs(p *Pipeline) map[uint32]bool {
	regs := map[uint32]bool{}
	for si, st := range p.stages {
		for slot, a := range st.stateful {
			for i := range a.state {
				if r := f.state[si][slot]; r >= 0 {
					regs[uint32(r+i)] = true
				}
			}
		}
	}
	return regs
}
