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
	out := make([][]*aludsl.Program, p.spec.Depth)
	for si := range out {
		if p.read != nil {
			for _, a := range p.read.ALUs[si] {
				out[si] = append(out[si], a.Prog)
			}
			continue
		}
		for _, a := range p.stages[si].alus {
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
	for _, row := range f.state {
		for _, r := range row {
			for i := 0; r >= 0 && i < p.spec.StatefulALU.NumState(); i++ {
				regs[uint32(r+i)] = true
			}
		}
	}
	return regs
}
