package domino

import (
	"slices"

	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// The reference interpreter, for the external differential tests that need
// package spec's Table-1 programs (which import this package).

type RefMachine = refMachine

func NewRefMachine(p *Program, w phv.Width) *RefMachine { return newRefMachine(p, w) }

// Regs returns where each register of the transaction lives in the linked
// frame.
func (l *Linked) Regs() []int { return l.regs }

// Lowered returns the transaction as its instances run it, on a frame of its
// own: the program, the container each bound field's register holds, and the
// registers a packet starts with at zero (the flags and the error register).
// TestLinkIsComposition holds Link to running the cone and then this.
func (b *Binding) Lowered() (prog *flat.Program, fields map[int]int, clear []int) {
	c := b.code
	fields = make(map[int]int, len(c.bound))
	for _, f := range c.bound {
		fields[f.reg] = f.container
	}
	return c.prog, fields, append(slices.Clip(c.flags), c.errReg)
}
