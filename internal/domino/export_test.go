package domino

import "druzhba/internal/phv"

// The reference interpreter, for the external differential tests that need
// package spec's Table-1 programs (which import this package).

type RefMachine = refMachine

func NewRefMachine(p *Program, w phv.Width) *RefMachine { return newRefMachine(p, w) }

// Regs returns where each register of the transaction lives in the linked
// frame.
func (l *Linked) Regs() []int { return l.regs }
