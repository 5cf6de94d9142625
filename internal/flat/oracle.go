package flat

import (
	"slices"

	"druzhba/internal/phv"
)

// Pair is one comparison of an oracle: frame[Got] == frame[Want].
type Pair struct{ Got, Want int }

// Oracle is a linked program set up as the Fig. 5 comparison: the system
// under test and, linked after it, its specification, one program on one
// frame. Both machine models fuzz one: package sim's pipeline cone with its
// specification after it, package drmt's ISA machine with the table machine
// after it. A packet fills the input registers, runs the program once and
// compares the pairs of registers in which the two sides leave their
// results. An Oracle is immutable and safe for concurrent use; every runner
// owns a frame (Program.NewFrame).
type Oracle struct {
	prog      *Program
	in, width int    // the input registers: in, in+1, … in+width-1
	pairs     []Pair // the pairs whose two registers differ
	clear     []int  // zeroed after each packet, when the program can trap
	trap      int    // where a Trap leaves its code, -1 for none
}

// NewOracle returns the oracle of prog, a program Link returned, whose packet
// is the width registers from in, whose two sides end in the registers of
// pairs, and whose Trap leaves its code in register trap (-1: prog cannot
// trap). clear are the registers a packet starts with at zero, which the
// specification's Traps read, zeroed after every packet; they go unless prog
// can trap. The oracle keeps pairs, less those whose two registers are one,
// where the two sides cannot differ.
func NewOracle(prog *Program, in, width int, pairs []Pair, clear []int, trap int) *Oracle {
	if trap < 0 {
		clear = nil
	}
	return &Oracle{prog: prog, in: in, width: width, pairs: slices.DeleteFunc(pairs, Pair.same), clear: clear, trap: trap}
}

// same reports whether the pair's two registers are one.
func (p Pair) same() bool { return p.Got == p.Want }

// Program returns the linked program.
func (o *Oracle) Program() *Program { return o.prog }

// Inputs returns the input registers, first to first+width-1: where a
// packet goes.
func (o *Oracle) Inputs() (first, width int) { return o.in, o.width }

// inputs returns the input registers of frame.
func (o *Oracle) inputs(frame []int64) []int64 { return frame[o.in : o.in+o.width : o.in+o.width] }

// Pairs returns the pairs the oracle compares; the caller must not write
// them.
func (o *Oracle) Pairs() []Pair { return o.pairs }

// Trap returns the register a Trap leaves its code in, -1 for none.
func (o *Oracle) Trap() int { return o.trap }

// Fuzz is the packet loop: for packets from, from+1, … n-1 it fills the input
// registers of frame from gen, runs the program once, reads the trap register
// and zeroes the registers a packet starts with at zero, and compares pairs,
// the oracle's or a subset of them. It returns at the first packet that traps
// or diverges, with its index and the trap's code; at = n when every packet
// agreed. The caller records the packet and resumes at at+1.
//
//dvet:hotpath allocs=0
func (o *Oracle) Fuzz(frame []int64, gen *phv.TrafficGen, pairs []Pair, from, n int) (at int, trap int64) {
	in, prog, reg, clear := o.inputs(frame), o.prog, o.trap, o.clear
	for i := from; i < n; i++ {
		gen.Fill(in)
		prog.Run(frame)
		if code := trapped(frame, reg, clear); code != 0 {
			return i, code
		}
		if Diverge(frame, pairs) {
			return i, 0
		}
	}
	return n, 0
}

// trapped returns the code a Trap left in register trap of the frame after
// Run, 0 for none (trap < 0), and zeroes the registers in clear, which the
// next packet starts with at zero.
func trapped(frame []int64, trap int, clear []int) int64 {
	if trap < 0 {
		return 0
	}
	code := frame[trap]
	for _, r := range clear {
		frame[r] = 0
	}
	return code
}

// Diverge reports whether the two registers of any pair hold different
// values: the compare of the packet loop, for a caller that fills the
// specification's side itself.
func Diverge(frame []int64, pairs []Pair) bool {
	for _, p := range pairs {
		if frame[p.Got] != frame[p.Want] {
			return true
		}
	}
	return false
}

// Count runs n packets from gen through the counting clone of the program
// (Program.Counting) on a frame of its own in its initial condition, stopping
// after a packet that traps as Fuzz does, and returns how many instructions
// of the program they dispatched, both sides and the link included, and how
// many packets ran.
func (o *Oracle) Count(gen *phv.TrafficGen, n int) (dispatched int64, packets int) {
	counting, first := o.prog.Counting()
	frame := counting.NewFrame()
	in := o.inputs(frame)
	for packets < n {
		gen.Fill(in)
		counting.Run(frame)
		packets++
		if trapped(frame, o.trap, o.clear) != 0 {
			break
		}
	}
	for _, c := range frame[first : first+o.prog.Len()] {
		dispatched += c
	}
	return dispatched, packets
}
