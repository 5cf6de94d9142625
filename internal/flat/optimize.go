package flat

import "slices"

// Optimize returns p with its code rewritten so that a run dispatches fewer
// instructions, keeping every register where it is: the frame, the names,
// the banks and the constants are p's. A register is private when the
// builder gave it no name, it is no constant and no bank cell, it is not in
// observed, and every path through p writes it before reading it (setsFirst).
// Every other register ends each Run of the result with the value it ends
// p's with, and the result stops at a Trap where p does, on every frame whose
// registers hold values of p's width, in [0, 2^w): what a phv.Value holds,
// and what Run writes. A private register's value before a run is never
// seen, and after it may differ. The result is checked like any program
// Build returns, so it can be Linked, Counted and run by Sym on a frame of
// its width.
//
// The rewrites are forward passes over the code, repeated until none
// applies; programs are loop-free and jump forward only, so one pass in
// program order meets every path into an instruction before it:
//
//   - a compare into a private register whose only read is a jeq or jne
//     against #0 later in its block becomes one compare-and-branch on the
//     compare's operands, when nothing between writes them;
//   - add x, y, #0, add x, #0, y and sub x, y, #0 become mov x, y, and
//     mov x, x goes;
//   - ne t, b, #0 becomes mov t, b when every write of b is a compare and
//     every path writes b before reading it;
//   - mov t, b into a private register goes, b taking t's place in t's only
//     read later in the block, when nothing between writes b or t;
//   - a jump that lands on a jmp, or on a compare-and-branch of the same
//     registers that its own outcome decides, goes where that one goes;
//   - a jump to the next instruction goes, and so do a write to a private
//     register that nothing reads and code after a jmp that no jump lands on;
//   - mod x, y, #2^k becomes and x, y, #2^k-1, where a register holds the
//     constant 2^k-1 already (y is not negative: widths stop below 64 bits).
func Optimize(p *Program, observed ...[]int) (*Program, error) {
	var o optimizer
	o.start(p, observed)
	for {
		o.survey()
		changed := o.simplify()
		changed = o.fuse() || changed
		changed = o.forward() || changed
		changed = o.thread() || changed
		o.survey()
		changed = o.dead() || changed
		if !changed {
			break
		}
		o.compact()
	}
	q := *p
	q.code = o.code
	return &q, q.check()
}

// nop marks an instruction a rewrite deleted until compact drops it.
const nop Op = 255

// Flags of a register.
const (
	private   uint8 = 1 << iota // see Optimize
	setsFirst                   // every path writes it before reading it or leaving p
	cmpOnly                     // every write of it is a compare: it holds 0 or 1
)

// optimizer is the state of one Optimize: the code being rewritten and what
// is known of each register and instruction.
type optimizer struct {
	p     *Program
	code  []Instr
	flags []uint8  // per register
	reads []uint8  // reads[r]: the instructions that read register r, counted up to 255
	at    []uint64 // at[pc]: the jumps that land on pc; its new index in compact
}

// start clones the code and lays out the scratch — a byte of flags and one of
// reads per register, and at, in which classify first keeps a register
// bitset per instruction — and classifies the registers.
func (o *optimizer) start(p *Program, observed [][]int) {
	words := max(1, (len(p.init)+63)/64)
	regs := make([]uint8, 2*len(p.init))
	o.p, o.code, o.flags, o.reads = p, slices.Clone(p.code), regs[:len(p.init)], regs[len(p.init):]
	o.at = make([]uint64, (len(p.code)+2)*words)
	o.classify(words, observed)
	o.at = o.at[:len(p.code)+1]
}

// classify sets the private and setsFirst flags, for every register in one
// pass in program order: set[pc] holds the registers written on every path
// into pc, and bad those some read or Trap found unwritten, words words of
// bits each, in at's memory.
func (o *optimizer) classify(words int, observed [][]int) {
	p, set := o.p, o.at
	bad := set[(len(p.code)+1)*words:]
	for i := words; i < (len(p.code)+1)*words; i++ {
		set[i] = ^uint64(0) // true where no path arrives yet
	}
	and := func(pc int, w []uint64) {
		for i, v := range w {
			set[pc*words+i] &= v
		}
	}
	for pc, in := range p.code {
		written := set[pc*words : (pc+1)*words]
		p.access(in, func(r int, write bool) {
			if !write && written[r/64]>>(r%64)&1 == 0 {
				bad[r/64] |= 1 << (r % 64)
			}
		})
		if in.Op == Trap { // a Trap leaves p, and writes only as it leaves
			for i, v := range written {
				bad[i] |= ^v
			}
		} else {
			p.access(in, func(r int, write bool) {
				if write {
					written[r/64] |= 1 << (r % 64)
				}
			})
		}
		if in.Op == Jmp || in.Op.branch() {
			and(int(in.A), written)
		}
		if in.Op != Jmp {
			and(pc+1, written)
		}
	}
	end := set[len(p.code)*words:]
	for r := range o.flags {
		if end[r/64]>>(r%64)&1 != 0 && bad[r/64]>>(r%64)&1 == 0 {
			o.flags[r] = setsFirst
			if !p.fixed[r] && !p.hasName(r) {
				o.flags[r] |= private
			}
		}
	}
	for _, bk := range p.banks { // a store writes one cell of many: never first
		for c := bk.first; c < bk.first+bk.cells; c++ {
			o.flags[c] = 0
		}
	}
	for _, regs := range observed {
		for _, r := range regs {
			o.flags[r] &^= private
		}
	}
}

// survey counts the reads of every register and the jumps onto every
// instruction, and finds the registers only compares write.
func (o *optimizer) survey() {
	clear(o.reads)
	clear(o.at)
	for r := range o.flags {
		o.flags[r] |= cmpOnly
	}
	for _, in := range o.code {
		if in.Op == nop {
			continue
		}
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			switch v := in.field(f[0]); f[1] {
			case 'r':
				if o.reads[v] < 255 {
					o.reads[v]++
				}
			case 'w':
				if in.Op < Eq || in.Op > Ge {
					o.flags[v] &^= cmpOnly
				}
			case 'j':
				o.at[o.live(v)]++ // a jump onto a deleted instruction lands on the next
			}
		}
	}
}

func (o *optimizer) is(r uint32, flags uint8) bool { return o.flags[r]&flags == flags }

// zero reports whether r is the constant 0.
func (o *optimizer) zero(r uint32) bool { return o.p.fixed[r] && o.p.init[r] == 0 }

// same reports whether registers x and y always hold one value: they are one
// register, or constants of one value (Link keeps each program's constants).
func (o *optimizer) same(x, y uint32) bool {
	p := o.p
	return x == y || p.fixed[x] && p.fixed[y] && p.init[x] == p.init[y]
}

// writes reports whether in writes x or y.
func (o *optimizer) writes(in Instr, x, y uint32) (w bool) {
	o.p.access(in, func(r int, write bool) { w = w || write && (r == int(x) || r == int(y)) })
	return w
}

// live returns the first instruction at or after pc that is still there.
func (o *optimizer) live(pc uint32) uint32 {
	for int(pc) < len(o.code) && o.code[pc].Op == nop {
		pc++
	}
	return pc
}

// simplify makes the rewrites of one instruction on its own: the identities,
// the boolean tests and the power-of-two mods.
func (o *optimizer) simplify() (changed bool) {
	for pc, in := range o.code {
		switch {
		case (in.Op == Add || in.Op == Sub) && o.zero(in.C):
			in = Instr{Op: Mov, A: in.A, B: in.B}
		case in.Op == Add && o.zero(in.B):
			in = Instr{Op: Mov, A: in.A, B: in.C}
		case in.Op == Mov && in.A == in.B:
			in.Op = nop
		case in.Op == Ne && o.zero(in.C) && o.is(in.B, setsFirst|cmpOnly):
			in = Instr{Op: Mov, A: in.A, B: in.B}
		case in.Op == Ne && o.zero(in.B) && o.is(in.C, setsFirst|cmpOnly):
			in = Instr{Op: Mov, A: in.A, B: in.C}
		case in.Op == Mod && o.p.fixed[in.C]:
			v := o.p.init[in.C]
			mask := o.constant(v - 1)
			if v <= 0 || v&(v-1) != 0 || mask < 0 {
				continue
			}
			in = Instr{Op: And, A: in.A, B: in.B, C: uint32(mask)}
		default:
			continue
		}
		o.flags[in.A] &^= cmpOnly
		o.code[pc], changed = in, true
	}
	return changed
}

// constant returns a register holding the constant v, -1 for none.
func (o *optimizer) constant(v int64) int {
	for r, c := range o.p.init {
		if c == v && o.p.fixed[r] {
			return r
		}
	}
	return -1
}

// fuse turns a compare into a private register and the jeq or jne against #0
// that is the register's only read into one compare-and-branch.
func (o *optimizer) fuse() (changed bool) {
	for pc, in := range o.code {
		if in.Op < Eq || in.Op > Ge || !o.is(in.A, private) || o.reads[in.A] != 1 {
			continue
		}
		for j := pc + 1; j < len(o.code) && o.at[j] == 0; j++ {
			br := o.code[j]
			if br.Op == nop {
				continue
			}
			if br.Op == Jeq || br.Op == Jne {
				if br.B == in.A && o.zero(br.C) || br.C == in.A && o.zero(br.B) {
					rel := rels[in.Op] // jne t, #0 jumps where the compare holds,
					if br.Op == Jeq {
						rel ^= relLT | relEQ | relGT // jeq where it does not
					}
					o.code[j] = Instr{Op: branchOn[rel], A: br.A, B: in.B, C: in.C}
					o.code[pc].Op, o.reads[in.A], changed = nop, 0, true
				}
				break
			}
			if br.Op == Jmp || br.Op.branch() || br.Op == Trap || o.writes(br, in.B, in.C) || o.writes(br, in.A, in.A) {
				break
			}
		}
	}
	return changed
}

// branchOn is the compare-and-branch that jumps on the outcomes rel.
var branchOn = [...]Op{
	relEQ: Jeq, relLT | relGT: Jne, relLT: Jlt, relGT: Jgt, relLT | relEQ: Jle, relEQ | relGT: Jge,
}

// forward folds a mov into a private register into the register's only
// read, later in the mov's block.
func (o *optimizer) forward() (changed bool) {
	for pc, in := range o.code {
		if in.Op != Mov || in.A == in.B || !o.is(in.A, private) || o.reads[in.A] != 1 {
			continue
		}
		for j := pc + 1; j < len(o.code) && o.at[j] == 0; j++ {
			use, read := o.code[j], false
			if use.Op == nop {
				continue
			}
			for f := ops[use.Op].fields; f != ""; f = f[2:] {
				if f[1] == 'r' && use.field(f[0]) == in.A {
					use, read = use.setField(f[0], in.B), true
				}
			}
			if read {
				o.code[j], o.code[pc].Op, o.reads[in.A], changed = use, nop, 0, true
				break
			}
			if use.Op == Jmp || use.Op.branch() || o.writes(use, in.A, in.B) {
				break
			}
		}
	}
	return changed
}

// thread points every jump past the jmps it lands on, and past the
// compare-and-branches of the same two registers that its own outcome
// decides.
func (o *optimizer) thread() (changed bool) {
	for pc, in := range o.code {
		if in.Op != Jmp && !in.Op.branch() {
			continue
		}
		target := in.A
	follow:
		for t := o.live(target); int(t) < len(o.code); t = o.live(target) {
			next := o.code[t]
			if next.Op == Jmp {
				target = next.A
				continue
			}
			if !in.Op.branch() || !next.Op.branch() {
				break
			}
			rel := rels[next.Op]
			switch {
			case o.same(next.B, in.B) && o.same(next.C, in.C):
			case o.same(next.B, in.C) && o.same(next.C, in.B): // y ? x is x ? y mirrored
				rel = rel&relEQ | (rel&relLT)<<2 | (rel&relGT)>>2
			default:
				break follow
			}
			switch taken := rels[in.Op]; {
			case taken&^rel == 0: // where in jumps, next does
				target = next.A
			case taken&rel == 0: // where in jumps, next does not
				target = t + 1
			default:
				break follow
			}
		}
		if o.live(target) != o.live(in.A) {
			o.code[pc].A, changed = target, true
		}
	}
	return changed
}

// dead deletes jumps to the next instruction, writes to private registers
// that nothing reads, and instructions after a jmp that no jump lands on.
func (o *optimizer) dead() (changed bool) {
	reached := true // whether the instruction before falls through
	for pc, in := range o.code {
		if in.Op == nop {
			continue
		}
		if !reached && o.at[pc] == 0 {
			o.code[pc].Op, changed = nop, true
			continue
		}
		reached = in.Op != Jmp
		switch {
		case in.Op == Jmp || in.Op.branch():
			if o.live(in.A) != o.live(uint32(pc+1)) {
				continue
			}
		case in.Op == Trap || in.Op == Store || in.Op == StoreMask:
			continue
		case !o.is(in.A, private) || o.reads[in.A] != 0:
			continue
		}
		o.code[pc].Op, changed = nop, true
	}
	return changed
}

// compact drops the deleted instructions and renumbers the jump targets.
func (o *optimizer) compact() {
	n := uint64(0)
	for pc, in := range o.code {
		o.at[pc] = n
		if in.Op != nop {
			n++
		}
	}
	o.at[len(o.code)] = n
	kept := o.code[:0]
	for _, in := range o.code {
		if in.Op == nop {
			continue
		}
		if in.Op == Jmp || in.Op.branch() {
			in.A = uint32(o.at[in.A])
		}
		kept = append(kept, in)
	}
	o.code = kept
}
