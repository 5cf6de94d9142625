package flat

import (
	"math/bits"
	"slices"
)

// Optimize returns p with its code rewritten so that a run dispatches fewer
// instructions, keeping every register where it is: the frame, the names,
// the banks and the constants are p's, but for a constant register a fold
// appends where no register holds the value it needs. A register is private
// when it is no constant and no bank cell, it is not in observed, and every
// path through p writes it before reading it (setsFirst); its name does not
// matter. A private register's value before a run is never seen, and after
// it may differ. Every other register r ends each Run of the result with the
// value it ends p's with in register end[r], and the result stops at a Trap
// where p does, on every frame whose registers hold values of p's width, in
// [0, 2^w): what a phv.Value holds, and what Run writes. end[r] is r but for
// an observed register whose copy goes (the last rewrite below): a caller
// reads the register's end value at end[r]. The result is checked like any
// program Build returns, so it can be Linked, Counted and run by Sym on a
// frame of its width; run it on a frame of its own (NewFrame), which a fold
// may have made longer than p's.
//
// The rewrites are passes over the code, repeated until none applies;
// programs are loop-free and jump forward only, so one pass in program order
// meets every path into an instruction before it, and one against it every
// path out:
//
//   - value numbering, across the whole program: a read of a register that a
//     mov set reads the mov's source, and an instruction that computes what
//     a register holds becomes a mov from it, where on every path in neither
//     the register nor the operands were written since;
//   - a compare into a private register whose only read is a jeq or jne
//     against #0 later in its block becomes one compare-and-branch on the
//     compare's operands, when nothing between writes them;
//   - an operation on two constant registers becomes a mov from the
//     constant Run computes, at p's width; a compare-and-branch of two
//     constants, or of a register with itself, becomes a jmp or goes;
//   - add x, y, #0, add x, #0, y and sub x, y, #0 become mov x, y, and
//     mov x, x goes;
//   - ne t, b, #0 becomes mov t, b when every write of b is a compare and
//     every path writes b before reading it;
//   - a jump that lands on a jmp, or on a compare-and-branch of the same
//     registers that its own outcome decides, goes where that one goes;
//   - a compare-and-branch that a branch before it in its block decides, on
//     registers nothing between writes, goes, or becomes a jmp;
//   - a jump to the next instruction goes, and so does code after a jmp that
//     no jump lands on;
//   - a write goes when every path from it writes the register again before
//     reading it, or ends or traps first and the register is private;
//   - mod x, y, #2^k becomes and x, y, #2^k-1, where a register holds the
//     constant 2^k-1 already (y is not negative: widths stop below 64 bits);
//   - an observed register that every path writes before reading it, that
//     nothing reads, and that every end and Trap leaves a copy of one
//     register S, which nothing writes after the copy, ends in S: end[r] is
//     S, and the register's writes go.
func Optimize(p *Program, observed ...[]int) (q *Program, end []int, err error) {
	var o optimizer
	o.start(p, observed)
	for {
		o.survey()
		changed := o.number()
		o.survey()
		changed = o.simplify() || changed
		changed = o.fuse() || changed
		changed = o.decided() || changed
		changed = o.thread() || changed
		o.survey()
		changed = o.retarget() || changed
		changed = o.dead() || changed
		if !changed {
			break
		}
		o.compact()
	}
	o.p.code = o.code
	o.trim(len(p.init))
	return o.p, o.end, o.p.check()
}

// nop marks an instruction a rewrite deleted until compact drops it.
const nop Op = 255

// Flags of a register.
const (
	private   uint8 = 1 << iota // see Optimize
	setsFirst                   // every path writes it before reading it or leaving p
	cmpOnly                     // every write of it is a compare: it holds 0 or 1
	seen                        // the caller reads its end value: observed, or a retargeted copy's source
)

// optimizer is the state of one Optimize: the code being rewritten and what
// is known of each register and instruction.
type optimizer struct {
	p     *Program
	code  []Instr
	flags []uint8  // per register
	reads []uint8  // reads[r]: the instructions that read register r, counted up to 255
	end   []int    // end[r]: where register r's end value is (see Optimize)
	at    []uint64 // at[pc]: the jumps that land on pc; its new index in compact
	bits  []uint64 // a bitset, or a word, per instruction: the scratch of one pass
	words int      // the words of a register bitset
}

// start clones the code and lays out the scratch — a byte of flags and one of
// reads per register, at, and bits, sized for the largest of its uses — and
// classifies the registers. o.p is a copy of p whose frame a fold may extend
// (constant): its init and fixed are clipped, so the first register appended
// copies them.
func (o *optimizer) start(p *Program, observed [][]int) {
	n, q := len(p.code), *p
	q.init, q.fixed = slices.Clip(p.init), slices.Clip(p.fixed)
	o.words = max(1, (len(p.init)+63)/64)
	regs := make([]uint8, 2*len(p.init))
	scratch := make([]uint64, n+1+o.bitsLen(n))
	o.p, o.code, o.flags, o.reads = &q, slices.Clone(p.code), regs[:len(p.init):len(p.init)], regs[len(p.init):]
	o.at, o.bits = scratch[:n+1], scratch[n+1:]
	o.end = make([]int, len(p.init))
	for r := range o.end {
		o.end[r] = r
	}
	o.classify(observed)
}

// bitsLen is how many words bits holds for n instructions: a register bitset
// for every instruction and two more (classify), or an instruction bitset for
// every instruction and one more (number).
func (o *optimizer) bitsLen(n int) int {
	return max((n+2)*o.words, (n+1)*max(1, (n+63)/64))
}

// classify sets the private, setsFirst and seen flags, for every register in
// one pass in program order: set[pc] holds the registers written on every
// path into pc, and bad those some read or Trap found unwritten, a bitset of
// words words each, in bits.
func (o *optimizer) classify(observed [][]int) {
	p, words, set := o.p, o.words, o.bits
	bad := set[(len(p.code)+1)*words : (len(p.code)+2)*words]
	clear(set[:words])
	clear(bad)
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
		if end[r/64]>>(r%64)&1 != 0 && bad[r/64]>>(r%64)&1 == 0 && !p.fixed[r] {
			o.flags[r] = setsFirst | private
		}
	}
	for _, bk := range p.banks { // a store writes one cell of many: never first
		for c := bk.first; c < bk.first+bk.cells; c++ {
			o.flags[c] = 0
		}
	}
	for _, regs := range observed {
		for _, r := range regs {
			o.flags[r] = o.flags[r]&^private | seen
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

// writes reports whether in writes x or y where it does not trap: they are
// its destination, or cells of the bank it stores into.
func (o *optimizer) writes(in Instr, x, y uint32) bool {
	lo, hi := in.A, in.A+1
	switch {
	case in.Op == Store || in.Op == StoreMask:
		bk := o.p.banks[in.A]
		lo, hi = uint32(bk.first), uint32(bk.first+bk.cells)
	case in.Op == nop || in.Op == Trap || in.Op == Jmp || in.Op.branch():
		return false
	}
	return x-lo < hi-lo || y-lo < hi-lo
}

// live returns the first instruction at or after pc that is still there.
func (o *optimizer) live(pc uint32) uint32 {
	for int(pc) < len(o.code) && o.code[pc].Op == nop {
		pc++
	}
	return pc
}

// pure reports whether op's result is a function of its operand registers
// alone, which value numbering can find in a register that holds it.
func pure(op Op) bool { return op <= Mov || op == And }

// swapped[op] computes what op does with its two operands swapped; nop where
// no opcode does.
var swapped = [...]Op{
	Add: Add, Sub: nop, Mul: Mul, Div: nop, Mod: nop, Eq: Eq, Ne: Ne, Lt: Gt, Gt: Lt, Le: Ge, Ge: Le, Mov: nop, Jmp: nop, Trap: nop, And: And,
}

// number is value numbering over the whole program, in one pass in program
// order: avail[pc] holds, a bit per instruction, the pure instructions whose
// result is in their destination on every path into pc, no path having
// written the destination or an operand since. An operand a mov among them
// set becomes the mov's source, and an instruction that computes what one of
// them holds becomes a mov from its destination.
func (o *optimizer) number() (changed bool) {
	words := max(1, (len(o.code)+63)/64)
	avail := o.bits[:(len(o.code)+1)*words]
	clear(avail[:words])
	for i := words; i < len(avail); i++ {
		avail[i] = ^uint64(0) // true where no path arrives yet
	}
	and := func(pc uint32, w []uint64) {
		for i, v := range w {
			avail[int(pc)*words+i] &= v
		}
	}
	for pc, in := range o.code {
		set := avail[pc*words : (pc+1)*words]
		// The facts are instructions before pc: on no path yet, pc has none.
		set[pc/64] &= 1<<(pc%64) - 1
		clear(set[pc/64+1:])
		if in.Op != nop {
			in = o.valueOf(in, set)
			if in != o.code[pc] {
				o.code[pc], changed = in, true
			}
		}
		for i, w := range set {
			for ; w != 0; w &= w - 1 {
				f := i*64 + bits.TrailingZeros64(w)
				def := o.code[f]
				if o.writes(in, def.A, def.B) || def.Op != Mov && o.writes(in, def.C, def.C) {
					set[i] &^= 1 << (f % 64)
				}
			}
		}
		if pure(in.Op) && in.A != in.B && (in.Op == Mov || in.A != in.C) {
			set[pc/64] |= 1 << (pc % 64)
		}
		if in.Op == Jmp || in.Op.branch() {
			and(in.A, set)
		}
		if in.Op != Jmp {
			and(uint32(pc+1), set)
		}
	}
	return changed
}

// valueOf returns in with every register it reads that a mov in set copied
// read as the mov's source, and — when in is pure and a register of set
// holds what it computes — as a mov from that register, or nop where that
// register is its destination.
func (o *optimizer) valueOf(in Instr, set []uint64) Instr {
	for f := ops[in.Op].fields; f != ""; f = f[2:] {
		if f[1] != 'r' {
			continue
		}
		v := in.field(f[0])
		o.facts(set, func(def Instr) bool {
			if def.Op == Mov && def.A == v {
				in = in.setField(f[0], def.B)
				return true
			}
			return false
		})
	}
	if !pure(in.Op) || in.Op == Mov {
		return in
	}
	o.facts(set, func(def Instr) bool {
		if !(def.Op == in.Op && o.same(def.B, in.B) && o.same(def.C, in.C) ||
			def.Op == swapped[in.Op] && o.same(def.B, in.C) && o.same(def.C, in.B)) {
			return false
		}
		if in = (Instr{Op: Mov, A: in.A, B: def.A}); in.A == in.B {
			in.Op = nop
		}
		return true
	})
	return in
}

// facts calls each with the instructions of set until it returns true.
func (o *optimizer) facts(set []uint64, each func(def Instr) bool) {
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			if each(o.code[i*64+bits.TrailingZeros64(w)]) {
				return
			}
		}
	}
}

// simplify makes the rewrites of one instruction on its own: the identities,
// the boolean tests, the branches on one value and the power-of-two mods.
func (o *optimizer) simplify() (changed bool) {
	for pc, in := range o.code {
		switch {
		case (in.Op == Add || in.Op == Sub) && o.zero(in.C):
			in = Instr{Op: Mov, A: in.A, B: in.B}
		case in.Op == Add && o.zero(in.B):
			in = Instr{Op: Mov, A: in.A, B: in.C}
		case in.Op == Mov && in.A == in.B:
			in.Op = nop
		case in.Op.branch() && (in.B == in.C || o.p.fixed[in.B] && o.p.fixed[in.C]):
			in = Instr{Op: Jmp, A: in.A}
			if !o.jumps(o.code[pc]) {
				in.Op = nop
			}
			o.code[pc], changed = in, true
			continue
		case pure(in.Op) && in.Op != Mov && o.p.fixed[in.B] && o.p.fixed[in.C]:
			in = Instr{Op: Mov, A: in.A, B: o.constant(o.run(in))}
		case in.Op == Ne && o.zero(in.C) && o.is(in.B, setsFirst|cmpOnly):
			in = Instr{Op: Mov, A: in.A, B: in.B}
		case in.Op == Ne && o.zero(in.B) && o.is(in.C, setsFirst|cmpOnly):
			in = Instr{Op: Mov, A: in.A, B: in.C}
		case in.Op == Mod && o.p.fixed[in.C]:
			v := o.p.init[in.C]
			mask := o.held(v - 1)
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

// held returns a register holding the constant v, -1 for none.
func (o *optimizer) held(v int64) int {
	for r, c := range o.p.init {
		if c == v && o.p.fixed[r] {
			return r
		}
	}
	return -1
}

// constant returns a register holding the constant v, appending one to the
// frame, with the flags, reads and end of a constant, where none does.
func (o *optimizer) constant(v int64) uint32 {
	if r := o.held(v); r >= 0 {
		return uint32(r)
	}
	p, r := o.p, len(o.p.init)
	p.init, p.fixed = append(p.init, v), append(p.fixed, true)
	o.flags, o.reads, o.end = append(o.flags, 0), append(o.reads, 0), append(o.end, r)
	if words := (r + 64) / 64; words > o.words {
		o.words = words
		o.bits = make([]uint64, o.bitsLen(len(o.code)))
	}
	return uint32(r)
}

// trim drops the constants folds appended after p's n registers that no
// instruction reads and no register ends in, and renumbers the ones kept,
// in the code and in end, so the frame holds no dead constant.
func (o *optimizer) trim(n int) {
	p := o.p
	if len(p.init) == n {
		return
	}
	o.survey()
	for _, e := range o.end[:n] {
		o.reads[e] |= 1 // nonzero: some register ends in e
	}
	to, kept := make([]uint32, len(p.init)-n), n
	for r := n; r < len(p.init); r++ {
		if o.reads[r] != 0 {
			to[r-n], p.init[kept] = uint32(kept), p.init[r]
			kept++
		}
	}
	for pc, in := range o.code {
		for f := ops[in.Op].fields; f != ""; f = f[2:] {
			if v := in.field(f[0]); f[1] == 'r' && int(v) >= n {
				o.code[pc] = o.code[pc].setField(f[0], to[int(v)-n])
			}
		}
	}
	for r, e := range o.end[:n] {
		if e >= n {
			o.end[r] = int(to[e-n])
		}
	}
	p.init, p.fixed, o.end = p.init[:kept], p.fixed[:kept], o.end[:kept]
	for r := n; r < kept; r++ {
		o.end[r] = r
	}
}

// run returns what in, a pure operation on two constant registers, leaves
// in its destination: it runs in, on a frame of its operands' values.
func (o *optimizer) run(in Instr) int64 {
	r := []int64{0, o.p.init[in.B], o.p.init[in.C]}
	(&Program{w: o.p.w, code: []Instr{{Op: in.Op, B: 1, C: 2}}, init: r}).Run(r)
	return r[0]
}

// jumps reports whether br, a compare-and-branch of a register with itself or
// of two constant registers, jumps: where the compare of the same name holds.
func (o *optimizer) jumps(br Instr) bool {
	if br.B == br.C {
		return rels[br.Op]&relEQ != 0
	}
	return o.run(Instr{Op: Eq + br.Op - Jeq, B: br.B, C: br.C}) != 0
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

// decides reports whether next, a compare-and-branch, jumps (always) or falls
// through (never) wherever comparing the registers in compares ends in one
// of the outcomes out. Neither holds where next compares other registers.
func (o *optimizer) decides(in, next Instr, out uint8) (always, never bool) {
	rel := rels[next.Op]
	switch {
	case o.same(next.B, in.B) && o.same(next.C, in.C):
	case o.same(next.B, in.C) && o.same(next.C, in.B): // y ? x is x ? y mirrored
		rel = rel&relEQ | (rel&relLT)<<2 | (rel&relGT)>>2
	default:
		return false, false
	}
	return out&^rel == 0, out&rel == 0
}

// decided deletes a compare-and-branch that a branch before it in its block
// decides, nothing between writing the registers it compares, and turns one
// that always jumps into a jmp.
func (o *optimizer) decided() (changed bool) {
	for j, br := range o.code {
		if !br.Op.branch() {
			continue
		}
		for i := j - 1; i >= 0 && o.at[i+1] == 0; i-- {
			prev := o.code[i]
			if prev.Op == nop {
				continue
			}
			if prev.Op == Jmp || o.writes(prev, br.B, br.C) {
				break
			}
			if !prev.Op.branch() {
				continue
			}
			// j is reached only where prev falls through.
			switch always, never := o.decides(prev, br, rels[prev.Op]^(relLT|relEQ|relGT)); {
			case always:
				o.code[j], changed = Instr{Op: Jmp, A: br.A}, true
			case never:
				o.code[j].Op, changed = nop, true
			default:
				continue
			}
			break
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
		for t := o.live(target); int(t) < len(o.code); t = o.live(target) {
			next := o.code[t]
			if next.Op == Jmp {
				target = next.A
				continue
			}
			if !in.Op.branch() || !next.Op.branch() {
				break
			}
			always, never := o.decides(in, next, rels[in.Op])
			if always {
				target = next.A
			} else if never {
				target = t + 1
			} else {
				break
			}
		}
		if o.live(target) != o.live(in.A) {
			o.code[pc].A, changed = target, true
		}
	}
	return changed
}

// retarget finds the observed registers that end every run as a copy: that
// every path writes before reading, that nothing reads, and that every end
// and Trap leaves a copy of one register which nothing writes after the copy
// (copyAt). That register holds the end value instead (end), and is seen; the
// copied one is private, so its writes go.
func (o *optimizer) retarget() (changed bool) {
	for r := range o.flags {
		if !o.is(uint32(r), seen|setsFirst) || o.reads[r] != 0 {
			continue
		}
		if s := o.copyAt(r); s >= 0 {
			for x, e := range o.end { // r may be where another register ends
				if e == r {
					o.end[x] = s
				}
			}
			changed = true
			o.flags[r] = o.flags[r]&^seen | private
			o.flags[s] = o.flags[s]&^private | seen
		}
	}
	return changed
}

// copyAt returns the register S that every end and Trap leaves register r a
// copy of — the last write of r on every path is mov r, S and no write of S
// follows — and -1 for none. One pass in program order keeps in bits[pc]
// what every path into pc leaves r: none yet (0), S (S+2), or no one
// register (1).
func (o *optimizer) copyAt(r int) int {
	const unknown, notCopy = 0, 1
	state := o.bits[:len(o.code)+1]
	clear(state)
	state[0] = notCopy // r is not written yet
	meet := func(pc uint32, s uint64) {
		if s == unknown { // from code no path reaches
			return
		}
		if state[pc] == unknown {
			state[pc] = s
		} else if state[pc] != s {
			state[pc] = notCopy
		}
	}
	exit := uint64(unknown) // what the exits seen so far leave r
	for pc, in := range o.code {
		s := state[pc]
		if in.Op == Trap {
			if s == notCopy || uint64(in.A)+2 == s || exit != unknown && s != unknown && s != exit {
				return -1 // a Trap leaves r another copy or none, or writes the copy as it leaves
			}
			exit = max(exit, s) // the one of the two that is known
		}
		if in.Op == Mov && in.A == uint32(r) {
			s = uint64(in.B) + 2
		} else if o.writes(in, uint32(r), uint32(s-2)) { // s-2 is no register where s is no copy
			s = notCopy
		}
		if in.Op == Jmp || in.Op.branch() {
			meet(in.A, s)
		}
		if in.Op != Jmp {
			meet(uint32(pc+1), s)
		}
	}
	if s := state[len(o.code)]; s > notCopy && (exit == unknown || s == exit) {
		return int(s - 2)
	}
	return -1
}

// dead deletes jumps to the next instruction, instructions after a jmp that
// no jump lands on, and dead writes (deadWrites).
func (o *optimizer) dead() (changed bool) {
	reached := true // whether the instruction before falls through
	for pc, in := range o.code {
		if in.Op == nop {
			continue
		}
		if !reached && o.at[pc] == 0 || (in.Op == Jmp || in.Op.branch()) && o.live(in.A) == o.live(uint32(pc+1)) {
			o.code[pc].Op, changed = nop, true
			continue
		}
		reached = in.Op != Jmp
	}
	return o.deadWrites() || changed
}

// deadWrites deletes every write of a register that no path from it reads
// before writing the register again, or — unless the register is private —
// before it ends or traps, in one pass against program order: bits holds at
// pc the registers live there, those some path from pc reads so.
func (o *optimizer) deadWrites() (changed bool) {
	words := o.words
	live := o.bits[:(len(o.code)+1)*words]
	exit := live[len(o.code)*words:]
	clear(exit)
	for r, f := range o.flags {
		if f&private == 0 {
			exit[r/64] |= 1 << (r % 64)
		}
	}
	next := func(to uint32) []uint64 { return live[int(to)*words : (int(to)+1)*words] }
	for pc := len(o.code) - 1; pc >= 0; pc-- {
		in := o.code[pc]
		out := live[pc*words : (pc+1)*words]
		if in.Op == Jmp {
			copy(out, next(in.A))
			continue
		}
		copy(out, next(uint32(pc+1)))
		if in.Op == nop {
			continue
		}
		var also []uint64
		switch {
		case in.Op.branch():
			also = next(in.A)
		case in.Op == Trap:
			also = exit
		case in.Op == Store || in.Op == StoreMask: // a store writes one cell of many
		case out[in.A/64]>>(in.A%64)&1 == 0:
			o.code[pc].Op, changed = nop, true
			continue
		default:
			out[in.A/64] &^= 1 << (in.A % 64)
		}
		for i, v := range also {
			out[i] |= v
		}
		o.p.access(in, func(r int, write bool) {
			if !write {
				out[r/64] |= 1 << (r % 64)
			}
		})
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
