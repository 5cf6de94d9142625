// lower.go is the dRMT ISA's counterpart of RMT's sparse conditional
// constant propagation (§3.4, Fig. 6): a machine's table entries are as
// fixed when newISAMachine runs as RMT's machine code is at core.Build, so
// the verified, strictly feed-forward ISA program is specialised on them
// once and ExecSlots runs the result.
//
// The lowered code runs over one []int64 frame: the packet's field slots,
// then the ISA registers, then one constant register per value the code
// reads. Every operand is a frame index, so an op does not care which of
// the three it reads or writes.
//
// The code is one flat slice. It starts with a 1:1 copy of the source
// program — op i stands for source instruction i, so a source branch target
// is its own lowered index, and every register operand is the register's
// home in the frame — which executes after a data-dependent branch that is
// taken. After it come the blocks: one for the program's entry (the source
// walked from pc 0) and one per OpMatch outcome (each compiled entry, then
// the default or the miss; outcomes that select one action with the same
// arguments share a block), the source walked from the MATCH with the
// action-select register and the parameter registers known. The walk keeps,
// per register, the frame index its value lives at:
//
//   - a loadi, and what the MATCH bound, is a constant register; a register
//     no path from the program's entry has written still holds its initial 0
//     (the forward fact "written", one bit per register and pc), which is
//     what folds the drop test between tables;
//   - a loadf is a rename of the field's slot, until the slot is stored to
//     (registers renamed to it are given its value first);
//   - ALU instructions over constants fold, branches on constants are
//     followed, a branch on anything else is kept with its source target,
//     and the walk ends at the next MATCH or HALT. Where control can leave
//     the block, every register live there is moved to its home first.
//
// A backward pass then deletes every register write that the source
// program's exact liveness shows nothing can read, and lets an ALU op whose
// only reader is the storef right after it, and whose result fits the
// field, write the field's slot itself.
//
// Every lowered op carries the number of source instructions it retires;
// an instruction that was renamed, folded, followed or deleted rolls its
// count forward onto the next kept op of its block, which always executes
// after it. Instruction counts, per-packet latency and the count reported
// with an execution error are therefore those of the source program,
// instruction by instruction — the semantics spelled out by the reference
// interpreter in reference_test.go, which FuzzSlotsVsReference and
// TestBlocksEqualTheirSourcePath hold this file to.
package drmt

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Lowered-only opcodes, continuing the Op enumeration.
const (
	// opFail ends the packet with errs[x]: an instruction the source
	// interpreter fails on whenever it reaches it.
	opFail Op = OpHalt + 1 + iota
	// opDead marks a deleted op between the dead-store pass and compaction.
	opDead
	// opLoadRegMask and opStoreRegMask are loadr and storer on a bank whose
	// cell count is a power of two: the index wraps by a mask.
	opLoadRegMask
	opStoreRegMask
	// opAdd is alu.add — the ALU op action bodies assemble to — with the
	// width as the mask x: a masked sum needs no masked operands. The code
	// is rewritten to it last; the passes before see OpALU.
	opAdd
)

// lop is one lowered instruction. f is the frame; dst, a and b index it
// unless noted:
//
//	loadi   f[dst] = f[a] & x                      a: constant register, x: -1
//	loadf   f[dst] = f[a] & x                      a: field slot, x: -1
//	storef  f[dst] = f[a] & x                      dst: field slot, x: width mask
//	alu     f[dst] = aop(f[a], f[b]) at width bits
//	add     f[dst] = (f[a] + f[b]) & x             x: width mask
//	loadr   f[dst] = bank[b][wrap(f[a])]           b: bank
//	storer  bank[dst][wrap(f[a])] = f[b] & x       dst: bank, x: width mask
//	match   a: table symbol, x: its first outcome in lowered.outcomes
//	        (dst: the source's select register, kept for liveness and listings)
//	bz/bnz  test f[a], x: lowered target
//	jmp     x: lowered target
//	drop    f[dst] = 1                             dst: the drop register
//	fail    x: index into lowered.errs
type lop struct {
	op        Op
	aop       ALUOp
	bits      uint8
	retire    uint32 // source instructions this op stands for
	dst, a, b int32
	x         int64
}

// lowered is the code ExecSlots runs, and the frame it runs on.
type lowered struct {
	code     []lop     // source copy, end-of-program halt, entry block, outcome blocks
	outcomes []outcome // every MATCH's outcomes, a MATCH's consecutive and in priority order
	errs     []error   // opFail operands, built once
	entry    int32     // start of the entry block, where a packet begins

	// The frame: [0, regBase) the packet's field slots, then the ISA
	// registers, then from constBase the constant registers, which hold consts.
	regBase, constBase int32
	consts             []int64
	zero               []int32 // homes of the registers a packet can read before it writes them
}

// outcome is one way a MATCH can go: an entry of its table — selected by the
// first one with f[field]&mask == key — or, after the entries, the default
// or the miss, which every packet matches (mask and key 0). block is where
// the code specialised on it starts.
type outcome struct {
	field, block int32
	mask, key    int64
}

// newFrame returns a frame with the constant registers set.
func (l *lowered) newFrame() []int64 {
	f := make([]int64, int(l.constBase)+len(l.consts))
	copy(f[l.constBase:], l.consts)
	return f
}

// blockAt returns the block that starts at start: straight-line code up to
// and including the MATCH, HALT or fail that ends it.
func (l *lowered) blockAt(start int32) []lop {
	for end := start; ; end++ {
		switch l.code[end].op {
		case OpMatch, OpHalt, opFail:
			return l.code[start : end+1]
		}
	}
}

// outcome returns what a MATCH on the table selects as outcome oi: entry oi,
// or past the entries the default — without one a miss (matched false),
// which leaves select and parameters zero.
func (mt *isaTable) outcome(oi int) (matched bool, sel int64, args []int64, action string) {
	if oi < len(mt.entries) {
		e := &mt.entries[oi]
		return true, e.sel, e.args, e.actName
	}
	return mt.hasDef, mt.defSel, mt.defArgs, mt.defName
}

// lowerer is the state of one lowering.
type lowerer struct {
	m         *ISAMachine
	fieldSlot []int32 // field symbol -> layout slot (-1 = unknown field)
	fieldMask []int64 // field symbol -> width mask
	regMask   []int64 // register-array symbol -> width mask

	out     *lowered
	words   int      // uint64 words per register set
	live    []uint64 // live-in register set of every source pc, and of the program end
	written []uint64 // per source pc: the registers some path from pc 0 to it writes
	set     []uint64 // the dead-store pass's working set

	// The walker's state: where each register's value lives (its home, a
	// field slot it renames, or a constant register), whether its home holds
	// that value too, and the block under construction.
	loc    []int32
	inHome []uint64
	buf    []lop

	key  []byte           // the outcome being lowered, as a key of ...
	same map[string]int32 // ... the blocks its MATCH already has
}

// liveIn returns the registers live on entry to source pc.
func (lw *lowerer) liveIn(pc int) []uint64 { return lw.live[pc*lw.words : (pc+1)*lw.words] }

// writtenIn returns the registers that may have been written when control
// reaches source pc; every other register still holds its initial 0 there.
func (lw *lowerer) writtenIn(pc int) []uint64 { return lw.written[pc*lw.words : (pc+1)*lw.words] }

func has(set []uint64, r int32) bool { return set[r>>6]&(1<<(r&63)) != 0 }
func add(set []uint64, r int32)      { set[r>>6] |= 1 << (r & 63) }
func del(set []uint64, r int32)      { set[r>>6] &^= 1 << (r & 63) }

func union(set, other []uint64) {
	for w, bits := range other {
		set[w] |= bits
	}
}

// home returns the frame index of ISA register r.
func (lw *lowerer) home(r int) int32 { return lw.out.regBase + int32(r) }

// reg returns the ISA register whose home frame index idx is, if it is one.
func (lw *lowerer) reg(idx int32) (int32, bool) {
	return idx - lw.out.regBase, idx >= lw.out.regBase && idx < lw.out.constBase
}

// konst returns the constant register holding v.
func (lw *lowerer) konst(v int64) int32 {
	for i, c := range lw.out.consts {
		if c == v {
			return lw.out.constBase + int32(i)
		}
	}
	lw.out.consts = append(lw.out.consts, v)
	return lw.out.constBase + int32(len(lw.out.consts)-1)
}

// fail returns the op for an instruction that always fails with err.
func (lw *lowerer) fail(retire uint32, err error) lop {
	lw.out.errs = append(lw.out.errs, err)
	return lop{op: opFail, retire: retire, x: int64(len(lw.out.errs) - 1)}
}

// op lowers source instruction pc on its own: names resolved, registers at
// their homes, and a write to the immutable zero register voided into a jump
// to the next instruction. base is the MATCH's first outcome.
func (lw *lowerer) op(pc int, base int32) lop {
	isa := lw.m.isa
	in := &isa.Instrs[pc]
	o := lop{op: in.Op, retire: 1}
	switch in.Op {
	case OpLoadImm:
		o.dst, o.a, o.x = lw.home(in.Dst), lw.konst(in.Imm), -1
	case OpLoadField, OpStoreField:
		slot := lw.fieldSlot[in.Sym]
		if slot < 0 {
			return lw.fail(1, fmt.Errorf("packet lacks field %q", isa.Fields[in.Sym]))
		}
		if in.Op == OpLoadField {
			o.dst, o.a, o.x = lw.home(in.Dst), slot, -1
		} else {
			o.dst, o.a, o.x = slot, lw.home(in.A), lw.fieldMask[in.Sym]
		}
	case OpALU:
		o.aop, o.bits = in.AOp, uint8(in.Bits)
		o.dst, o.a, o.b = lw.home(in.Dst), lw.home(in.A), lw.home(in.B)
	case OpLoadReg:
		o.dst, o.a, o.b = lw.home(in.Dst), lw.home(in.A), int32(in.Sym)
		if lw.wrapsByMask(in.Sym) {
			o.op = opLoadRegMask
		}
	case OpStoreReg:
		o.dst, o.a, o.b, o.x = int32(in.Sym), lw.home(in.A), lw.home(in.B), lw.regMask[in.Sym]
		if lw.wrapsByMask(in.Sym) {
			o.op = opStoreRegMask
		}
	case OpMatch:
		if err := lw.m.matchTables[in.Sym].err; err != nil {
			return lw.fail(1, err)
		}
		o.dst, o.a, o.x = lw.home(in.Dst), int32(in.Sym), int64(base)
	case OpBZ, OpBNZ:
		o.a, o.x = lw.home(in.A), int64(in.Target)
	case OpJmp:
		o.x = int64(in.Target)
	case OpDrop:
		o.dst = lw.home(RegDrop)
	}
	if o.writesFrame() && o.dst == lw.home(RegZero) {
		return lop{op: OpJmp, retire: 1, x: int64(pc + 1)}
	}
	return o
}

// wrapsByMask reports whether the bank's cell count is a power of two, so
// that an index wraps into it by idx & (cells-1).
func (lw *lowerer) wrapsByMask(bank int) bool {
	cells := len(lw.m.regBanks[bank])
	return cells&(cells-1) == 0
}

// writesFrame reports whether the op's only effect is to set f[dst].
func (o *lop) writesFrame() bool {
	switch o.op {
	case OpLoadImm, OpLoadField, OpStoreField, OpALU, OpLoadReg, opLoadRegMask:
		return true
	}
	return false
}

// matchWrites calls each with every register the MATCH o sets.
func (lw *lowerer) matchWrites(o *lop, each func(r int32)) {
	each(o.dst - lw.out.regBase)
	for i := 0; i < lw.m.isa.NumParams; i++ {
		each(int32(RegParam0 + i))
	}
}

// step moves the live set backwards across o — on entry the registers live
// after o falls through, on return those live before it — and reports
// whether o is a register write that nothing reads.
func (lw *lowerer) step(o *lop, live []uint64) (dead bool) {
	use := func(idx int32) {
		if r, ok := lw.reg(idx); ok {
			add(live, r)
		}
	}
	if o.writesFrame() {
		if r, ok := lw.reg(o.dst); ok {
			if !has(live, r) {
				return true
			}
			del(live, r)
		}
	}
	switch o.op {
	case OpLoadImm, OpLoadField, OpStoreField, OpLoadReg, opLoadRegMask:
		use(o.a)
	case OpALU, OpStoreReg, opStoreRegMask:
		use(o.a)
		use(o.b)
	case OpMatch:
		lw.matchWrites(o, func(r int32) { del(live, r) })
	case OpBZ, OpBNZ:
		union(live, lw.liveIn(int(o.x)))
		use(o.a)
	case OpJmp:
		copy(live, lw.liveIn(int(o.x)))
	case OpDrop:
		del(live, RegDrop)
	case OpHalt, opFail:
		clear(live)
	}
	return false
}

// lower builds the machine's lowered code.
func (lw *lowerer) lower() *lowered {
	isa := lw.m.isa
	n := len(isa.Instrs)
	// With a handful of distinct outcomes per MATCH, as the embedded
	// benchmarks have, the blocks come to less than the source; more grow
	// the slice.
	lw.out = &lowered{code: make([]lop, n+1, 2*n+1)}
	lw.out.regBase = int32(lw.m.layout.NumFields())
	lw.out.constBase = lw.out.regBase + int32(isa.NumRegs)
	lw.konst(0) // the first constant register: what an unwritten register reads as
	code := lw.out.code

	// The source copy. Outcomes are numbered as MATCHes are met.
	for pc := range isa.Instrs {
		code[pc] = lw.op(pc, int32(len(lw.out.outcomes)))
		if code[pc].op == OpMatch {
			for _, e := range lw.m.matchTables[code[pc].a].entries {
				lw.out.outcomes = append(lw.out.outcomes, outcome{field: int32(e.field), mask: e.mask, key: e.key})
			}
			lw.out.outcomes = append(lw.out.outcomes, outcome{})
		}
	}
	code[n] = lop{op: OpHalt} // running off the end retires nothing more

	lw.dataflow()
	lw.loc = make([]int32, isa.NumRegs)
	lw.out.entry = int32(len(lw.out.code))
	lw.begin(0)
	lw.finish(lw.walk(0))

	lw.same = map[string]int32{}
	for pc := 0; pc < n; pc++ {
		if code[pc].op != OpMatch {
			continue
		}
		// A block is a function of what its MATCH wrote, so the entries
		// that select one action with the same arguments — most of a large
		// table — share one block.
		mt := &lw.m.matchTables[code[pc].a]
		clear(lw.same)
		for oi := 0; oi <= len(mt.entries); oi++ {
			start, ok := lw.same[string(lw.outcomeKey(mt, oi))]
			if !ok {
				start = int32(len(lw.out.code))
				lw.same[string(lw.key)] = start
				lw.outcome(pc, mt, oi)
			}
			lw.out.outcomes[int(code[pc].x)+oi].block = start
		}
	}
	for i := range lw.out.code {
		if o := &lw.out.code[i]; o.op == OpALU && o.aop == ALUAdd {
			o.op, o.x = opAdd, aluWidths[o.bits].Mask()
		}
	}
	return lw.out
}

// dataflow computes, over the source copy, the exact liveness of the source
// and which registers may have been written by each pc: edges only go
// forward, so one backward sweep sees every successor's live set before it is
// needed, and one forward sweep has every predecessor's written set in place.
func (lw *lowerer) dataflow() {
	isa, code := lw.m.isa, lw.out.code
	n := len(isa.Instrs)
	lw.words = (isa.NumRegs + 63) / 64
	sets := make([]uint64, (2*n+4)*lw.words)
	lw.live, sets = sets[:(n+2)*lw.words], sets[(n+2)*lw.words:]
	lw.written, lw.inHome = sets[:(n+1)*lw.words], sets[(n+1)*lw.words:]
	lw.set = lw.liveIn(n + 1)
	for pc := n - 1; pc >= 0; pc-- {
		copy(lw.liveIn(pc), lw.liveIn(pc+1))
		lw.step(&code[pc], lw.liveIn(pc))
	}
	for pc := 0; pc < n; pc++ {
		o, in := &code[pc], lw.writtenIn(pc)
		switch o.op {
		case OpBZ, OpBNZ, OpJmp:
			union(lw.writtenIn(int(o.x)), in)
			if o.op == OpJmp {
				continue
			}
		case OpHalt, opFail:
			continue
		}
		next := lw.writtenIn(pc + 1)
		union(next, in)
		switch {
		case o.op == OpMatch:
			lw.matchWrites(o, func(r int32) { add(next, r) })
		case o.writesFrame() || o.op == OpDrop:
			if r, ok := lw.reg(o.dst); ok {
				add(next, r)
			}
		}
	}
	// A packet starts with its registers zero; only those the program can
	// read before it writes them have to be made so.
	for r := 1; r < isa.NumRegs; r++ {
		if has(lw.liveIn(0), int32(r)) {
			lw.out.zero = append(lw.out.zero, lw.home(r))
		}
	}
}

// outcomeKey sets lw.key to everything outcome oi's block depends on beyond
// its MATCH: hit or miss, the select and the arguments — and for a select of
// 0, which fails by name, the action.
func (lw *lowerer) outcomeKey(mt *isaTable, oi int) []byte {
	matched, sel, args, action := mt.outcome(oi)
	lw.key = append(lw.key[:0], 0)
	if matched {
		lw.key[0] = 1
	}
	lw.key = binary.AppendVarint(lw.key, sel)
	for i := 0; i < lw.m.isa.NumParams; i++ {
		v := int64(0)
		if i < len(args) {
			v = args[i]
		}
		lw.key = binary.AppendVarint(lw.key, v)
	}
	if matched && sel == 0 {
		lw.key = append(lw.key, action...)
	}
	return lw.key
}

// outcome appends the block that follows the MATCH at source pc when it
// selects entry oi of mt (oi == len(mt.entries): no entry matched).
func (lw *lowerer) outcome(pc int, mt *isaTable, oi int) {
	matched, sel, args, actName := mt.outcome(oi)
	if matched && sel == 0 {
		err := fmt.Errorf("table %q selected action %q outside its dispatch list", mt.name, actName)
		lw.out.code = append(lw.out.code, lw.fail(0, err))
		return
	}

	// What the MATCH wrote, in its order, as constants the walk starts from.
	lw.begin(pc)
	lw.define(lw.m.isa.Instrs[pc].Dst, sel)
	for i := 0; i < lw.m.isa.NumParams; i++ {
		v := int64(0)
		if i < len(args) {
			v = args[i]
		}
		lw.define(RegParam0+i, v)
	}
	lw.finish(lw.walk(pc + 1))
}

// begin starts a block at source pc: a register written on some path to pc
// is at its home, every other one is the constant 0 there and everywhere.
func (lw *lowerer) begin(pc int) {
	lw.buf = lw.buf[:0]
	written := lw.writtenIn(pc)
	for r := range lw.loc {
		lw.loc[r] = lw.out.constBase
		if r != RegZero && has(written, int32(r)) {
			lw.loc[r] = lw.home(r)
		}
		add(lw.inHome, int32(r))
	}
}

// define records that the MATCH set register r to v. Nothing is emitted: v
// is a constant register wherever the block reads r.
func (lw *lowerer) define(r int, v int64) {
	if r != RegZero {
		lw.rename(int32(r), lw.konst(v))
	}
}

// rename records that register r's value now lives at frame index idx.
func (lw *lowerer) rename(r, idx int32) {
	lw.loc[r] = idx
	if idx == lw.home(int(r)) {
		add(lw.inHome, r)
	} else {
		del(lw.inHome, r)
	}
}

// settle emits the move that brings register r to its home, unless it is
// there. The move retires nothing: the instruction it stands for has been
// counted.
func (lw *lowerer) settle(r int32) {
	if has(lw.inHome, r) {
		return
	}
	op := OpLoadField
	if lw.loc[r] >= lw.out.constBase {
		op = OpLoadImm
	}
	lw.buf = append(lw.buf, lop{op: op, dst: lw.home(int(r)), a: lw.loc[r], x: -1})
	add(lw.inHome, r)
}

// settleLive settles every register of the set: control may leave the block
// for code that reads them at their homes.
func (lw *lowerer) settleLive(live []uint64) {
	for r := range lw.loc {
		if has(live, int32(r)) {
			lw.settle(int32(r))
		}
	}
}

// walk specialises the source from pc on the walker's state into buf, up to
// and including the next MATCH, HALT or failing instruction, and returns the
// source pc whose live-in set holds after the block's last op.
func (lw *lowerer) walk(pc int) (after int) {
	n := len(lw.m.isa.Instrs)
	base := lw.out.regBase
	pending := uint32(0) // retired by instructions that left no op
	for ; pc < n; pc++ {
		o := lw.out.code[pc]
		switch o.op {
		case OpJmp:
			pending++
			pc = int(o.x) - 1
			continue
		case OpBZ, OpBNZ:
			o.a = lw.loc[o.a-base]
			if o.a >= lw.out.constBase {
				pending++
				if (lw.out.consts[o.a-lw.out.constBase] == 0) == (o.op == OpBZ) {
					pc = int(o.x) - 1
				}
				continue
			}
			lw.settleLive(lw.liveIn(int(o.x)))
		case OpLoadImm, OpLoadField:
			lw.rename(o.dst-base, o.a)
			pending++
			continue
		case OpStoreField:
			// The slot is about to change: a register that renames it takes
			// its value along.
			for r, idx := range lw.loc {
				if idx == o.dst {
					lw.settle(int32(r))
					lw.loc[r] = lw.home(r)
				}
			}
			o.a = lw.loc[o.a-base]
		case OpALU:
			o.a, o.b = lw.loc[o.a-base], lw.loc[o.b-base]
			if c := lw.out.constBase; o.a >= c && o.b >= c {
				v := aluEvalW(o.aop, aluWidths[o.bits], lw.out.consts[o.a-c], lw.out.consts[o.b-c])
				lw.rename(o.dst-base, lw.konst(v))
				pending++
				continue
			}
			lw.rename(o.dst-base, o.dst)
		case OpLoadReg, opLoadRegMask:
			o.a = lw.loc[o.a-base]
			lw.rename(o.dst-base, o.dst)
		case OpStoreReg, opStoreRegMask:
			o.a, o.b = lw.loc[o.a-base], lw.loc[o.b-base]
		case OpDrop:
			lw.loc[RegDrop] = lw.konst(1)
			add(lw.inHome, RegDrop)
		case OpMatch:
			lw.settleLive(lw.liveIn(pc))
		}
		o.retire += pending
		pending = 0
		lw.buf = append(lw.buf, o)
		switch o.op {
		case OpMatch:
			return pc + 1
		case OpHalt, opFail:
			return n
		}
	}
	lw.buf = append(lw.buf, lop{op: OpHalt, retire: pending})
	return n
}

// finish appends the walked block to the code: dead register writes go, an
// ALU op takes over the storef that only forwards its result, and the
// retired counts of what went roll forward. after is the source pc whose
// live-in set holds at the block's end.
func (lw *lowerer) finish(after int) {
	copy(lw.set, lw.liveIn(after))
	var store *lop // the kept op after o, when it is a storef and the last reader of its register
	for i := len(lw.buf) - 1; i >= 0; i-- {
		o := &lw.buf[i]
		if o.op == OpALU && store != nil && store.a == o.dst && aluWidths[o.bits].Mask()&^store.x == 0 {
			del(lw.set, o.dst-lw.out.regBase)
			o.dst, store.op = store.dst, opDead
		}
		r, isReg := lw.reg(o.a)
		lastReader := o.op == OpStoreField && isReg && !has(lw.set, r)
		if lw.step(o, lw.set) {
			o.op = opDead
			continue
		}
		if store = nil; lastReader {
			store = o
		}
	}
	pending := uint32(0)
	for _, o := range lw.buf {
		if o.op == opDead {
			pending += o.retire
			continue
		}
		o.retire += pending
		pending = 0
		lw.out.code = append(lw.out.code, o)
	}
}

// Lowered renders what ExecSlots runs: the entry block, then per
// table/outcome the specialised block, every op with its frame operands by
// name (a field, a register, #constant) and the number of source
// instructions it retires. (After a taken data-dependent branch it runs the
// source program as Disassemble prints it.)
func (m *ISAMachine) Lowered() string {
	var b strings.Builder
	code, outcomes := m.low.code, m.low.outcomes
	n := len(m.isa.Instrs)
	list := func(pc int, name string, start int32) {
		block := m.low.blockAt(start)
		retired := uint32(0)
		for i := range block {
			retired += block[i].retire
		}
		fmt.Fprintf(&b, "%4d: %s: %d ops retire %d\n", pc, name, len(block), retired)
		for i := range block {
			fmt.Fprintf(&b, "        %-40s ; %d\n", m.disasm(&block[i]), block[i].retire)
		}
	}
	list(0, "entry", m.low.entry)
	first := map[int32]string{} // block start -> the first outcome listed with it
	for pc := 0; pc < n; pc++ {
		if code[pc].op != OpMatch {
			continue
		}
		mt := &m.matchTables[code[pc].a]
		for oi := 0; oi <= len(mt.entries); oi++ {
			start := outcomes[int(code[pc].x)+oi].block
			name := mt.name + "/" + mt.outcomeName(oi)
			if shared, ok := first[start]; ok {
				fmt.Fprintf(&b, "%4d: %s: the block of %s\n", pc, name, shared)
				continue
			}
			first[start] = name
			list(pc, name, start)
		}
	}
	return fmt.Sprintf("lowered on the table entries: %d source instructions, entry and %d outcomes in %d blocks: %d ops, %d constants\n%s",
		n, len(outcomes), len(first), len(code)-int(m.low.entry), len(m.low.consts), b.String())
}

// outcomeName labels outcome oi of a MATCH on the table.
func (mt *isaTable) outcomeName(oi int) string {
	matched, _, args, action := mt.outcome(oi)
	switch {
	case !matched:
		return "miss"
	case oi < len(mt.entries):
		return fmt.Sprintf("%d %s%s", oi, action, formatArgs(args))
	}
	return fmt.Sprintf("default %s%s", action, formatArgs(args))
}

func formatArgs(args []int64) string {
	parts := make([]string, len(args))
	for i, v := range args {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// operand names frame index idx: a field, a register or #constant.
func (m *ISAMachine) operand(idx int32) string {
	switch {
	case idx < m.low.regBase:
		return m.layout.fields[idx]
	case idx < m.low.constBase:
		return fmt.Sprintf("r%d", idx-m.low.regBase)
	}
	return fmt.Sprintf("#%d", m.low.consts[idx-m.low.constBase])
}

// disasm renders one lowered op in Disassemble's syntax, frame operands by
// name. A bank index that wraps by a mask shows the mask.
func (m *ISAMachine) disasm(o *lop) string {
	dst, a, b := "", "", ""
	op := o.op
	index := func(bank int32) string { // of a bank op
		if o.op == OpLoadReg || o.op == OpStoreReg {
			return m.operand(o.a)
		}
		return fmt.Sprintf("%s&%d", m.operand(o.a), len(m.regBanks[bank])-1)
	}
	switch o.op {
	case OpLoadImm, OpLoadField, OpStoreField:
		dst, a = m.operand(o.dst), m.operand(o.a)
	case OpALU, opAdd:
		op = OpALU
		dst, a, b = m.operand(o.dst), m.operand(o.a), m.operand(o.b)
	case OpLoadReg, opLoadRegMask:
		op = OpLoadReg
		dst, a, b = m.operand(o.dst), index(o.b), m.isa.RegArrays[o.b]
	case OpStoreReg, opStoreRegMask:
		op = OpStoreReg
		dst, a, b = m.isa.RegArrays[o.dst], index(o.dst), m.operand(o.b)
	case OpMatch:
		dst, a = m.operand(o.dst), m.isa.Tables[o.a]
	case OpBZ, OpBNZ:
		a = m.operand(o.a)
	case opFail:
		return fmt.Sprintf("fail   %v", m.low.errs[o.x])
	}
	return formatOp(op, o.aop, int(o.bits), dst, a, b, int(o.x))
}
