// lower.go is the dRMT ISA's counterpart of RMT's sparse conditional
// constant propagation (§3.4, Fig. 6): a machine's table entries are as
// fixed when newISAMachine runs as RMT's machine code is at core.Build, so
// the verified, strictly feed-forward ISA program is specialised on them
// once and ExecSlots runs the result.
//
// The lowered code is one flat slice. It starts with a 1:1 copy of the
// source program — op i stands for source instruction i, so a source branch
// target is its own lowered index — which executes the entry path and every
// data-dependent branch that is taken. After it come the blocks of every
// OpMatch's outcomes (each compiled entry, then the default or the miss;
// outcomes that select one action with the same arguments share a block): the
// source walked from the MATCH with the action-select register and the
// parameter registers known. ALU instructions over known registers fold to
// their result, branches on known registers are followed, a branch on an
// unknown register is kept with its source target, and the walk ends at the
// next MATCH or HALT. A backward pass then deletes every register write that
// the source program's exact liveness shows nothing can read.
//
// Every lowered op carries the number of source instructions it retires;
// an instruction that was folded, followed or deleted rolls its count
// forward onto the next kept op of its block, which always executes after
// it. Instruction counts, per-packet latency and the count reported with an
// execution error are therefore those of the source program, instruction
// by instruction — the semantics spelled out by the reference interpreter
// in reference_test.go, which FuzzSlotsVsReference holds this file to.
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
)

// lop is one lowered instruction. Operand use per opcode:
//
//	loadi   regs[dst] = x
//	loadf   regs[dst] = pkt[a]                     a: field slot
//	storef  pkt[dst] = regs[a] & x                 dst: field slot, x: width mask
//	alu     regs[dst] = aop(regs[a], regs[b]) at width bits
//	loadr   regs[dst] = bank[b][wrap(regs[a])]
//	storer  bank[dst][wrap(regs[a])] = regs[b] & x x: width mask
//	match   a: table symbol, x: base of its outcomes in lowered.blocks
//	        (dst: the source's select register, kept for liveness and listings)
//	bz/bnz  test regs[a], x: lowered target
//	jmp     x: lowered target
//	fail    x: index into lowered.errs
type lop struct {
	op        Op
	aop       ALUOp
	bits      uint8
	retire    uint32 // source instructions this op stands for
	dst, a, b int32
	x         int64
}

// lowered is the code ExecSlots runs.
type lowered struct {
	code   []lop   // source copy, end-of-program halt, outcome blocks
	blocks []int32 // outcome slot -> start of its block; a MATCH's slots are consecutive
	errs   []error // opFail operands, built once
}

// block returns the block of outcome slot: straight-line code up to and
// including the MATCH, HALT or fail that ends it.
func (l *lowered) block(slot int) []lop {
	start := int(l.blocks[slot])
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

	out   *lowered
	words int      // uint64 words per liveness set
	live  []uint64 // live-in register set of every source pc, and of the program end
	set   []uint64 // the dead-store pass's working set

	known []bool // the walker's constant registers ...
	val   []int64
	buf   []lop // ... and the block under construction

	key  []byte           // the outcome being lowered, as a key of ...
	same map[string]int32 // ... the blocks its MATCH already has
}

// liveIn returns the registers live on entry to source pc.
func (lw *lowerer) liveIn(pc int) []uint64 { return lw.live[pc*lw.words : (pc+1)*lw.words] }

func has(set []uint64, r int32) bool { return set[r>>6]&(1<<(r&63)) != 0 }
func add(set []uint64, r int32)      { set[r>>6] |= 1 << (r & 63) }
func del(set []uint64, r int32)      { set[r>>6] &^= 1 << (r & 63) }

// fail returns the op for an instruction that always fails with err.
func (lw *lowerer) fail(retire uint32, err error) lop {
	lw.out.errs = append(lw.out.errs, err)
	return lop{op: opFail, retire: retire, x: int64(len(lw.out.errs) - 1)}
}

// op lowers source instruction pc on its own: names resolved, and a write
// to the immutable zero register voided into a jump to the next instruction.
// base is the MATCH's first slot in lowered.blocks.
func (lw *lowerer) op(pc int, base int32) lop {
	isa := lw.m.isa
	in := &isa.Instrs[pc]
	o := lop{op: in.Op, retire: 1}
	switch in.Op {
	case OpLoadImm:
		o.dst, o.x = int32(in.Dst), in.Imm
	case OpLoadField, OpStoreField:
		slot := lw.fieldSlot[in.Sym]
		if slot < 0 {
			return lw.fail(1, fmt.Errorf("packet lacks field %q", isa.Fields[in.Sym]))
		}
		if in.Op == OpLoadField {
			o.dst, o.a = int32(in.Dst), slot
		} else {
			o.dst, o.a, o.x = slot, int32(in.A), lw.fieldMask[in.Sym]
		}
	case OpALU:
		o.aop, o.bits = in.AOp, uint8(in.Bits)
		o.dst, o.a, o.b = int32(in.Dst), int32(in.A), int32(in.B)
	case OpLoadReg:
		o.dst, o.a, o.b = int32(in.Dst), int32(in.A), int32(in.Sym)
	case OpStoreReg:
		o.dst, o.a, o.b, o.x = int32(in.Sym), int32(in.A), int32(in.B), lw.regMask[in.Sym]
	case OpMatch:
		if err := lw.m.matchTables[in.Sym].err; err != nil {
			return lw.fail(1, err)
		}
		o.dst, o.a, o.x = int32(in.Dst), int32(in.Sym), int64(base)
	case OpBZ, OpBNZ:
		o.a, o.x = int32(in.A), int64(in.Target)
	case OpJmp:
		o.x = int64(in.Target)
	}
	if o.writesReg() && o.dst == RegZero {
		return lop{op: OpJmp, retire: 1, x: int64(pc + 1)}
	}
	return o
}

// writesReg reports whether the op's only effect is to set regs[dst].
func (o *lop) writesReg() bool {
	switch o.op {
	case OpLoadImm, OpLoadField, OpALU, OpLoadReg:
		return true
	}
	return false
}

// step moves the live set backwards across o — on entry the registers live
// after o falls through, on return those live before it — and reports
// whether o is a register write that nothing reads.
func (lw *lowerer) step(o *lop, live []uint64) (dead bool) {
	if o.writesReg() {
		if !has(live, o.dst) {
			return true
		}
		del(live, o.dst)
	}
	switch o.op {
	case OpStoreField:
		add(live, o.a)
	case OpALU, OpStoreReg:
		add(live, o.a)
		add(live, o.b)
	case OpLoadReg:
		add(live, o.a)
	case OpMatch:
		del(live, o.dst)
		for i := 0; i < lw.m.isa.NumParams; i++ {
			del(live, int32(RegParam0+i))
		}
	case OpBZ, OpBNZ:
		for w, bits := range lw.liveIn(int(o.x)) {
			live[w] |= bits
		}
		add(live, o.a)
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
	// A handful of distinct outcomes per MATCH, as the embedded benchmarks
	// have, comes to one to two times the source; more grow the slice.
	lw.out = &lowered{code: make([]lop, n+1, 3*n+1)}
	code := lw.out.code

	// The source copy. Outcome slots are numbered as MATCHes are met.
	outcomes := int32(0)
	for pc := range isa.Instrs {
		code[pc] = lw.op(pc, outcomes)
		if code[pc].op == OpMatch {
			outcomes += int32(len(lw.m.matchTables[code[pc].a].entries)) + 1
		}
	}
	code[n] = lop{op: OpHalt} // running off the end retires nothing more
	lw.out.blocks = make([]int32, outcomes)

	// Exact liveness of the source: edges only go forward, so one backward
	// sweep sees every successor's set before it is needed.
	lw.words = (isa.NumRegs + 63) / 64
	lw.live = make([]uint64, (n+2)*lw.words)
	lw.set = lw.liveIn(n + 1)
	for pc := n - 1; pc >= 0; pc-- {
		copy(lw.liveIn(pc), lw.liveIn(pc+1))
		lw.step(&code[pc], lw.liveIn(pc))
	}

	lw.known = make([]bool, isa.NumRegs)
	lw.val = make([]int64, isa.NumRegs)
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
			lw.out.blocks[int(code[pc].x)+oi] = start
		}
	}
	return lw.out
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
	clear(lw.known)
	lw.known[RegZero] = true
	lw.buf = lw.buf[:0]
	lw.define(int32(lw.m.isa.Instrs[pc].Dst), sel)
	for i := 0; i < lw.m.isa.NumParams; i++ {
		v := int64(0)
		if i < len(args) {
			v = args[i]
		}
		lw.define(int32(RegParam0+i), v)
	}
	after := lw.walk(pc + 1)

	// Dead stores go, and their retired counts roll forward.
	copy(lw.set, lw.liveIn(after))
	for i := len(lw.buf) - 1; i >= 0; i-- {
		if lw.step(&lw.buf[i], lw.set) {
			lw.buf[i].op = opDead
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

// define records regs[r] = v as known and emits the write (which retires
// nothing: it is part of the MATCH).
func (lw *lowerer) define(r int32, v int64) {
	if r == RegZero {
		return
	}
	lw.known[r], lw.val[r] = true, v
	lw.buf = append(lw.buf, lop{op: OpLoadImm, dst: r, x: v})
}

// walk specialises the source from pc on the known registers into buf, up to
// and including the next MATCH, HALT or failing instruction, and returns the
// source pc whose live-in set holds after the block's last op.
func (lw *lowerer) walk(pc int) (after int) {
	n := len(lw.m.isa.Instrs)
	pending := uint32(0) // retired by instructions that left no op
	for ; pc < n; pc++ {
		o := lw.out.code[pc]
		switch o.op {
		case OpJmp:
			pending++
			pc = int(o.x) - 1
			continue
		case OpBZ, OpBNZ:
			if lw.known[o.a] {
				pending++
				if (lw.val[o.a] == 0) == (o.op == OpBZ) {
					pc = int(o.x) - 1
				}
				continue
			}
		case OpLoadImm:
			lw.known[o.dst], lw.val[o.dst] = true, o.x
		case OpALU:
			if lw.known[o.a] && lw.known[o.b] {
				v := aluEvalW(o.aop, aluWidths[o.bits], lw.val[o.a], lw.val[o.b])
				o = lop{op: OpLoadImm, retire: 1, dst: o.dst, x: v}
				lw.known[o.dst], lw.val[o.dst] = true, v
			} else {
				lw.known[o.dst] = false
			}
		case OpLoadField, OpLoadReg:
			lw.known[o.dst] = false
		case OpDrop:
			lw.known[RegDrop], lw.val[RegDrop] = true, 1
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

// Lowered renders what ExecSlots runs after each MATCH: per table/outcome
// the specialised block, every op with the number of source instructions it
// retires. (Before the first MATCH, and after a taken data-dependent
// branch, it runs the source program as Disassemble prints it.)
func (m *ISAMachine) Lowered() string {
	var b strings.Builder
	code, blocks := m.low.code, m.low.blocks
	n := len(m.isa.Instrs)
	first := map[int32]string{} // block start -> the first outcome listed with it
	for pc := 0; pc < n; pc++ {
		if code[pc].op != OpMatch {
			continue
		}
		mt := &m.matchTables[code[pc].a]
		for oi := 0; oi <= len(mt.entries); oi++ {
			slot := int(code[pc].x) + oi
			name := mt.name + "/" + mt.outcomeName(oi)
			if shared, ok := first[blocks[slot]]; ok {
				fmt.Fprintf(&b, "%4d: %s: the block of %s\n", pc, name, shared)
				continue
			}
			first[blocks[slot]] = name
			block := m.low.block(slot)
			retired := uint32(0)
			for i := range block {
				retired += block[i].retire
			}
			fmt.Fprintf(&b, "%4d: %s: %d ops retire %d\n", pc, name, len(block), retired)
			for i := range block {
				fmt.Fprintf(&b, "        %-40s ; %d\n", m.disasm(&block[i]), block[i].retire)
			}
		}
	}
	return fmt.Sprintf("lowered on the table entries: %d source instructions, %d outcomes in %d blocks of %d ops\n%s",
		n, len(blocks), len(first), len(code)-n-1, b.String())
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

// disasm renders one lowered op in Disassemble's syntax: the op put back
// into source operand positions, slots and symbols named.
func (m *ISAMachine) disasm(o *lop) string {
	in := Instr{Op: o.op, AOp: o.aop, Bits: int(o.bits), Dst: int(o.dst), A: int(o.a), B: int(o.b), Imm: o.x, Target: int(o.x)}
	sym := ""
	switch o.op {
	case OpLoadField:
		sym = m.layout.fields[o.a]
	case OpStoreField:
		sym = m.layout.fields[o.dst]
	case OpLoadReg:
		sym = m.isa.RegArrays[o.b]
	case OpStoreReg:
		sym = m.isa.RegArrays[o.dst]
	case OpMatch:
		sym = m.isa.Tables[o.a]
	case opFail:
		return fmt.Sprintf("fail   %v", m.low.errs[o.x])
	}
	return in.format(sym)
}
