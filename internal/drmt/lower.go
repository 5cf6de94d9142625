// lower.go is the dRMT ISA's counterpart of RMT's sparse conditional
// constant propagation (§3.4, Fig. 6): a machine's table entries are as
// fixed when newISAMachine runs as RMT's machine code is at core.Build, so
// the verified, strictly feed-forward ISA program is specialised on them
// once, into a flat register program (package flat) that ExecSlots and the
// differential fuzzer run.
//
// The program's frame holds the packet's input fields, which it never
// writes, then the ISA registers, two scratch registers, an output register
// for every field some instruction stores to and the drop flag — the
// variables of the walk below, each at its home register — then the
// register banks and one constant register per value the code reads.
//
// The code is a sequence of blocks laid out in source order, so every jump
// goes forward: the entry block (the source walked from pc 0), one block per
// MATCH × distinct outcome (each entry of its table, then the default or the
// miss; outcomes that select one action with the same arguments share a
// block), the source walked from the MATCH with the action-select register
// and the parameter registers known, and one block per target of a
// data-dependent branch, the source walked from there. A MATCH is its
// table's lookup (slots.go) at the end of every block that reaches it: a
// compare-and-branch per entry, in entry order, to the entry's outcome
// block, the miss falling through or jumping to the default's. The walk
// keeps, per variable, the register its value is at and the bits of that
// register that are the value:
//
//   - a loadi, and what the MATCH bound, is a constant register; a variable
//     no path from the program's entry has written still holds its initial
//     value (a register 0, a field its input; the forward fact "written",
//     one bit per variable and pc), which is what folds the drop test
//     between tables;
//   - a loadf and a storef are renames — a store keeps the field's width as
//     the bits that count — and an add, subtract or multiply leaves its
//     width's mask to whoever reads the result, so a chain of additions is
//     masked once; a register whose value another variable's rename still
//     points at hands it over before it is overwritten;
//   - ALU instructions over constants fold, branches on constants are
//     followed, a branch on anything else is kept and jumps to the block of
//     its target, and the walk ends at the next MATCH or HALT. Where control
//     leaves the block, every variable live there that some path has written
//     is put at its home, masked, first, and where the program ends every
//     output is.
//
// A backward pass then deletes every variable write that the source
// program's exact liveness shows nothing can read, and lets a bank load
// whose only reader masks it into a variable write that variable itself.
//
// One count register holds the source instructions retired. An addition to
// it can stand only right before an instruction at which control leaves a
// block — a kept branch, its lookup, its trap or its end — and where the
// packet ends, at the end or a trap, the count is exactly the source's, so
// instruction counts, per-packet latency and the count reported with an
// execution error are those of the source program. On the way into a block
// the count may be ahead: when every block one MATCH (or one branch) leads
// to adds the same amount on its way to the next such point, the blocks
// before it add that amount for them before they leave, and the blocks add
// nothing (counts). On a chain of tables whose outcomes retire alike, every
// addition is hoisted into the entry block. This is the semantics spelled
// out by the reference interpreter in reference_test.go, which
// FuzzSlotsVsReference and TestBlocksEqualTheirSourcePath (counts per path
// from the entry) hold this file to; TestLinkedPairProved proves the
// lowered program against the table-level machine for every packet.
package drmt

import (
	"fmt"
	"slices"
	"strings"

	"druzhba/internal/flat"
)

// width is the datapath of both lowered programs: the widest field, register
// and ALU operation there is. Narrower ones are masked with flat.And.
var width = aluWidths[62]

// step is an instruction of a block before it is emitted: to is where a
// kept branch (a Jeq or Jne against the constant 0) continues, a source pc;
// a lookup is a Jmp that stands for the lookup of the MATCH at source pc A,
// which emit expands into its tests.
type step struct {
	in     flat.Instr
	retire uint32 // source instructions it stands for
	to     int32
	lookup bool
	dead   bool
}

// blockReq is a block to lower: the source pc it starts at, and for the
// block of a MATCH's outcome the MATCH and the outcomes that go to it, the
// first of which it is named after.
type blockReq struct {
	pc, match int
	outcomes  []int
}

// site is the lookup of a MATCH, which every block that reaches it emits:
// where each field is there, the lowered block each outcome goes to, and how
// many blocks reach it.
type site struct {
	loc, to []int
	blocks  int
}

// lowerer is the state of one lowering.
type lowerer struct {
	m *ISAMachine
	b *flat.Builder
	n int // source instructions

	// Variables: the ISA registers, two scratch registers, the fields some
	// instruction stores to, and the drop flag, at consecutive homes.
	varBase   int
	initial   []int   // variable -> the register it starts a packet at
	slotVar   []int   // layout slot -> its variable, -1 if nothing stores it
	fieldSlot []int   // field symbol -> layout slot, -1 for a field the packet lacks
	fieldMask []int64 // field symbol -> width mask
	cells     []int   // register-array symbol -> cell count
	bankMask  []int64 // ... and width mask; the symbol is the array's bank
	dropVar   int     // -1 when the program cannot drop
	zero      int     // the constant 0

	words   int
	live    []uint64      // live-in variable set of every source pc, and of the end
	written []uint64      // per source pc: the variables some path from pc 0 to it writes
	outputs []uint64      // the fields stored to and the drop flag
	set     []uint64      // the dead-store pass's working set
	fails   map[int]error // source pc -> what the instruction there always fails with

	loc    []int    // the walker's state: the register each variable's value is at,
	mask   []int64  // ... the bits of it that are the value,
	inHome []uint64 // ... and the constants whose home holds them too
	buf    []step

	todo    []blockReq     // the blocks to lower
	lowered []loweredBlock // ... and those lowered, in program order,
	code    []step         // ... their instructions,
	regions []countRegion  // ... and the regions of their instructions (counts)
	conts   map[int][]int  // source pc -> kept branches to its block
	lands   [][]int        // lowered outcome block -> the lookups' branches to it
	sites   map[int]*site
	same    map[string]int // an outcome -> the block of its MATCH it shares
	lookups lookups        // emits the MATCHes' lookups
	ends    []int          // jumps to the program's end
	tail    int            // the lowered blocks from here on only halt
}

// loweredBlock is a lowered block before it is emitted: where its
// instructions are in lowerer.code and its first region in lowerer.regions.
type loweredBlock struct {
	from, to int
	first    int32
}

// countRegion is a block's instructions up to one at which control can
// leave it (counts).
type countRegion struct {
	retire int32 // source instructions it retires; counts leaves the addition before it leaves here
	next   int32 // a region of the class it leads to, -1 for the end
	class  int32 // union-find parent
	ahead  int32 // for the class's root: how far the count is ahead into the class
	state  uint8 // ... once every region of it has one amount (1) and not several, or one that leads back into it (2)
}

// lowBlock is one lowered block: the source pc it starts at, the MATCH and
// first outcome it is the block of (match -1: the entry or a branch target),
// the MATCH whose lookup it ends in (-1 for none) and its instructions, the
// lookup's tests from instruction tests on.
type lowBlock struct {
	pc, match, oi int
	outcomes      int // of the MATCH, that go to it
	lookup, tests int
	start, end    int
}

func has(set []uint64, v int) bool { return set[v>>6]&(1<<(v&63)) != 0 }
func add(set []uint64, v int)      { set[v>>6] |= 1 << (v & 63) }
func del(set []uint64, v int)      { set[v>>6] &^= 1 << (v & 63) }

func union(set, other []uint64) {
	for w, bits := range other {
		set[w] |= bits
	}
}

// liveIn returns the variables live on entry to source pc.
func (lw *lowerer) liveIn(pc int) []uint64 { return lw.live[pc*lw.words : (pc+1)*lw.words] }

// writtenIn returns the variables that may have been written when control
// reaches source pc; every other one still holds its initial value there.
func (lw *lowerer) writtenIn(pc int) []uint64 {
	return lw.written[pc*lw.words : (pc+1)*lw.words]
}

// home returns the register of variable v.
func (lw *lowerer) home(v int) int { return lw.varBase + v }

// varOf returns the variable whose home register r is, -1 for none.
func (lw *lowerer) varOf(r uint32) int {
	if v := int(r) - lw.varBase; v >= 0 && v < len(lw.initial) {
		return v
	}
	return -1
}

// konst returns the constant register holding v.
func (lw *lowerer) konst(v int64) int { return lw.b.Const(v) }

// lower builds the machine's flat program.
func (lw *lowerer) lower() error {
	m, b := lw.m, lw.b
	isa := m.isa
	lw.lookups.b = b
	lw.n = len(isa.Instrs)
	e := &m.engine
	keys := 0
	for _, mt := range m.matchTables {
		keys += len(mt.keys)
	}
	nf := m.layout.NumFields()
	b.Reserve(flat.Size{
		Regs:   2*nf + isa.NumRegs + 48 + sum(lw.cells),
		Instrs: lw.n + 2*keys,
		Consts: 2*keys + 8,             // keys, masks and a few immediates
		Names:  2*nf + keys + 5,        // fields in and stored, key temporaries, count, err, s0, s1, dropped
		Runs:   1 + len(isa.RegArrays), // the ISA registers, the banks
	})
	lw.buf = make([]step, 0, 32)
	lw.code = make([]step, 0, lw.n/2+16)
	m.blocks = make([]lowBlock, 0, 2*len(m.matchTables)+2)
	lw.initial = make([]int, 0, isa.NumRegs+m.layout.NumFields()+3)
	e.out = make([]int, m.layout.NumFields())
	for slot, name := range m.layout.fields {
		e.out[slot] = b.Reg(name, 0)
	}
	m.count, m.err = b.Reg("count", 0), b.Reg("err", 0)

	// The variables and their homes.
	lw.slotVar = make([]int, len(e.out))
	for i := range lw.slotVar {
		lw.slotVar[i] = -1
	}
	lw.dropVar = -1
	lw.zero = lw.konst(0)
	lw.varBase = b.Regs("r", isa.NumRegs)
	b.Reg("s0", 0)
	b.Reg("s1", 0)
	for v := 0; v < isa.NumRegs+2; v++ {
		lw.initial = append(lw.initial, lw.zero)
	}
	fail := func(pc int, err error) {
		if lw.fails == nil {
			lw.fails = map[int]error{}
		}
		lw.fails[pc] = err
	}
	for pc, in := range isa.Instrs {
		switch in.Op {
		case OpLoadField, OpStoreField:
			slot := lw.fieldSlot[in.Sym]
			if slot < 0 {
				fail(pc, fmt.Errorf("packet lacks field %q", isa.Fields[in.Sym]))
			} else if in.Op == OpStoreField && lw.slotVar[slot] < 0 {
				lw.slotVar[slot] = len(lw.initial)
				lw.initial = append(lw.initial, e.out[slot])
				b.Reg(m.layout.fields[slot]+"'", 0)
			}
		case OpMatch:
			if err := m.matchTables[in.Sym].err; err != nil {
				fail(pc, err)
			}
		case OpDrop:
			lw.dropVar = 0
		}
	}
	for slot, v := range lw.slotVar {
		if v >= 0 {
			e.out[slot] = lw.home(v)
		}
	}
	e.dropped = lw.zero
	if lw.dropVar == 0 {
		lw.dropVar, e.canDrop = len(lw.initial), true
		lw.initial = append(lw.initial, lw.zero)
		e.dropped = b.Reg("dropped", 0)
	}
	for i, name := range isa.RegArrays {
		_, first := b.Bank(name, lw.cells[i], lw.bankMask[i])
		e.banks = append(e.banks, [2]int{first, lw.cells[i]})
	}

	lw.dataflow()
	lw.loc, lw.mask = make([]int, len(lw.initial)), make([]int64, len(lw.initial))
	lw.todo = []blockReq{{match: -1}}
	lw.lowered = make([]loweredBlock, 0, cap(m.blocks))
	lw.regions = make([]countRegion, 0, cap(m.blocks)+4)
	lw.conts, lw.sites, lw.same = map[int][]int{}, map[int]*site{}, map[string]int{}
	// Blocks are lowered in the order of the source pc they start at: every
	// jump goes to a block that starts later, so every jump goes forward.
	for len(lw.todo) > 0 {
		next := 0
		for i, req := range lw.todo {
			if req.pc < lw.todo[next].pc {
				next = i
			}
		}
		req := lw.todo[next]
		lw.todo = slices.Delete(lw.todo, next, next+1)
		lw.block(req)
	}
	lw.counts()
	// The branch targets at the end that only halt are left empty: a jump to
	// one of them, or to the end from the block before them, is a jump to
	// the next instruction.
	for lw.tail = len(lw.lowered); lw.tail > 0; lw.tail-- {
		lb := &lw.lowered[lw.tail-1]
		if lw.m.blocks[lw.tail-1].match >= 0 || lb.to-lb.from != 1 || lw.code[lb.from].in.Op != flat.Jmp || lw.code[lb.from].lookup || lw.regions[lb.first].retire != 0 {
			break
		}
	}
	lw.lands = make([][]int, len(lw.lowered))
	for i := range lw.lowered {
		lw.emit(i)
	}
	b.Land(lw.ends...)
	code, err := b.Build()
	if err != nil {
		return fmt.Errorf("drmt isa: lowering: %w", err)
	}
	e.code = code
	return nil
}

// effects calls each with every variable source instruction in writes
// (def), then with every one it reads.
func (lw *lowerer) effects(in *Instr, each func(v int, def bool)) {
	reg := func(r int) {
		if r != RegZero {
			each(r, true)
		}
	}
	use := func(vs ...int) {
		for _, v := range vs {
			if v >= 0 {
				each(v, false)
			}
		}
	}
	switch in.Op {
	case OpLoadImm:
		reg(in.Dst)
	case OpLoadField:
		if in.Dst != RegZero {
			reg(in.Dst)
			use(lw.slotVar[lw.fieldSlot[in.Sym]])
		}
	case OpStoreField:
		each(lw.slotVar[lw.fieldSlot[in.Sym]], true)
		use(in.A)
	case OpALU:
		if in.Dst != RegZero {
			reg(in.Dst)
			use(in.A, in.B)
		}
	case OpLoadReg:
		if in.Dst != RegZero {
			reg(in.Dst)
			use(in.A)
		}
	case OpStoreReg:
		use(in.A, in.B)
	case OpMatch:
		reg(in.Dst)
		for i := 0; i < lw.m.isa.NumParams; i++ {
			reg(RegParam0 + i)
		}
		for _, k := range lw.m.matchTables[in.Sym].keys {
			use(lw.slotVar[k.slot])
		}
	case OpBZ, OpBNZ:
		use(in.A)
	case OpDrop:
		each(RegDrop, true)
		each(lw.dropVar, true)
	}
}

// dataflow computes the exact liveness of the source — where the program
// ends, at a HALT or a failing instruction, every output is live — and which
// variables may have been written by each pc: edges only go forward, so one
// backward sweep sees every successor's live set before it is needed, and
// one forward sweep has every predecessor's written set in place.
func (lw *lowerer) dataflow() {
	isa, n := lw.m.isa, lw.n
	lw.words = (len(lw.initial) + 63) / 64
	sets := make([]uint64, (2*n+5)*lw.words)
	lw.live, sets = sets[:(n+1)*lw.words], sets[(n+1)*lw.words:]
	lw.written, sets = sets[:(n+1)*lw.words], sets[(n+1)*lw.words:]
	lw.outputs, lw.set, lw.inHome = sets[:lw.words], sets[lw.words:2*lw.words], sets[2*lw.words:]
	for v := isa.NumRegs + 2; v < len(lw.initial); v++ {
		add(lw.outputs, v)
	}
	copy(lw.liveIn(n), lw.outputs)
	ends := func(pc int) bool { return lw.fails[pc] != nil || isa.Instrs[pc].Op == OpHalt }
	for pc := n - 1; pc >= 0; pc-- {
		in, live := &isa.Instrs[pc], lw.liveIn(pc)
		switch {
		case ends(pc):
			copy(live, lw.outputs)
			continue
		case in.Op == OpJmp:
			copy(live, lw.liveIn(in.Target))
		case in.Op == OpBZ || in.Op == OpBNZ:
			copy(live, lw.liveIn(pc+1))
			union(live, lw.liveIn(in.Target))
		default:
			copy(live, lw.liveIn(pc+1))
		}
		lw.effects(in, func(v int, def bool) {
			if def {
				del(live, v)
			} else {
				add(live, v)
			}
		})
	}
	for pc := 0; pc < n; pc++ {
		if ends(pc) {
			continue
		}
		in := &isa.Instrs[pc]
		out := lw.set
		copy(out, lw.writtenIn(pc))
		lw.effects(in, func(v int, def bool) {
			if def {
				add(out, v)
			}
		})
		switch in.Op {
		case OpJmp:
			union(lw.writtenIn(in.Target), out)
			continue
		case OpBZ, OpBNZ:
			union(lw.writtenIn(in.Target), out)
		}
		union(lw.writtenIn(pc+1), out)
	}
}

// block lowers one block; emit appends it to the program once every block
// is lowered and counts has placed the count additions.
func (lw *lowerer) block(req blockReq) {
	after, oi := lw.n, 0
	if req.match < 0 {
		lw.begin(req.pc)
		after = lw.walk(req.pc)
	} else {
		oi = req.outcomes[0]
		after = lw.outcome(req.match, oi)
		for _, o := range req.outcomes {
			lw.sites[req.match].to[o] = len(lw.lowered)
		}
	}
	lw.finish(after)
	bl := loweredBlock{from: len(lw.code), first: int32(len(lw.regions))}
	retire := int32(0)
	for _, s := range lw.buf {
		if retire += int32(s.retire); leaves(s.in.Op) {
			lw.regions = append(lw.regions, countRegion{retire: retire, next: -1, class: int32(len(lw.regions))})
			retire = 0
		}
		if !s.dead {
			lw.code = append(lw.code, s)
		}
	}
	bl.to = len(lw.code)
	lw.lowered = append(lw.lowered, bl)
	lw.m.blocks = append(lw.m.blocks, lowBlock{pc: req.pc, match: req.match, oi: oi, outcomes: len(req.outcomes), lookup: -1})
}

// outcome walks the block that follows the MATCH at source pc match when it
// selects outcome oi, and returns the source pc whose live-in set holds at
// its end.
func (lw *lowerer) outcome(match, oi int) (after int) {
	mt := &lw.m.matchTables[lw.m.isa.Instrs[match].Sym]
	matched, sel, args, action := mt.outcome(oi)
	lw.begin(match)
	if matched && sel == 0 {
		lw.settleOutputs()
		lw.push(lw.trap(fmt.Errorf("table %q selected action %q outside its dispatch list", mt.name, action)), 0)
		return lw.n
	}
	// What the MATCH wrote, in its order, as constants the walk starts from.
	lw.rename(lw.m.isa.Instrs[match].Dst, lw.konst(sel), -1)
	for i := 0; i < lw.m.isa.NumParams; i++ {
		v := int64(0)
		if i < len(args) {
			v = args[i]
		}
		lw.rename(RegParam0+i, lw.konst(v), -1)
	}
	return lw.walk(match + 1)
}

// begin starts a block at source pc: a variable written on some path to pc
// is at its home, every other one where it starts.
func (lw *lowerer) begin(pc int) {
	lw.buf = lw.buf[:0]
	clear(lw.inHome)
	written := lw.writtenIn(pc)
	for v := range lw.loc {
		lw.loc[v], lw.mask[v] = lw.initial[v], -1
		if has(written, v) {
			lw.loc[v] = lw.home(v)
		}
	}
}

// rename records that variable v's value is now the bits of register reg
// under mask; a write to the zero register is void. A constant is kept
// exact.
func (lw *lowerer) rename(v, reg int, mask int64) {
	if v == RegZero {
		return
	}
	if c, ok := lw.b.Constant(reg); ok {
		reg, mask = lw.konst(c&mask), -1
	}
	lw.loc[v], lw.mask[v] = reg, mask
	del(lw.inHome, v)
}

// push appends an instruction to the block.
func (lw *lowerer) push(in flat.Instr, retire uint32) {
	lw.buf = append(lw.buf, step{in: in, retire: retire})
}

// op appends "dst = op x, y".
func (lw *lowerer) op(op flat.Op, dst, x, y int) {
	lw.push(flat.Instr{Op: op, A: uint32(dst), B: uint32(x), C: uint32(y)}, 0)
}

// trap returns the instruction that stops the packet with err.
func (lw *lowerer) trap(err error) flat.Instr {
	code := slices.Index(lw.m.errs, err) + 1
	if code == 0 {
		lw.m.errs = append(lw.m.errs, err)
		code = len(lw.m.errs)
	}
	return flat.Instr{Op: flat.Trap, A: uint32(lw.m.err), B: uint32(lw.zero), C: uint32(code)}
}

// read returns a register that holds variable v's value in the bits of
// need: where the value is, unless the bits the mask still has to clear
// matter, and then its home after the mask.
func (lw *lowerer) read(v int, need int64) int {
	if need&^lw.mask[v] != 0 {
		lw.settle(v)
	}
	return lw.loc[v]
}

// settle puts variable v's value, masked, at its home, unless it is there;
// a constant the walk goes on reading where it is, so it may still fold. The
// instruction retires nothing: the one it stands for has been counted.
func (lw *lowerer) settle(v int) {
	home, at, mask := lw.home(v), lw.loc[v], lw.mask[v]
	if at == home && mask == -1 || has(lw.inHome, v) {
		return
	}
	lw.clobber(v)
	if mask == -1 {
		lw.op(flat.Mov, home, at, 0)
	} else {
		lw.op(flat.And, home, at, lw.konst(mask))
	}
	if _, ok := lw.b.Constant(at); ok {
		add(lw.inHome, v)
	} else {
		lw.loc[v], lw.mask[v] = home, -1
	}
}

// clobber readies variable v's home to be written: every other variable
// whose value is there takes it along to its own.
func (lw *lowerer) clobber(v int) {
	for u, at := range lw.loc {
		if at == lw.home(v) && u != v {
			lw.settle(u)
		}
	}
}

// settleAt settles what the block of source pc reads at home: the variables
// live there that some path to it has written.
func (lw *lowerer) settleAt(pc int) {
	live, written := lw.liveIn(pc), lw.writtenIn(pc)
	for v := range lw.loc {
		if has(live, v) && has(written, v) {
			lw.settle(v)
		}
	}
}

// settleOutputs settles every output: the program ends.
func (lw *lowerer) settleOutputs() {
	for v := range lw.loc {
		if has(lw.outputs, v) {
			lw.settle(v)
		}
	}
}

// masked returns a register holding x's low bits under mask: a constant, or
// scratch register s after an And.
func (lw *lowerer) masked(x int, mask int64, s int) int {
	if c, ok := lw.b.Constant(x); ok {
		return lw.konst(c & mask)
	}
	lw.op(flat.And, s, x, lw.konst(mask))
	return s
}

// alu appends ALU instruction in, whose operands are not both constants.
// Addition, subtraction and multiplication wrap at the datapath width and
// leave the result's mask to whoever reads it; the other operations see
// their operands masked.
func (lw *lowerer) alu(in *Instr) {
	mask := aluWidths[in.Bits].Mask()
	lw.read(in.A, mask)
	lw.read(in.B, mask)
	x, y := lw.loc[in.A], lw.loc[in.B]
	d := lw.home(in.Dst)
	s0, s1 := lw.home(lw.m.isa.NumRegs), lw.home(lw.m.isa.NumRegs+1)
	switch in.AOp {
	case ALUAdd, ALUSub, ALUMul:
		lw.clobber(in.Dst)
		lw.op([...]flat.Op{ALUAdd: flat.Add, ALUSub: flat.Sub, ALUMul: flat.Mul}[in.AOp], d, x, y)
		if in.Bits == width.Bits() {
			mask = -1 // what the datapath keeps
		}
		lw.rename(in.Dst, d, mask)
		return
	case ALUAnd, ALUOr:
		lw.op(flat.Ne, s0, lw.masked(x, mask, s0), lw.zero)
		lw.op(flat.Ne, s1, lw.masked(y, mask, s1), lw.zero)
		lw.clobber(in.Dst)
		if in.AOp == ALUAnd {
			lw.op(flat.And, d, s0, s1)
		} else {
			lw.op(flat.Add, d, s0, s1)
			lw.op(flat.Ne, d, d, lw.zero)
		}
	default:
		op := [...]flat.Op{ALUDiv: flat.Div, ALUMod: flat.Mod, ALUEq: flat.Eq, ALUNeq: flat.Ne, ALULt: flat.Lt, ALULe: flat.Le}[in.AOp]
		x, y = lw.masked(x, mask, s0), lw.masked(y, mask, s1)
		lw.clobber(in.Dst)
		lw.op(op, d, x, y)
	}
	lw.rename(in.Dst, d, -1)
}

// index reads the index register of a bank access: a bank of 2^k cells
// needs its low k bits.
func (lw *lowerer) index(r, bank int) int {
	need := int64(-1)
	if n := lw.cells[bank]; n&(n-1) == 0 {
		need = int64(n - 1)
	}
	return lw.read(r, need)
}

// walk specialises the source from pc on the walker's state into the block,
// up to and including the next MATCH, HALT or failing instruction, and
// returns the source pc whose live-in set holds after the block's last
// instruction.
func (lw *lowerer) walk(pc int) (after int) {
	isa := lw.m.isa
	pending := uint32(0) // retired by instructions that left nothing
	for ; pc < lw.n; pc++ {
		in := &isa.Instrs[pc]
		if err := lw.fails[pc]; err != nil {
			lw.settleOutputs()
			lw.push(lw.trap(err), pending+1)
			return pc
		}
		emitted := len(lw.buf)
		switch in.Op {
		case OpJmp:
			pc = in.Target - 1
		case OpBZ, OpBNZ:
			if v, ok := lw.b.Constant(lw.loc[in.A]); ok {
				if (v == 0) == (in.Op == OpBZ) {
					pc = in.Target - 1
				}
				break
			}
			lw.settleAt(in.Target)
			op := flat.Jeq
			if in.Op == OpBNZ {
				op = flat.Jne
			}
			cond := lw.read(in.A, -1)
			lw.buf = append(lw.buf, step{in: flat.Instr{Op: op, B: uint32(cond), C: uint32(lw.zero)}, to: int32(in.Target)})
			if _, ok := lw.conts[in.Target]; !ok {
				lw.conts[in.Target] = nil
				lw.todo = append(lw.todo, blockReq{pc: in.Target, match: -1})
			}
		case OpLoadImm:
			lw.rename(in.Dst, lw.konst(in.Imm), -1)
		case OpLoadField:
			slot := lw.fieldSlot[in.Sym]
			if v := lw.slotVar[slot]; v >= 0 {
				lw.rename(in.Dst, lw.loc[v], lw.mask[v])
			} else {
				lw.rename(in.Dst, lw.m.engine.out[slot], -1)
			}
		case OpStoreField:
			lw.rename(lw.slotVar[lw.fieldSlot[in.Sym]], lw.loc[in.A], lw.mask[in.A]&lw.fieldMask[in.Sym])
		case OpALU:
			if in.Dst == RegZero {
				break
			}
			cx, okx := lw.b.Constant(lw.loc[in.A])
			cy, oky := lw.b.Constant(lw.loc[in.B])
			if okx && oky {
				lw.rename(in.Dst, lw.konst(aluEvalW(in.AOp, aluWidths[in.Bits], cx, cy)), -1)
				break
			}
			lw.alu(in)
		case OpLoadReg:
			if in.Dst == RegZero {
				break
			}
			idx := lw.index(in.A, in.Sym)
			lw.clobber(in.Dst)
			lw.op(flat.Load, lw.home(in.Dst), in.Sym, idx)
			lw.rename(in.Dst, lw.home(in.Dst), -1)
		case OpStoreReg:
			lw.index(in.A, in.Sym)
			lw.read(in.B, lw.bankMask[in.Sym])
			lw.op(flat.Store, in.Sym, lw.loc[in.A], lw.loc[in.B])
		case OpDrop:
			lw.rename(RegDrop, lw.konst(1), -1)
			lw.rename(lw.dropVar, lw.konst(1), -1)
		case OpMatch:
			lw.settleAt(pc)
			lw.site(pc)
			lw.buf = append(lw.buf, step{in: flat.Instr{Op: flat.Jmp, A: uint32(pc)}, lookup: true})
		case OpHalt:
			lw.settleOutputs()
			lw.push(flat.Instr{Op: flat.Jmp}, 0)
		}
		if len(lw.buf) == emitted {
			pending++
			continue
		}
		lw.buf[len(lw.buf)-1].retire += pending + 1
		pending = 0
		if in.Op == OpMatch || in.Op == OpHalt {
			return pc
		}
	}
	lw.settleOutputs()
	lw.push(flat.Instr{Op: flat.Jmp}, pending)
	return lw.n
}

// site counts a block that reaches the MATCH at source pc m and, on first
// use, makes its lookup — a field some path to m has written is at its
// home, every other one where it starts — and queues a block for each
// distinct outcome.
func (lw *lowerer) site(m int) {
	if st, ok := lw.sites[m]; ok {
		st.blocks++
		return
	}
	mt := &lw.m.matchTables[lw.m.isa.Instrs[m].Sym]
	st := &site{loc: slices.Clone(lw.m.engine.out), to: make([]int, len(mt.calls)), blocks: 1}
	for slot, v := range lw.slotVar {
		if v >= 0 && !has(lw.writtenIn(m), v) {
			st.loc[slot] = lw.initial[v]
		}
	}
	lw.sites[m] = st
	// A block is a function of what its MATCH wrote, so the entries that
	// select one action with the same arguments — most of a large table —
	// share one block. The block of the last entry the lookup tests is laid
	// out first, so that test falls into it from the site laid out last
	// before the blocks, and the miss's block last, before the next MATCH's.
	keys := make([]string, len(mt.calls))
	for oi := range keys {
		keys[oi] = outcomeKey(mt, oi)
	}
	clear(lw.same)
	queue := func(key string) {
		if _, ok := lw.same[key]; !ok {
			lw.same[key] = len(lw.todo)
			lw.todo = append(lw.todo, blockReq{pc: m + 1, match: m})
		}
	}
	miss := keys[len(keys)-1]
	for oi := len(keys) - 2; oi >= 0; oi-- {
		if keys[oi] != miss {
			queue(keys[oi])
			break
		}
	}
	for _, key := range keys {
		if key != miss {
			queue(key)
		}
	}
	queue(miss)
	for oi, key := range keys {
		i := lw.same[key]
		lw.todo[i].outcomes = append(lw.todo[i].outcomes, oi)
	}
}

// outcomeKey returns everything outcome oi's block depends on beyond its
// MATCH: hit or miss, the select, the arguments and the action.
func outcomeKey(mt *isaTable, oi int) string {
	matched, sel, args, action := mt.outcome(oi)
	return fmt.Sprint(matched, sel, args, action)
}

// finish runs the backward pass over the block: dead variable writes go,
// and a load whose only reader is the And after it that masks the cell into
// a variable no narrower than the bank writes that variable itself. after
// is the source pc whose live-in set holds at the block's end.
func (lw *lowerer) finish(after int) {
	live := lw.set
	copy(live, lw.liveIn(after))
	var and *step // the kept step after s, when it is an And that reads a variable last
	for i := len(lw.buf) - 1; i >= 0; i-- {
		s := &lw.buf[i]
		if and != nil && s.in.Op == flat.Load && s.in.A == and.in.B {
			if mask, _ := lw.b.Constant(int(and.in.C)); lw.bankMask[s.in.B]&^mask == 0 {
				s.in.A, and.dead = and.in.A, true
				del(live, lw.varOf(and.in.B))
				add(live, lw.varOf(s.in.A))
			}
		}
		_, mask := lw.b.Constant(int(s.in.C))
		v := lw.varOf(s.in.B)
		last := s.in.Op == flat.And && mask && v >= 0 && !has(live, v) && lw.varOf(s.in.A) >= 0
		if lw.step(s, live) {
			s.dead = true
			continue
		}
		if and = nil; last {
			and = s
		}
	}
}

// step moves the live set backwards across s — on entry the variables live
// after s, on return those live before it — and reports whether s is a
// variable write that nothing reads.
func (lw *lowerer) step(s *step, live []uint64) (dead bool) {
	use := func(r uint32) {
		if v := lw.varOf(r); v >= 0 {
			add(live, v)
		}
	}
	switch in := s.in; in.Op {
	case flat.Jeq, flat.Jne:
		union(live, lw.liveIn(int(s.to)))
		use(in.B)
	case flat.Store:
		use(in.B)
		use(in.C)
	case flat.Trap, flat.Jmp: // a Jmp ends the program or is a lookup
	default:
		if v := lw.varOf(in.A); v >= 0 {
			if !has(live, v) {
				return true
			}
			del(live, v)
		}
		switch in.Op {
		case flat.Load:
			use(in.C)
		case flat.Mov:
			use(in.B)
		default:
			use(in.B)
			use(in.C)
		}
	}
	return false
}

// leaves reports whether control can leave a block at an instruction of op.
func leaves(op flat.Op) bool {
	switch op {
	case flat.Jeq, flat.Jne, flat.Trap, flat.Jmp:
		return true
	}
	return false
}

// counts places the count additions: where control can leave a block, the
// count has to hold the source instructions retired on the path so far —
// exactly where the packet ends, at the jump to the end or a trap, and
// ahead by one amount on every path into a block. A block whose
// predecessors all add, before they leave, what every one of its
// neighbours — the blocks a lookup or a branch leads to along with it — would
// add on its way to the next such point has its additions hoisted into
// theirs, and adds nothing itself; the entry block, which nothing precedes,
// is never ahead. It leaves in each region's retire the addition before the
// instruction at which control leaves it.
func (lw *lowerer) counts() {
	regions, blocks := lw.regions, lw.m.blocks
	find := func(r int32) int32 {
		for regions[r].class != r {
			r, regions[r].class = regions[r].class, regions[regions[r].class].class
		}
		return r
	}
	// first returns the first region of the block that starts at source pc,
	// the branch target (match -1) or one of the MATCH's outcome blocks:
	// blocks are in the order of their pc.
	first := func(pc, match int) int32 {
		i, _ := slices.BinarySearchFunc(blocks, pc, func(b lowBlock, pc int) int { return b.pc - pc })
		for blocks[i].match != match {
			i++
		}
		return lw.lowered[i].first
	}
	// The regions one lookup or branch leads to are a class.
	for i, bl := range lw.lowered {
		if m := blocks[i].match; m >= 0 {
			regions[bl.first].class = find(first(m+1, m))
		}
	}
	r := int32(0)
	for _, s := range lw.code {
		switch {
		case s.lookup:
			regions[r].next = first(int(s.in.A)+1, int(s.in.A))
		case s.in.Op == flat.Jeq || s.in.Op == flat.Jne:
			regions[r].next = r + 1
			regions[find(first(int(s.to), -1))].class = find(r + 1)
		}
		if leaves(s.in.Op) {
			r++
		}
	}
	// A region leads only to regions after it, so taken from the last, every
	// region of the class it leads to has been taken.
	ahead := func(c int32) int32 {
		if c < 0 || regions[find(c)].state != 1 || find(c) == find(0) {
			return 0
		}
		return regions[find(c)].ahead
	}
	for r := int32(len(regions)) - 1; r >= 0; r-- {
		c, next := &regions[find(r)], regions[r].next
		a := regions[r].retire + ahead(next)
		switch {
		case next >= 0 && find(next) == find(r):
			c.state = 2
		case c.state == 0:
			c.ahead, c.state = a, 1
		case c.ahead != a:
			c.state = 2
		}
	}
	for r := range regions {
		regions[r].retire += ahead(regions[r].next) - ahead(int32(r))
	}
}

// emit appends block i to the program, the count additions counts placed
// before the instructions at which control can leave it. A lookup falls
// into block i+1 where it can, but one that tests nothing and is not its
// MATCH's only site jumps there: the first instruction every packet of a
// lookup runs is its own, for the lookup counts (matchCounts).
func (lw *lowerer) emit(i int) {
	b, e, bl, lb := lw.b, &lw.m.engine, &lw.m.blocks[i], &lw.lowered[i]
	bl.start = b.Len()
	if bl.match < 0 {
		b.Land(lw.conts[bl.pc]...)
	} else {
		b.Land(lw.lands[i]...)
	}
	r := lb.first
	for _, s := range lw.code[lb.from:lb.to] {
		in := s.in
		if leaves(in.Op) {
			if add := lw.regions[r].retire; add != 0 {
				b.Op(flat.Add, lw.m.count, lw.m.count, lw.konst(int64(add)))
			}
			r++
		}
		if s.lookup {
			st, table := lw.sites[int(in.A)], lw.m.isa.Instrs[in.A].Sym
			next, miss := i+1, st.to[len(st.to)-1]
			if st.blocks > 1 && !slices.ContainsFunc(st.to, func(t int) bool { return t != miss }) {
				next = -1
			}
			bl.lookup, bl.tests = int(in.A), b.Len()
			e.matches = append(e.matches, match{instr: b.Len(), table: table})
			for _, j := range lw.lookups.emit(lw.m.matchTables[table].keys, st.loc, st.to, next) {
				lw.lands[j.target] = append(lw.lands[j.target], j.instr)
			}
			continue
		}
		switch in.Op {
		case flat.Jeq, flat.Jne:
			lw.conts[int(s.to)] = append(lw.conts[int(s.to)], b.Branch(in.Op, int(in.B), int(in.C)))
		case flat.Jmp:
			if i < lw.tail-1 {
				lw.ends = append(lw.ends, b.Jump())
			}
		case flat.Load:
			b.Load(int(in.A), int(in.B), int(in.C))
		case flat.Store:
			b.Store(int(in.A), int(in.B), int(in.C))
		default:
			b.Op(in.Op, int(in.A), int(in.B), int(in.C))
		}
	}
	bl.end = b.Len()
}

// Lowered renders what ExecSlots runs: a line per block — the source pc it
// starts at, what it is the block of, its instructions — then the flat
// program, frame registers by name: the input fields (eth.dstMac), the
// output fields (eth.dstMac'), the ISA registers (r7), the banks and the
// constants (#-1).
func (m *ISAMachine) Lowered() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lowered on the table entries: %d source instructions, %d blocks, %d instructions\n", len(m.isa.Instrs), len(m.blocks), m.code.Len())
	for _, bl := range m.blocks {
		name := "branch target"
		switch {
		case bl.match >= 0:
			mt := &m.matchTables[m.isa.Instrs[bl.match].Sym]
			name = mt.name + "/" + mt.outcomeName(bl.oi)
			if bl.outcomes > 1 {
				name += fmt.Sprintf(" and %d more outcomes", bl.outcomes-1)
			}
		case bl.pc == 0:
			name = "entry"
		}
		fmt.Fprintf(&b, "%4d: %s: %d-%d\n", bl.pc, name, bl.start, bl.end-1)
	}
	return b.String() + m.code.String()
}

// sum adds up the counts.
func sum(counts []int) (n int) {
	for _, c := range counts {
		n += c
	}
	return n
}
