// slots.go holds what both dRMT execution models share once they are flat
// programs. At build time every field, register-array and table name is
// interned into a dense integer slot in one SlotLayout shared by the
// table-level Machine and the ISA-level ISAMachine, so a packet is a []int64
// slot vector, and each machine is lowered to one flat register program
// (package flat) over a frame that holds the packet's fields, the register
// banks and everything else the program computes with: the ISA program by
// lower.go, the table-level machine here. flat.Program.Run is the one
// interpreter, engine.stream the one packet loop both machines' RunStream
// share, and the differential fuzzer links the two programs into one.
//
// The table-level machine lowers to one lookup per table in control order —
// a test per entry, in entry order, the first hit going to its action's
// block and a packet no entry hits to the default's (lookups.emit) — and
// one block per distinct bound action: entry and default action arguments
// are literals, so every parameter operand is a constant register and
// nothing is bound at run time. Like the ISA program, it reads the packet
// from input registers it never writes and keeps a field some table writes
// in an output register of its own, so the fuzzer's link reads the ISA
// side's input registers in place. (The name-resolving interpreters these
// programs replaced are the test oracle in reference_test.go.)
package drmt

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"druzhba/internal/flat"
	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// SlotLayout interns a program's names into dense slots: fields in sorted
// order (the order of p4.Program.FieldNames, which is also the ISA
// assembler's field symbol order), register arrays in declaration order
// (the assembler's array symbol order), and tables in control order. Both
// dRMT execution models are built over one layout, which is what makes
// slot-vector packets directly comparable between them.
type SlotLayout struct {
	fields   []string
	fieldIdx map[string]int
	fieldW   []phv.Width

	regs     []string
	regIdx   map[string]int
	regW     []phv.Width
	regCount []int

	tables   []string
	tableIdx map[string]int
}

// NewSlotLayout builds the layout for a program.
func NewSlotLayout(prog *p4.Program) (*SlotLayout, error) {
	l := &SlotLayout{
		fieldIdx: map[string]int{},
		regIdx:   map[string]int{},
		tableIdx: map[string]int{},
	}
	for _, f := range prog.FieldNames() {
		bits, err := prog.FieldBits(f)
		if err != nil {
			return nil, err
		}
		w, err := phv.NewWidth(bits)
		if err != nil {
			return nil, fmt.Errorf("drmt: field %s: %w", f, err)
		}
		l.fieldIdx[f] = len(l.fields)
		l.fields = append(l.fields, f)
		l.fieldW = append(l.fieldW, w)
	}
	for _, r := range prog.Registers {
		w, err := phv.NewWidth(r.Bits)
		if err != nil {
			// The table-level interpreter's historical fallback for invalid
			// register widths; the parser rejects them, so this is defensive.
			w = phv.Default32
		}
		l.regIdx[r.Name] = len(l.regs)
		l.regs = append(l.regs, r.Name)
		l.regW = append(l.regW, w)
		l.regCount = append(l.regCount, r.Count)
	}
	for _, name := range prog.Control {
		if _, ok := l.tableIdx[name]; ok {
			continue
		}
		l.tableIdx[name] = len(l.tables)
		l.tables = append(l.tables, name)
	}
	return l, nil
}

// NumFields returns the packet slot-vector length.
func (l *SlotLayout) NumFields() int { return len(l.fields) }

// FormatSlots renders a slot-vector packet canonically — fields sorted by
// name (slot order is sorted order), the drop flag when set — for Diff
// records and campaign counterexamples.
func (l *SlotLayout) FormatSlots(vals []int64, dropped bool) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range l.fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(vals[i], 10))
	}
	if dropped {
		b.WriteString(" dropped")
	}
	b.WriteByte('}')
	return b.String()
}

// engine is one machine lowered to a flat program, and the frame it runs
// on (none when the machine is one side of a DiffFuzzer, which runs the
// linked program on a frame of its own): the packet's fields in layout
// order from register in, which the program never writes, where each
// field's value is at the end (out: the input register of a field the
// program never writes, an output register of its own for the others), the
// drop flag, the register banks, and the lookups with the table each
// consults.
type engine struct {
	code    *flat.Program
	frame   []int64
	in      int
	out     []int
	dropped int
	canDrop bool     // false: dropped is a constant 0
	banks   [][2]int // bank -> first register, cells
	matches []match

	// The counting clone of code and its first counter register, made by the
	// first run that needs statistics (counted); the frame grows to hold it.
	counting *flat.Program
	counters int
}

// match is a lookup of a lowered program — the instruction every packet that
// takes it runs first and no other packet runs — and the table it consults
// (a layout table slot, or an ISA table symbol).
type match struct{ instr, table int }

// exec runs p — the code or its counting clone — on one slot-vector packet
// in place and reports whether it was dropped.
func (e *engine) exec(p *flat.Program, pkt []int64) (dropped bool) {
	f := e.frame
	in := f[e.in : e.in+len(pkt)]
	for i, v := range pkt { // a loop: memmove's call costs more than a handful of words
		in[i] = v
	}
	p.Run(f)
	for i, r := range e.out {
		pkt[i] = f[r]
	}
	return f[e.dropped] != 0
}

// stream is the packet loop of both machines' RunStream. It draws n packets
// of seeded traffic from prog's fields into one reused slot vector, runs
// each through the counting clone of the code with step, which returns the
// packet's latency and drop flag, and records it in stats. It returns how
// often the lookups matched, the run's crossbar accesses of tables, and the
// latencies' sum. A step error stops the stream and names the packet.
func (e *engine) stream(prog *p4.Program, seed int64, n int, max int64, stats *Stats, tables []string, step func(p *flat.Program, pkt []int64) (latency int, dropped bool, err error)) (matches, latencies int64, err error) {
	gen, err := NewTrafficGen(seed, prog, max)
	if err != nil {
		return 0, 0, err
	}
	p := e.counted()
	buf := make([]int64, gen.NumFields())
	for i := 0; i < n; i++ {
		id := gen.Fill(buf)
		latency, dropped, err := step(p, buf)
		if err != nil {
			return 0, 0, fmt.Errorf("packet %d: %w", id, err)
		}
		stats.record(i, latency, dropped)
		latencies += int64(latency)
	}
	return stats.finish(tables, e.matchCounts(len(tables))), latencies, nil
}

// clone returns the engine with a private frame.
func (e *engine) clone() engine {
	c := *e
	c.frame = slices.Clone(e.frame)
	return c
}

// bank returns the cells of bank i in the frame.
func (e *engine) bank(i int) []int64 {
	return e.frame[e.banks[i][0] : e.banks[i][0]+e.banks[i][1]]
}

// resetState zeroes every register bank.
func (e *engine) resetState() {
	for i := range e.banks {
		clear(e.bank(i))
	}
}

// counted returns the counting clone of the code with its counters zeroed.
func (e *engine) counted() *flat.Program {
	if e.counting == nil {
		e.counting, e.counters = e.code.Counting()
		f := e.counting.NewFrame()
		copy(f, e.frame)
		e.frame = f
	}
	clear(e.frame[e.counters : e.counters+e.code.Len()])
	return e.counting
}

// matchCounts returns, per table, how often the counting clone's runs since
// counted consulted it.
func (e *engine) matchCounts(tables int) []int {
	counts := make([]int, tables)
	for _, mt := range e.matches {
		counts[mt.table] += int(e.frame[e.counters+mt.instr])
	}
	return counts
}

// lowerTables lowers the table-level machine — the program's control
// sequence applied to its table entries — to a flat program: per table a
// lookup over its entries (tableOutcomes), then one block per distinct
// action call, its arguments constant registers. The first matching entry
// wins, and a drop finishes its action, then skips every later table.
//
// The frame starts with the packet's fields in layout order (in), which the
// program only reads, and holds an output register for every field some
// table can write. A field is read from its input register until a table
// writes it to its output register; where paths join — at the next table,
// or at the end — a field some path to there has written is in its output
// register on every path, so a path that has not written it moves it there
// first. A program linked after another therefore reads the packet in place
// (flat.Link binds every field without a copy). The parser and entry
// validation have already checked every cross-reference, so a failure here
// means a hand-built Program that bypassed them.
func lowerTables(prog *p4.Program, entries *EntrySet, layout *SlotLayout) (engine, error) {
	b := flat.NewBuilder(width)
	n := layout.NumFields()
	b.Reserve(flat.Size{
		Regs:   2*n + 8 + sum(layout.regCount),
		Instrs: 8*len(prog.Control) + entries.Len(),
		Consts: 2*entries.Len() + 8,         // keys, masks and a few values
		Names:  2*n + len(prog.Control) + 2, // fields in and out, key temporaries, t, dropped
		Runs:   len(layout.regs),            // the banks
	})
	e := engine{out: make([]int, n)}
	for slot, name := range layout.fields {
		e.out[slot] = b.Reg(name, 0) // the input registers, from e.in = 0
	}
	tl := &tableLowerer{prog: prog, entries: entries, layout: layout, b: b, e: &e, written: tablesWrite(prog, entries, layout), loc: make([]int, n), lookups: lookups{b: b}}
	for slot, name := range layout.fields {
		if tl.written[len(prog.Control)][slot] {
			e.out[slot] = b.Reg(name+"'", 0)
		}
	}
	tl.t, tl.dropped = b.Reg("t", 0), b.Reg("dropped", 0)
	for i, name := range layout.regs {
		_, first := b.Bank(name, max(layout.regCount[i], 1), layout.regW[i].Mask())
		e.banks = append(e.banks, [2]int{first, layout.regCount[i]})
	}
	for k, name := range prog.Control {
		t := prog.Table(name)
		if t == nil {
			return e, fmt.Errorf("drmt: control applies unknown table %q", name)
		}
		if err := tl.table(t, k); err != nil {
			return e, err
		}
	}
	e.dropped = b.Const(0)
	if e.canDrop {
		e.dropped = tl.dropped
		b.Op(flat.Mov, tl.dropped, b.Const(0), 0) // a packet that gets here is not dropped
	}
	if n := len(e.matches); n > 0 && e.matches[n-1].instr == b.Len() {
		b.Land(b.Jump()) // the last lookup tests nothing: its count needs an instruction
	}
	b.Land(tl.ends...)
	code, err := b.Build()
	if err != nil {
		return e, fmt.Errorf("drmt: lowering: %w", err)
	}
	e.code = code
	return e, nil
}

// tablesWrite returns, for every application of the control sequence and
// for its end, the fields some table applied before it can write: what an
// action an entry or the default of the table selects writes.
func tablesWrite(prog *p4.Program, entries *EntrySet, layout *SlotLayout) [][]bool {
	n := layout.NumFields()
	written := make([][]bool, len(prog.Control)+1)
	all := make([]bool, len(written)*n)
	for k := range written {
		written[k] = all[k*n : (k+1)*n]
	}
	writes := func(k int, call *p4.ActionCall) {
		if act := prog.Action(call.Name); act != nil {
			for _, pr := range act.Prims {
				switch pr.Op {
				case p4.PrimModifyField, p4.PrimAddToField, p4.PrimRegRead:
					if slot, ok := layout.fieldIdx[pr.Field]; ok {
						written[k+1][slot] = true
					}
				}
			}
		}
	}
	for k, name := range prog.Control {
		copy(written[k+1], written[k])
		t := prog.Table(name)
		if t == nil {
			continue
		}
		es := entries.ForTable(name)
		for i := range es {
			if _, ok := layout.fieldIdx[es[i].Field]; ok {
				writes(k, &es[i].Action)
			}
		}
		if t.Default != nil {
			writes(k, t.Default)
		}
	}
	return written
}

// tableLowerer is the state of the table-level machine's lowering.
type tableLowerer struct {
	prog       *p4.Program
	entries    *EntrySet
	layout     *SlotLayout
	b          *flat.Builder
	e          *engine
	t, dropped int      // the scratch register and the drop flag
	ends       []int    // jumps to the end: the drops
	written    [][]bool // tablesWrite
	loc        []int    // layout slot -> the register its value is at
	lookups    lookups  // emits the tables' lookups
}

// enter starts a path at the k-th application: a field some table before
// it can write is in its output register, every other one in its input.
func (tl *tableLowerer) enter(k int) {
	for slot := range tl.loc {
		tl.loc[slot] = tl.e.in + slot
		if tl.written[k][slot] {
			tl.loc[slot] = tl.e.out[slot]
		}
	}
}

// settle moves every field that some path to the k-th application (or to
// the end) can have written, and this path has not, to its output register.
func (tl *tableLowerer) settle(k int) {
	for slot, r := range tl.loc {
		if tl.written[k][slot] && r != tl.e.out[slot] {
			tl.b.Move(tl.e.out[slot], r)
			tl.loc[slot] = tl.e.out[slot]
		}
	}
}

// table emits the k-th table application: its lookup, then a block per
// distinct action call its entries and default select, and the moves into
// output registers of the packets that go on to the next table without one.
// A call without effect needs no block; nor does the miss.
func (tl *tableLowerer) table(t *p4.Table, k int) error {
	b := tl.b
	tl.enter(k)
	keys, calls := tableOutcomes(t, tl.entries, tl.layout)
	fail := func(i int, err error) error {
		if i == len(calls)-1 && t.Default != nil {
			return fmt.Errorf("drmt: table %q default: %w", t.Name, err)
		}
		return fmt.Errorf("drmt: table %q: %w", t.Name, err)
	}
	var blocks []*p4.ActionCall   // each distinct call with an effect
	to := make([]int, len(calls)) // entry or default -> its block, len(blocks) for none
	through := false              // whether some entry or the default goes on without a block
	for i, call := range calls {
		to[i] = -1
		if j := slices.IndexFunc(calls[:i], func(c *p4.ActionCall) bool {
			return c != nil && call != nil && c.Name == call.Name && slices.Equal(c.Args, call.Args)
		}); j >= 0 {
			to[i] = to[j]
		} else if call != nil {
			act := tl.prog.Action(call.Name)
			switch {
			case act == nil:
				return fail(i, fmt.Errorf("unknown action %q", call.Name))
			case len(call.Args) != len(act.Params):
				return fail(i, fmt.Errorf("action %q takes %d args, got %d", call.Name, len(act.Params), len(call.Args)))
			case slices.ContainsFunc(act.Prims, func(pr p4.Primitive) bool { return pr.Op != p4.PrimNoOp }):
				to[i] = len(blocks)
				blocks = append(blocks, call)
			}
		}
		through = through || to[i] < 0
	}
	for i := range to {
		if to[i] < 0 {
			to[i] = len(blocks)
		}
	}
	// The blocks in layout order: the last tested entry's first, so that
	// test falls into it, and the miss's last, so it falls into the next
	// table, which follows the tests when there is no block.
	var order []int
	miss := to[len(keys)]
	for i := len(keys) - 1; i >= 0; i-- {
		if to[i] != miss {
			order = append(order, to[i])
			break
		}
	}
	for i := range blocks {
		if !slices.Contains(order, i) && i != miss {
			order = append(order, i)
		}
	}
	order = slices.DeleteFunc(append(order, miss), func(i int) bool { return i == len(blocks) })
	first := len(blocks)
	if len(order) > 0 {
		first = order[0]
	}
	tl.e.matches = append(tl.e.matches, match{b.Len(), tl.layout.tableIdx[t.Name]})
	jumps := tl.lookups.emit(keys, tl.loc, to, first)
	land := func(target int) {
		for _, j := range jumps {
			if j.target == target {
				b.Land(j.instr)
			}
		}
	}
	// The packets without a block need moves when the table writes a field
	// no table before it can.
	moves := through && !slices.Equal(tl.written[k], tl.written[k+1])
	var done []int // jumps to the next table
	for n, i := range order {
		land(i)
		tl.enter(k)
		drops, err := tl.action(blocks[i])
		switch {
		case err != nil:
			return fail(slices.Index(to, i), err)
		case drops:
			tl.e.canDrop = true
			tl.settle(len(tl.written) - 1)
			tl.ends = append(tl.ends, b.Jump())
		default:
			tl.settle(k + 1)
			if n < len(order)-1 || moves { // the last block falls through
				done = append(done, b.Jump())
			}
		}
	}
	land(len(blocks))
	if moves {
		tl.enter(k)
		tl.settle(k + 1)
	}
	b.Land(done...)
	return nil
}

// action emits the primitives of an action call and reports whether it
// drops. A run of add_to_field on one field is masked to its width once,
// where the run ends: the additions wrap at the datapath width, which the
// field's width divides.
func (tl *tableLowerer) action(call *p4.ActionCall) (drops bool, err error) {
	b, l, out, loc := tl.b, tl.layout, tl.e.out, tl.loc
	act := tl.prog.Action(call.Name)
	unmasked := -1 // the field whose run of additions awaits its mask
	mask := func() {
		if unmasked >= 0 {
			b.Op(flat.And, out[unmasked], out[unmasked], b.Const(l.fieldW[unmasked].Mask()))
			unmasked = -1
		}
	}
	val := func(o p4.Operand) (int, error) {
		switch o.Kind {
		case p4.OpLiteral:
			return b.Const(o.Value), nil
		case p4.OpField:
			slot, ok := l.fieldIdx[o.Name]
			if !ok {
				return 0, fmt.Errorf("packet lacks field %q", o.Name)
			}
			if slot == unmasked {
				mask()
			}
			return loc[slot], nil
		case p4.OpParam:
			if i := slices.Index(act.Params, o.Name); i >= 0 {
				return b.Const(call.Args[i]), nil
			}
			return b.Const(0), nil // unknown parameters read as 0, as in the reference
		}
		return 0, fmt.Errorf("bad operand kind %d", o.Kind)
	}
	field := func(name string) (int, error) {
		slot, ok := l.fieldIdx[name]
		if !ok {
			return 0, fmt.Errorf("action %q targets unknown field %q", call.Name, name)
		}
		return slot, nil
	}
	bank := func(name string) (int, error) {
		r, ok := l.regIdx[name]
		switch {
		case !ok:
			return 0, fmt.Errorf("unknown register %q", name)
		case l.regCount[r] == 0:
			// The parser rejects instance_count < 1; a hand-built Program can
			// still carry an empty bank, which the reference reports per
			// packet. It is refused here, up front.
			return 0, fmt.Errorf("register %q has no cells", name)
		}
		return r, nil
	}
	for _, pr := range act.Prims {
		var f, r, x, y int
		switch pr.Op {
		case p4.PrimModifyField, p4.PrimAddToField:
			if f, err = field(pr.Field); err == nil {
				x, err = val(pr.Args[0])
			}
		case p4.PrimRegWrite, p4.PrimRegAdd:
			if r, err = bank(pr.Reg); err == nil {
				if x, err = val(pr.Args[0]); err == nil {
					y, err = val(pr.Args[1])
				}
			}
		case p4.PrimRegRead:
			if r, err = bank(pr.Reg); err == nil {
				if f, err = field(pr.Field); err == nil {
					x, err = val(pr.Args[0])
				}
			}
		case p4.PrimDrop, p4.PrimNoOp:
		default:
			err = fmt.Errorf("unknown primitive %v", pr.Op)
		}
		if err != nil {
			return false, err
		}
		if f == unmasked && (pr.Op == p4.PrimModifyField || pr.Op == p4.PrimRegRead) {
			unmasked = -1 // written over: the sum needs no mask
		}
		switch pr.Op {
		case p4.PrimModifyField:
			b.Op(flat.And, out[f], x, b.Const(l.fieldW[f].Mask()))
		case p4.PrimAddToField:
			if f != unmasked {
				mask()
			}
			b.Op(flat.Add, out[f], loc[f], x)
			unmasked = f
		case p4.PrimRegWrite:
			b.Store(r, x, y)
		case p4.PrimRegAdd:
			b.Load(tl.t, r, x)
			b.Op(flat.Add, tl.t, tl.t, y)
			b.Store(r, x, tl.t)
		case p4.PrimRegRead:
			if l.regW[r].Mask()&^l.fieldW[f].Mask() == 0 {
				b.Load(out[f], r, x)
			} else {
				b.Load(tl.t, r, x)
				b.Op(flat.And, out[f], tl.t, b.Const(l.fieldW[f].Mask()))
			}
		case p4.PrimDrop:
			b.Op(flat.Mov, tl.dropped, b.Const(1), 0)
			drops = true
		}
		if pr.Op == p4.PrimModifyField || pr.Op == p4.PrimAddToField || pr.Op == p4.PrimRegRead {
			loc[f] = out[f]
		}
	}
	mask()
	return drops, nil
}

// entryKey is a table entry's test: a packet hits it when its field in
// layout slot slot, under mask, equals key (pre-masked; mask -1: exact).
type entryKey struct {
	slot      int
	mask, key int64
}

// tableOutcomes resolves a table's entries on program fields into their
// keys, and returns the action call each entry selects followed by the
// table's default (nil: the miss), which a packet no entry hits selects.
func tableOutcomes(t *p4.Table, entries *EntrySet, layout *SlotLayout) ([]entryKey, []*p4.ActionCall) {
	var keys []entryKey
	var calls []*p4.ActionCall
	for _, e := range entries.ForTable(t.Name) {
		slot, ok := layout.fieldIdx[e.Field]
		if !ok {
			continue // a non-program field never matches a slot packet
		}
		k := entryKey{slot: slot, mask: -1, key: e.Key}
		if e.Kind == p4.MatchTernary {
			k.mask, k.key = e.Mask, e.Key&e.Mask
		}
		keys, calls = append(keys, k), append(calls, &e.Action)
	}
	return keys, append(calls, t.Default)
}

// lookups appends table lookups to a program, keeping the registers masked
// keys are tested in (made as needed) and the scratch of the last lookup.
type lookups struct {
	b      *flat.Builder
	temps  []int
	masked []entryKey // the masks in the temps in the last lookup, key unused
	jumps  []jump
}

// jump is a branch of a lookup, to be landed where its target starts.
type jump struct{ target, instr int }

// emit appends the tests of a table lookup over keys, with the field of slot
// s at register loc[s], and returns its jumps: a packet goes to target to[i]
// for the first entry i whose key it hits, and to to[len(keys)] when it hits
// none. An entry's test is a branch against its key's constant register, on
// the field itself for an exact key and after one And per distinct mask for
// a masked one; the entries after which every packet goes where a miss goes
// are not tested. Target next (-1: none) starts right after the tests, so
// the last test branches away from it when it is that test's target and the
// miss falls into it when it is the miss's. The jumps are valid until the
// next lookup.
func (lk *lookups) emit(keys []entryKey, loc []int, to []int, next int) []jump {
	b := lk.b
	lk.masked, lk.jumps = lk.masked[:0], lk.jumps[:0]
	miss := to[len(keys)]
	n := len(keys)
	for n > 0 && to[n-1] == miss {
		n--
	}
	for i, k := range keys[:n] {
		x := loc[k.slot]
		if k.mask != -1 {
			t := slices.Index(lk.masked, entryKey{slot: k.slot, mask: k.mask})
			if t < 0 {
				t = len(lk.masked)
				lk.masked = append(lk.masked, entryKey{slot: k.slot, mask: k.mask})
				if t == len(lk.temps) {
					lk.temps = append(lk.temps, b.Reg(fmt.Sprintf("key%d", t), 0))
				}
				b.Op(flat.And, lk.temps[t], x, b.Const(k.mask))
			}
			x = lk.temps[t]
		}
		op, target := flat.Jeq, to[i]
		if i == n-1 && target == next {
			op, target = flat.Jne, miss
		}
		lk.jumps = append(lk.jumps, jump{target, b.Branch(op, x, b.Const(k.key))})
	}
	if miss != next && (n == 0 || to[n-1] != next) {
		lk.jumps = append(lk.jumps, jump{miss, b.Jump()})
	}
	return lk.jumps
}
