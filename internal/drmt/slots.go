// slots.go is the dRMT analogue of package sim's streaming rewrite: the
// allocation-free engines both dRMT execution models run on. At build time
// every field, register-array and table name is interned into a dense
// integer slot in one SlotLayout shared by the table-level Machine and the
// ISA-level ISAMachine, so a packet is a reused []int64 slot vector, a
// register bank is a [][]int64 indexed by symbol, and the differential
// fuzzer compares the two models index-to-index instead of map-to-map.
//
// The table-level machine is additionally slot-compiled: entry keys, action
// bodies and action-data parameters are resolved against the layout once,
// at NewMachine time — entry and default action arguments are literals, so
// every parameter operand constant-folds and no per-apply parameter binding
// is left at run time. (The name-resolving interpreters these engines
// replaced are the test oracle in reference_test.go.)
package drmt

import (
	"fmt"
	"strconv"
	"strings"

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

// Fields returns the interned field names in slot order (sorted).
func (l *SlotLayout) Fields() []string { return append([]string(nil), l.fields...) }

// newRegBanks allocates zeroed register banks matching the layout.
func (l *SlotLayout) newRegBanks() [][]int64 {
	banks := make([][]int64, len(l.regs))
	for i, n := range l.regCount {
		banks[i] = make([]int64, n)
	}
	return banks
}

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

// PacketToSlots copies a map packet's fields into a layout-ordered slot
// vector. Every program field must be present: a slot vector has no way to
// say "absent", so a packet lacking one is an error rather than a 0.
func (l *SlotLayout) PacketToSlots(p *Packet, dst []int64) error {
	for i, f := range l.fields {
		v, ok := p.Fields[f]
		if !ok {
			return fmt.Errorf("packet lacks field %q", f)
		}
		dst[i] = v
	}
	return nil
}

// SlotsToPacket copies a slot vector back into a map packet.
func (l *SlotLayout) SlotsToPacket(vals []int64, dropped bool, p *Packet) {
	if p.Fields == nil {
		p.Fields = make(map[string]int64, len(l.fields))
	}
	for i, f := range l.fields {
		p.Fields[f] = vals[i]
	}
	p.Dropped = dropped
}

// slotsEqual compares two slot vectors of equal length.
func slotsEqual(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Slot-compiled table-level machine ---------------------------------------

// compiledOperand is an action operand after slot compilation: a field slot
// to read, or a constant (literals, and action parameters folded against
// the entry's bound arguments).
type compiledOperand struct {
	slot int // field slot when >= 0
	lit  int64
}

func (o compiledOperand) eval(pkt []int64) int64 {
	if o.slot >= 0 {
		return pkt[o.slot]
	}
	return o.lit
}

// compiledPrim is one action primitive with every name resolved to a slot
// and every width resolved to a phv.Width.
type compiledPrim struct {
	op    p4.PrimOp
	field int             // destination field slot
	fw    phv.Width       // destination field width
	reg   int             // register bank slot
	rw    phv.Width       // register cell width
	idx   compiledOperand // register index operand
	val   compiledOperand // value operand
}

// compiledAction is an action body with one entry's (or default's)
// arguments bound.
type compiledAction struct {
	prims []compiledPrim
}

// compiledEntry is one table entry with its key pre-masked and its action
// body compiled.
type compiledEntry struct {
	field   int
	ternary bool
	key     int64 // pre-masked for ternary entries
	mask    int64
	act     compiledAction
}

func (e *compiledEntry) matches(v int64) bool {
	if e.ternary {
		return v&e.mask == e.key
	}
	return v == e.key
}

// compiledTable is one control-order table application.
type compiledTable struct {
	slot    int // layout table symbol, indexes Machine.matchCount
	entries []compiledEntry
	def     *compiledAction // nil = miss with no default is a no-op
}

// compileMachine lowers the program's control sequence plus its table
// entries onto the layout. The parser and entry validation have already
// checked every cross-reference, so failures here mean a hand-built
// Program that bypassed them.
func compileMachine(prog *p4.Program, entries *EntrySet, layout *SlotLayout) ([]compiledTable, error) {
	var out []compiledTable
	for _, name := range prog.Control {
		t := prog.Table(name)
		if t == nil {
			return nil, fmt.Errorf("drmt: control applies unknown table %q", name)
		}
		ct := compiledTable{slot: layout.tableIdx[name]}
		for _, e := range entries.ForTable(name) {
			fs, ok := layout.fieldIdx[e.Field]
			if !ok {
				// The reference skips entries whose field the packet lacks; a
				// non-program field can never match, so drop it here.
				continue
			}
			act, err := compileAction(prog, layout, e.Action)
			if err != nil {
				return nil, fmt.Errorf("drmt: table %q: %w", name, err)
			}
			ce := compiledEntry{
				field:   fs,
				ternary: e.Kind == p4.MatchTernary,
				key:     e.Key,
				mask:    e.Mask,
				act:     act,
			}
			if ce.ternary {
				ce.key = e.Key & e.Mask
			}
			ct.entries = append(ct.entries, ce)
		}
		if t.Default != nil {
			act, err := compileAction(prog, layout, *t.Default)
			if err != nil {
				return nil, fmt.Errorf("drmt: table %q default: %w", name, err)
			}
			ct.def = &act
		}
		out = append(out, ct)
	}
	return out, nil
}

// compileAction binds one action call's literal arguments into its body and
// resolves every name to a slot. Parameter operands fold to constants.
func compileAction(prog *p4.Program, layout *SlotLayout, call p4.ActionCall) (compiledAction, error) {
	act := prog.Action(call.Name)
	if act == nil {
		return compiledAction{}, fmt.Errorf("unknown action %q", call.Name)
	}
	if len(call.Args) != len(act.Params) {
		return compiledAction{}, fmt.Errorf("action %q takes %d args, got %d", call.Name, len(act.Params), len(call.Args))
	}
	operand := func(o p4.Operand) (compiledOperand, error) {
		switch o.Kind {
		case p4.OpLiteral:
			return compiledOperand{slot: -1, lit: o.Value}, nil
		case p4.OpField:
			s, ok := layout.fieldIdx[o.Name]
			if !ok {
				return compiledOperand{}, fmt.Errorf("packet lacks field %q", o.Name)
			}
			return compiledOperand{slot: s}, nil
		case p4.OpParam:
			for i, p := range act.Params {
				if p == o.Name {
					return compiledOperand{slot: -1, lit: call.Args[i]}, nil
				}
			}
			// Unknown parameters read as 0, as in the reference.
			return compiledOperand{slot: -1}, nil
		}
		return compiledOperand{}, fmt.Errorf("bad operand kind %d", o.Kind)
	}
	fieldOf := func(name string) (int, phv.Width, error) {
		s, ok := layout.fieldIdx[name]
		if !ok {
			return 0, phv.Width{}, fmt.Errorf("action %q targets unknown field %q", call.Name, name)
		}
		return s, layout.fieldW[s], nil
	}
	regOf := func(name string) (int, phv.Width, error) {
		s, ok := layout.regIdx[name]
		if !ok {
			return 0, phv.Width{}, fmt.Errorf("unknown register %q", name)
		}
		if layout.regCount[s] == 0 {
			// The parser rejects instance_count < 1; a hand-built Program can
			// still carry an empty bank, which the reference reports per
			// packet. NewMachine refuses it up front instead of indexing into
			// a zero-length bank at run time.
			return 0, phv.Width{}, fmt.Errorf("register %q has no cells", name)
		}
		return s, layout.regW[s], nil
	}

	var c compiledAction
	for _, pr := range act.Prims {
		cp := compiledPrim{op: pr.Op}
		var err error
		switch pr.Op {
		case p4.PrimModifyField, p4.PrimAddToField:
			if cp.field, cp.fw, err = fieldOf(pr.Field); err != nil {
				return compiledAction{}, err
			}
			if cp.val, err = operand(pr.Args[0]); err != nil {
				return compiledAction{}, err
			}
		case p4.PrimRegWrite, p4.PrimRegAdd:
			if cp.reg, cp.rw, err = regOf(pr.Reg); err != nil {
				return compiledAction{}, err
			}
			if cp.idx, err = operand(pr.Args[0]); err != nil {
				return compiledAction{}, err
			}
			if cp.val, err = operand(pr.Args[1]); err != nil {
				return compiledAction{}, err
			}
		case p4.PrimRegRead:
			if cp.reg, cp.rw, err = regOf(pr.Reg); err != nil {
				return compiledAction{}, err
			}
			if cp.field, cp.fw, err = fieldOf(pr.Field); err != nil {
				return compiledAction{}, err
			}
			if cp.idx, err = operand(pr.Args[0]); err != nil {
				return compiledAction{}, err
			}
		case p4.PrimDrop, p4.PrimNoOp:
		default:
			return compiledAction{}, fmt.Errorf("unknown primitive %v", pr.Op)
		}
		c.prims = append(c.prims, cp)
	}
	return c, nil
}

// Layout returns the machine's slot layout.
func (m *Machine) Layout() *SlotLayout { return m.layout }

// ProcessSlots executes the program on one layout-ordered slot-vector
// packet in place and reports whether the packet was dropped: tables in
// control order, first-match-wins entry priority, and a drop finishes its
// action, then skips every later table. Register state accumulates across
// calls; crossbar accesses accumulate in matchCount until the next Run or
// RunStream. It performs no allocation.
//
//dvet:hotpath allocs=0
func (m *Machine) ProcessSlots(pkt []int64) (dropped bool) {
	for ti := range m.ctables {
		if dropped {
			return
		}
		ct := &m.ctables[ti]
		m.matchCount[ct.slot]++
		act := ct.def
		for ei := range ct.entries {
			e := &ct.entries[ei]
			if e.matches(pkt[e.field]) {
				act = &e.act
				break
			}
		}
		if act == nil {
			continue
		}
		if m.applySlots(act, pkt) {
			dropped = true
		}
	}
	return
}

// applySlots executes a compiled action body on a slot-vector packet.
//
//dvet:hotpath allocs=0
func (m *Machine) applySlots(act *compiledAction, pkt []int64) (dropped bool) {
	for i := range act.prims {
		p := &act.prims[i]
		switch p.op {
		case p4.PrimModifyField:
			pkt[p.field] = p.fw.Trunc(p.val.eval(pkt))
		case p4.PrimAddToField:
			pkt[p.field] = p.fw.Add(pkt[p.field], p.fw.Trunc(p.val.eval(pkt)))
		case p4.PrimRegWrite:
			cells := m.regBanks[p.reg]
			cells[wrapIndex(p.idx.eval(pkt), len(cells))] = p.rw.Trunc(p.val.eval(pkt))
		case p4.PrimRegAdd:
			cells := m.regBanks[p.reg]
			ci := wrapIndex(p.idx.eval(pkt), len(cells))
			cells[ci] = p.rw.Add(cells[ci], p.rw.Trunc(p.val.eval(pkt)))
		case p4.PrimRegRead:
			cells := m.regBanks[p.reg]
			pkt[p.field] = p.fw.Trunc(cells[wrapIndex(p.idx.eval(pkt), len(cells))])
		case p4.PrimDrop:
			dropped = true
		}
	}
	return
}

// RunStream drives n packets from the generator through ProcessSlots,
// filling a single reused slot vector in place of materializing *Packet
// values. It consumes the generator's random stream exactly like
// Run(gen.Batch(n)) and produces identical Stats; only the per-*Packet
// timing annotations of the map API have no streaming counterpart.
func (m *Machine) RunStream(gen *TrafficGen, n int) (*Stats, error) {
	if len(gen.fields) != m.layout.NumFields() {
		return nil, fmt.Errorf("drmt: traffic generator has %d fields, program has %d", len(gen.fields), m.layout.NumFields())
	}
	stats := newStats(n, m.hw.Processors)
	stats.Makespan = m.sched.Makespan
	clear(m.matchCount)
	buf := make([]int64, m.layout.NumFields())
	for i := 0; i < n; i++ {
		gen.Fill(buf)
		stats.record(i, m.sched.Makespan, m.ProcessSlots(buf))
	}
	stats.finish(m.layout.tables, m.matchCount)
	return &stats, nil
}
