package drmt

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// This file holds the deliberately naive reference semantics of both dRMT
// execution models: the original map-based interpreters, moved here verbatim
// when compiled engines became the only production interpreters — today
// both machines lowered to flat programs (lower.go, slots.go). They walk the
// parsed program and the entry set by name on every packet and keep packets
// as string-keyed maps, exactly as the models are described. They are the
// differential oracle the flat programs are pinned to (slots_test.go,
// fuzz_test.go, blocks_test.go, FuzzSlotsVsReference, and the
// campaign-level check in campaign_test.go),
// and they live in a _test.go file so nothing outside the tests can run
// them. Keep them obvious; never optimize them.

// refPacket is the reference interpreters' packet: header field values by
// name, and the drop flag.
type refPacket struct {
	ID      int
	Fields  map[string]int64
	Dropped bool
}

// clone deep-copies the packet.
func (p *refPacket) clone() *refPacket {
	q := *p
	q.Fields = maps.Clone(p.Fields)
	return &q
}

// newRefPacket names a slot vector's values, in slot order.
func newRefPacket(names []string, id int, vals []int64) *refPacket {
	p := &refPacket{ID: id, Fields: make(map[string]int64, len(names))}
	for i, f := range names {
		p.Fields[f] = vals[i]
	}
	return p
}

// slots returns the packet's field values as a layout-ordered slot vector,
// 0 for a field it lacks.
func (p *refPacket) slots(l *SlotLayout) []int64 {
	vals := make([]int64, l.NumFields())
	for i, f := range l.fields {
		vals[i] = p.Fields[f]
	}
	return vals
}

// refPackets draws the generator's next n packets, named in slot order:
// the packets a RunStream of the same seed runs.
func refPackets(g *TrafficGen, n int) []*refPacket {
	out := make([]*refPacket, n)
	vals := make([]int64, g.NumFields())
	for i := range out {
		out[i] = newRefPacket(g.fields, g.Fill(vals), vals)
	}
	return out
}

// refMachine is the reference table-level interpreter.
type refMachine struct {
	prog     *p4.Program
	entries  *EntrySet
	layout   *SlotLayout // name -> width / register bank only
	regBanks [][]int64   // indexed by layout register slot
	params   []int64     // action-argument scratch
}

func newRefMachine(prog *p4.Program, entries *EntrySet) (*refMachine, error) {
	layout, err := NewSlotLayout(prog)
	if err != nil {
		return nil, err
	}
	m := &refMachine{prog: prog, entries: entries, layout: layout}
	for _, n := range layout.regCount {
		m.regBanks = append(m.regBanks, make([]int64, n))
	}
	return m, nil
}

// Register returns a copy of a register's cells.
func (m *refMachine) Register(name string) ([]int64, bool) {
	i, ok := m.layout.regIdx[name]
	if !ok {
		return nil, false
	}
	return append([]int64(nil), m.regBanks[i]...), true
}

// ResetState zeroes all registers.
func (m *refMachine) ResetState() {
	for _, r := range m.regBanks {
		for i := range r {
			r[i] = 0
		}
	}
}

// run is the reference for Machine.RunStream over the packets: the same
// round-robin dispatch and timing over process. makespan is the schedule's
// per-packet latency (scheduling is not part of the interpreter semantics).
func (m *refMachine) run(packets []*refPacket, processors, makespan int) (*Stats, error) {
	stats := &Stats{
		Packets:        len(packets),
		Makespan:       makespan,
		MemoryAccesses: map[string]int{},
		PerProcessor:   make([]int, processors),
	}
	for i, pkt := range packets {
		stats.PerProcessor[i%processors]++
		if err := m.process(pkt, stats); err != nil {
			return nil, fmt.Errorf("drmt: packet %d: %w", pkt.ID, err)
		}
		if pkt.Dropped {
			stats.Dropped++
		}
		if completeAt := i + makespan; completeAt > stats.TotalCycles {
			stats.TotalCycles = completeAt
		}
	}
	if stats.TotalCycles > 0 {
		stats.Throughput = float64(stats.Packets) / float64(stats.TotalCycles)
	}
	return stats, nil
}

func (m *refMachine) process(pkt *refPacket, stats *Stats) error {
	for _, name := range m.prog.Control {
		if pkt.Dropped {
			return nil
		}
		t := m.prog.Table(name)
		stats.MemoryAccesses[name]++
		call := m.lookup(t, pkt)
		if call == nil {
			continue // miss with no default: no-op
		}
		if err := m.apply(*call, pkt); err != nil {
			return fmt.Errorf("table %q: %w", name, err)
		}
	}
	return nil
}

// lookup finds the highest-priority matching entry, falling back to the
// table's default action.
func (m *refMachine) lookup(t *p4.Table, pkt *refPacket) *p4.ActionCall {
	for _, e := range m.entries.ForTable(t.Name) {
		v, ok := pkt.Fields[e.Field]
		if !ok {
			continue
		}
		if e.Matches(v) {
			call := e.Action
			return &call
		}
	}
	if t.Default != nil {
		call := *t.Default
		return &call
	}
	return nil
}

// fieldWidth returns a field's width, or the zero Width (which truncates
// everything to 0) for unknown fields — the interpreter's historical
// behavior for names outside the program.
func (m *refMachine) fieldWidth(name string) phv.Width {
	if i, ok := m.layout.fieldIdx[name]; ok {
		return m.layout.fieldW[i]
	}
	return phv.Width{}
}

// apply executes an action's primitives on a reference packet.
func (m *refMachine) apply(call p4.ActionCall, pkt *refPacket) error {
	act := m.prog.Action(call.Name)
	if act == nil {
		return fmt.Errorf("unknown action %q", call.Name)
	}
	if len(call.Args) != len(act.Params) {
		return fmt.Errorf("action %q takes %d args, got %d", call.Name, len(act.Params), len(call.Args))
	}
	m.params = append(m.params[:0], call.Args...)
	evalOp := func(o p4.Operand) (int64, error) {
		switch o.Kind {
		case p4.OpLiteral:
			return o.Value, nil
		case p4.OpField:
			v, ok := pkt.Fields[o.Name]
			if !ok {
				return 0, fmt.Errorf("packet lacks field %q", o.Name)
			}
			return v, nil
		case p4.OpParam:
			for i, p := range act.Params {
				if p == o.Name {
					return m.params[i], nil
				}
			}
			return 0, nil // unknown parameters read as 0, like the old map
		}
		return 0, fmt.Errorf("bad operand kind %d", o.Kind)
	}
	regIndex := func(reg string, idxOp p4.Operand) (int, []int64, error) {
		ri, ok := m.layout.regIdx[reg]
		if !ok {
			return 0, nil, fmt.Errorf("unknown register %q", reg)
		}
		cells := m.regBanks[ri]
		idx, err := evalOp(idxOp)
		if err != nil {
			return 0, nil, err
		}
		if len(cells) == 0 {
			return 0, nil, fmt.Errorf("register %q has no cells", reg)
		}
		// Index wraps like a hash-indexed register array.
		return wrapIndex(idx, len(cells)), cells, nil
	}

	for _, pr := range act.Prims {
		switch pr.Op {
		case p4.PrimModifyField:
			v, err := evalOp(pr.Args[0])
			if err != nil {
				return err
			}
			pkt.Fields[pr.Field] = m.fieldWidth(pr.Field).Trunc(v)
		case p4.PrimAddToField:
			v, err := evalOp(pr.Args[0])
			if err != nil {
				return err
			}
			w := m.fieldWidth(pr.Field)
			pkt.Fields[pr.Field] = w.Add(pkt.Fields[pr.Field], w.Trunc(v))
		case p4.PrimRegWrite:
			i, cells, err := regIndex(pr.Reg, pr.Args[0])
			if err != nil {
				return err
			}
			v, err := evalOp(pr.Args[1])
			if err != nil {
				return err
			}
			cells[i] = m.regWidth(pr.Reg).Trunc(v)
		case p4.PrimRegAdd:
			i, cells, err := regIndex(pr.Reg, pr.Args[0])
			if err != nil {
				return err
			}
			v, err := evalOp(pr.Args[1])
			if err != nil {
				return err
			}
			w := m.regWidth(pr.Reg)
			cells[i] = w.Add(cells[i], w.Trunc(v))
		case p4.PrimRegRead:
			i, cells, err := regIndex(pr.Reg, pr.Args[0])
			if err != nil {
				return err
			}
			pkt.Fields[pr.Field] = m.fieldWidth(pr.Field).Trunc(cells[i])
		case p4.PrimDrop:
			pkt.Dropped = true
		case p4.PrimNoOp:
		}
	}
	return nil
}

func (m *refMachine) regWidth(name string) phv.Width {
	if i, ok := m.layout.regIdx[name]; ok {
		return m.layout.regW[i]
	}
	return phv.Default32
}

// refISAMachine is the reference ISA interpreter: a fresh register file per
// packet, fields read and written by name, every MATCH resolved against the
// entry set and the dispatch list on the spot.
type refISAMachine struct {
	prog    *p4.Program
	isa     *ISAProgram
	entries *EntrySet

	fieldW   []phv.Width
	regW     []phv.Width
	regBanks [][]int64 // indexed by register-array symbol
}

// newRefISAMachine builds the reference executor; when isa is nil the
// program is assembled from the P4 source.
func newRefISAMachine(prog *p4.Program, isa *ISAProgram, entries *EntrySet) (*refISAMachine, error) {
	var err error
	if isa == nil {
		if isa, err = Assemble(prog); err != nil {
			return nil, err
		}
	}
	if err := isa.Verify(); err != nil {
		return nil, err
	}
	m := &refISAMachine{prog: prog, isa: isa, entries: entries}
	m.fieldW = make([]phv.Width, len(isa.Fields))
	for i := range isa.Fields {
		if m.fieldW[i], err = phv.NewWidth(isa.fieldBits[i]); err != nil {
			return nil, err
		}
	}
	m.regW = make([]phv.Width, len(isa.RegArrays))
	m.regBanks = make([][]int64, len(isa.RegArrays))
	for i, name := range isa.RegArrays {
		r := prog.Register(name)
		if r == nil {
			return nil, fmt.Errorf("drmt isa: program has no register %q", name)
		}
		if m.regW[i], err = phv.NewWidth(r.Bits); err != nil {
			return nil, err
		}
		m.regBanks[i] = make([]int64, r.Count)
	}
	// A MATCH writes its bound arguments into the NumParams parameter
	// registers; a binding that does not fit them is refused.
	for _, name := range isa.Tables {
		t := prog.Table(name)
		if t == nil {
			continue
		}
		calls := []p4.ActionCall{}
		for _, e := range entries.ForTable(name) {
			calls = append(calls, e.Action)
		}
		if t.Default != nil {
			calls = append(calls, *t.Default)
		}
		for _, call := range calls {
			if len(call.Args) > isa.NumParams {
				return nil, fmt.Errorf("drmt isa: table %q binds %d-argument action %q, the ISA program has %d parameter registers", name, len(call.Args), call.Name, isa.NumParams)
			}
		}
	}
	return m, nil
}

// Register returns a copy of a register array's cells.
func (m *refISAMachine) Register(name string) ([]int64, bool) {
	for i, n := range m.isa.RegArrays {
		if n == name {
			return append([]int64(nil), m.regBanks[i]...), true
		}
	}
	return nil, false
}

// ResetState zeroes all register arrays.
func (m *refISAMachine) ResetState() {
	for _, r := range m.regBanks {
		for i := range r {
			r[i] = 0
		}
	}
}

// run is the reference for ISAMachine.RunStream over the packets:
// per-packet latency is the executed instruction count.
func (m *refISAMachine) run(packets []*refPacket, processors int) (*ISAStats, error) {
	stats := &ISAStats{Stats: Stats{
		Packets:        len(packets),
		MemoryAccesses: map[string]int{},
		PerProcessor:   make([]int, processors),
	}}
	for i, pkt := range packets {
		stats.PerProcessor[i%processors]++
		executed, err := m.exec(pkt, stats)
		if err != nil {
			return nil, fmt.Errorf("drmt isa: packet %d: %w", pkt.ID, err)
		}
		if pkt.Dropped {
			stats.Dropped++
		}
		if executed > stats.Makespan {
			stats.Makespan = executed
		}
		if completeAt := i + executed; completeAt > stats.TotalCycles {
			stats.TotalCycles = completeAt
		}
	}
	if stats.TotalCycles > 0 {
		stats.Throughput = float64(stats.Packets) / float64(stats.TotalCycles)
	}
	return stats, nil
}

// exec runs the program on one reference packet and returns the executed
// instruction count.
func (m *refISAMachine) exec(pkt *refPacket, stats *ISAStats) (int, error) {
	regs := make([]int64, m.isa.NumRegs)
	executed := 0
	pc := 0
	for pc < len(m.isa.Instrs) {
		in := m.isa.Instrs[pc]
		executed++
		stats.Instructions++
		next := pc + 1
		switch in.Op {
		case OpLoadImm:
			regs[in.Dst] = in.Imm
		case OpLoadField:
			v, ok := pkt.Fields[m.isa.Fields[in.Sym]]
			if !ok {
				return executed, fmt.Errorf("packet lacks field %q", m.isa.Fields[in.Sym])
			}
			regs[in.Dst] = v
		case OpStoreField:
			name := m.isa.Fields[in.Sym]
			if _, ok := pkt.Fields[name]; !ok {
				return executed, fmt.Errorf("packet lacks field %q", name)
			}
			pkt.Fields[name] = m.fieldW[in.Sym].Trunc(regs[in.A])
		case OpALU:
			regs[in.Dst] = aluEval(in.AOp, in.Bits, regs[in.A], regs[in.B])
		case OpLoadReg:
			cells := m.regBanks[in.Sym]
			regs[in.Dst] = cells[wrapIndex(regs[in.A], len(cells))]
		case OpStoreReg:
			cells := m.regBanks[in.Sym]
			cells[wrapIndex(regs[in.A], len(cells))] = m.regW[in.Sym].Trunc(regs[in.B])
		case OpMatch:
			stats.MatchOps++
			table := m.isa.Tables[in.Sym]
			stats.MemoryAccesses[table]++
			sel, args, err := m.match(in.Sym, pkt)
			if err != nil {
				return executed, err
			}
			regs[in.Dst] = int64(sel)
			for i := 0; i < m.isa.NumParams; i++ {
				regs[RegParam0+i] = 0
			}
			for i, v := range args {
				regs[RegParam0+i] = v
			}
		case OpBZ:
			if regs[in.A] == 0 {
				next = in.Target
			}
		case OpBNZ:
			if regs[in.A] != 0 {
				next = in.Target
			}
		case OpJmp:
			next = in.Target
		case OpDrop:
			pkt.Dropped = true
			regs[RegDrop] = 1
		case OpHalt:
			return executed, nil
		default:
			return executed, fmt.Errorf("unknown opcode %d at pc %d", in.Op, pc)
		}
		regs[RegZero] = 0 // the zero register is immutable
		pc = next
	}
	return executed, nil
}

// stepFrom is the reference for one block: refISAMachine.exec's loop started
// at pc on the register file regs, up to and including the next MATCH —
// counted, not looked up — or HALT. It returns the instructions executed
// and the pc of that MATCH, -1 when the program ended.
func (m *refISAMachine) stepFrom(pc int, regs []int64, pkt *refPacket) (executed, match int, err error) {
	for pc < len(m.isa.Instrs) {
		in := m.isa.Instrs[pc]
		executed++
		next := pc + 1
		switch in.Op {
		case OpLoadImm:
			regs[in.Dst] = in.Imm
		case OpLoadField:
			v, ok := pkt.Fields[m.isa.Fields[in.Sym]]
			if !ok {
				return executed, -1, fmt.Errorf("packet lacks field %q", m.isa.Fields[in.Sym])
			}
			regs[in.Dst] = v
		case OpStoreField:
			name := m.isa.Fields[in.Sym]
			if _, ok := pkt.Fields[name]; !ok {
				return executed, -1, fmt.Errorf("packet lacks field %q", name)
			}
			pkt.Fields[name] = m.fieldW[in.Sym].Trunc(regs[in.A])
		case OpALU:
			regs[in.Dst] = aluEval(in.AOp, in.Bits, regs[in.A], regs[in.B])
		case OpLoadReg:
			cells := m.regBanks[in.Sym]
			regs[in.Dst] = cells[wrapIndex(regs[in.A], len(cells))]
		case OpStoreReg:
			cells := m.regBanks[in.Sym]
			cells[wrapIndex(regs[in.A], len(cells))] = m.regW[in.Sym].Trunc(regs[in.B])
		case OpMatch:
			if name := m.isa.Tables[in.Sym]; m.prog.Table(name) == nil {
				return executed, -1, fmt.Errorf("unknown table %q", name)
			}
			return executed, pc, nil
		case OpBZ:
			if regs[in.A] == 0 {
				next = in.Target
			}
		case OpBNZ:
			if regs[in.A] != 0 {
				next = in.Target
			}
		case OpJmp:
			next = in.Target
		case OpDrop:
			pkt.Dropped = true
			regs[RegDrop] = 1
		case OpHalt:
			return executed, -1, nil
		}
		regs[RegZero] = 0
		pc = next
	}
	return executed, -1, nil
}

// match performs the table lookup: highest-priority matching entry first,
// then the table default. It returns the 1-based dispatch index and the
// bound action arguments (0 = miss with no default).
func (m *refISAMachine) match(tableSym int, pkt *refPacket) (int, []int64, error) {
	name := m.isa.Tables[tableSym]
	t := m.prog.Table(name)
	if t == nil {
		return 0, nil, fmt.Errorf("unknown table %q", name)
	}
	var call *p4.ActionCall
	for _, e := range m.entries.ForTable(name) {
		v, ok := pkt.Fields[e.Field]
		if !ok {
			continue
		}
		if e.Matches(v) {
			c := e.Action
			call = &c
			break
		}
	}
	if call == nil && t.Default != nil {
		c := *t.Default
		call = &c
	}
	if call == nil {
		return 0, nil, nil
	}
	for i, actName := range m.isa.Dispatch[tableSym] {
		if actName == call.Name {
			return i + 1, call.Args, nil
		}
	}
	return 0, nil, fmt.Errorf("table %q selected action %q outside its dispatch list", name, call.Name)
}

// wrapIndex wraps a register-array index into a bank of n cells like a
// hash-indexed register array (0 for an empty bank).
func wrapIndex(idx int64, n int) int {
	if n == 0 {
		return 0
	}
	r := idx % int64(n)
	if r < 0 {
		r += int64(n)
	}
	return int(r)
}

// aluEval applies an ISA ALU operation at the given width, resolving the
// width on every call.
func aluEval(op ALUOp, bits int, a, b int64) int64 {
	w, err := phv.NewWidth(bits)
	if err != nil {
		w = phv.Default32
	}
	return aluEvalW(op, w, a, b)
}

// RefFuzzer is the reference differential loop (the original
// DiffFuzzer.FuzzCompat): packets are materialized by refPackets, cloned per
// machine, run through the two reference interpreters and compared
// map-to-map. DiffFuzzer must produce byte-identical DiffReports over the
// same generator state. The type and its methods are exported only so the
// campaign-level check in package drmt_test can reach them.
type RefFuzzer struct {
	prog *p4.Program
	isa  *refISAMachine
	tab  *refMachine
}

// NewRefFuzzer mirrors NewDiffFuzzer (isa nil = assembled from prog).
func NewRefFuzzer(prog *p4.Program, isa *ISAProgram, entries *EntrySet) (*RefFuzzer, error) {
	isaM, err := newRefISAMachine(prog, isa, entries)
	if err != nil {
		return nil, err
	}
	tabM, err := newRefMachine(prog, entries)
	if err != nil {
		return nil, err
	}
	return &RefFuzzer{prog: prog, isa: isaM, tab: tabM}, nil
}

// Fuzz is the reference for DiffFuzzer.Fuzz.
func (f *RefFuzzer) Fuzz(gen *TrafficGen, n int) (*DiffReport, error) {
	if gen == nil || n <= 0 {
		return nil, fmt.Errorf("drmt: empty fuzz stream")
	}
	f.isa.ResetState()
	f.tab.ResetState()
	rep := &DiffReport{}
	isaStats := &ISAStats{Stats: Stats{MemoryAccesses: map[string]int{}}}
	tabStats := &Stats{MemoryAccesses: map[string]int{}}
	for i := 0; i < n; i++ {
		in := refPackets(gen, 1)[0]
		got := in.clone()
		want := in.clone()
		executed, err := f.isa.exec(got, isaStats)
		rep.Instructions += int64(executed)
		if err != nil {
			rep.Err = fmt.Errorf("drmt isa: packet %d: %w", got.ID, err)
			return rep, nil
		}
		if err := f.tab.process(want, tabStats); err != nil {
			rep.Err = fmt.Errorf("drmt: packet %d: %w", want.ID, err)
			return rep, nil
		}
		rep.Checked++
		if !samePacket(got, want) {
			rep.Diffs = append(rep.Diffs, Diff{
				Index: i,
				ID:    in.ID,
				Input: formatPacket(in),
				Got:   formatPacket(got),
				Want:  formatPacket(want),
			})
		}
	}
	return rep, nil
}

// FuzzSeeded is the reference for DiffFuzzer.FuzzSeeded.
func (f *RefFuzzer) FuzzSeeded(seed int64, n int, max int64) (*DiffReport, error) {
	return f.FuzzSeededMode(seed, n, max, TrafficUniform)
}

// FuzzSeededMode is the reference for DiffFuzzer.FuzzSeededMode.
func (f *RefFuzzer) FuzzSeededMode(seed int64, n int, max int64, mode TrafficMode) (*DiffReport, error) {
	gen, err := NewTrafficGenMode(seed, f.prog, max, mode)
	if err != nil {
		return nil, err
	}
	return f.Fuzz(gen, n)
}

// samePacket reports whether two packets agree on the drop flag and every
// field. Both sides of a differential run start from clones of one packet,
// so the field sets coincide.
func samePacket(a, b *refPacket) bool {
	if a.Dropped != b.Dropped {
		return false
	}
	for f, v := range a.Fields {
		if b.Fields[f] != v {
			return false
		}
	}
	return true
}

// formatPacket renders a reference packet canonically — fields sorted by name,
// the drop flag when set. SlotLayout.FormatSlots must produce byte-identical
// output for the slot representation.
func formatPacket(p *refPacket) string {
	names := make([]string, 0, len(p.Fields))
	for f := range p.Fields {
		names = append(names, f)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", f, p.Fields[f])
	}
	if p.Dropped {
		b.WriteString(" dropped")
	}
	b.WriteByte('}')
	return b.String()
}
