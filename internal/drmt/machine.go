package drmt

import (
	"fmt"
	"slices"
	"sort"

	"druzhba/internal/dag"
	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// Packet is one packet flowing through the dRMT machine: a bag of header
// field values plus bookkeeping. It is the named-field view of the public
// Run API; the lowered programs run on layout-ordered []int64 slot vectors
// (see slots.go) and Run converts at its boundary.
type Packet struct {
	ID      int
	Fields  map[string]int64
	Dropped bool

	// Timing, filled by the simulator.
	Processor  int
	ArriveAt   int // cycle the packet enters its processor
	CompleteAt int // cycle the program finishes for this packet
}

// Clone deep-copies the packet.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Fields = make(map[string]int64, len(p.Fields))
	//dvet:nondeterministic-ok map-to-map copy, order-free
	for k, v := range p.Fields {
		q.Fields[k] = v
	}
	return &q
}

// TrafficMode selects the distribution a traffic generator draws field
// values from; the type, its two modes and the boundary set are defined
// once in package phv. TrafficBoundary here draws from each field's own
// boundary set — zero, one, and the field's maximal drawable value (the
// all-ones pattern at full declared width).
type TrafficMode = phv.TrafficMode

const (
	TrafficUniform  = phv.TrafficUniform
	TrafficBoundary = phv.TrafficBoundary
)

// TrafficGen generates packets "with randomly initialized packet field
// values based on the fields specified in the P4 file" (§4.2). It is
// phv.TrafficGen, the one generator both machine models draw from, with one
// column per program field in slot order (sorted field names, matching
// SlotLayout), each at the field's declared width. Fill and Reseed are the
// embedded generator's: Fill writes a packet's field values into the first
// NumFields entries of a caller-owned buffer and returns the packet's ID, its
// index in the stream, so consecutive Next/Fill/Batch calls on one generator
// yield distinct, globally ordered IDs that Reseed restarts at 0.
type TrafficGen struct {
	*phv.TrafficGen
	fields []string
}

// NewTrafficGen builds a generator for the program's fields. max bounds the
// generated values (0 = each field's full declared width; a max beyond a
// field's width is clamped to it).
func NewTrafficGen(seed int64, prog *p4.Program, max int64) (*TrafficGen, error) {
	return NewTrafficGenMode(seed, prog, max, TrafficUniform)
}

// NewTrafficGenMode is NewTrafficGen with an explicit traffic mode. Both
// modes draw exactly one random number per field, so a given mode is
// deterministic for a given seed across Fill, Next and Batch.
func NewTrafficGenMode(seed int64, prog *p4.Program, max int64, mode TrafficMode) (*TrafficGen, error) {
	fields := prog.FieldNames()
	bits := make([]int, len(fields))
	for i, f := range fields {
		b, err := prog.FieldBits(f)
		if err != nil {
			return nil, err
		}
		bits[i] = b
	}
	gen, err := phv.NewTrafficGen(seed, bits, max, mode)
	if err != nil {
		return nil, err
	}
	return &TrafficGen{TrafficGen: gen, fields: fields}, nil
}

// NumFields returns the number of values Fill draws per packet.
func (g *TrafficGen) NumFields() int { return len(g.fields) }

// Next generates one packet, consuming the stream exactly as Fill does.
func (g *TrafficGen) Next() *Packet {
	vals := make([]int64, len(g.fields))
	p := &Packet{ID: g.Fill(vals), Fields: make(map[string]int64, len(g.fields))}
	for i, f := range g.fields {
		p.Fields[f] = vals[i]
	}
	return p
}

// Batch generates the next n packets.
func (g *TrafficGen) Batch(n int) []*Packet {
	out := make([]*Packet, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Stats aggregates a simulation run.
type Stats struct {
	Packets     int
	Dropped     int
	TotalCycles int     // cycle the last packet completed
	Throughput  float64 // packets per cycle
	Makespan    int     // per-packet latency in cycles

	// MemoryAccesses counts crossbar accesses per table (one per lookup).
	MemoryAccesses map[string]int
	// PerProcessor counts packets handled by each processor.
	PerProcessor []int
}

// newStats starts the statistics of an n-packet run: the one Stats assembly
// behind Machine.Run, Machine.RunStream and ISAMachine.Run.
func newStats(n, processors int) Stats {
	return Stats{Packets: n, MemoryAccesses: map[string]int{}, PerProcessor: make([]int, processors)}
}

// record accounts for packet i of the run — dispatched round-robin, one
// packet per cycle (§4.2), complete latency cycles after it arrived — and
// returns its processor and completion cycle.
func (s *Stats) record(i, latency int, dropped bool) (processor, completeAt int) {
	processor, completeAt = i%len(s.PerProcessor), i+latency
	s.PerProcessor[processor]++
	if dropped {
		s.Dropped++
	}
	if latency > s.Makespan {
		s.Makespan = latency
	}
	if completeAt > s.TotalCycles {
		s.TotalCycles = completeAt
	}
	return
}

// finish folds a machine's per-table match counters (cleared at the start
// of the run) into the crossbar accounting and computes the throughput,
// returning the total number of matches.
func (s *Stats) finish(tables []string, matchCount []int) (matches int64) {
	for i, count := range matchCount {
		if count > 0 {
			s.MemoryAccesses[tables[i]] += count
			matches += int64(count)
		}
	}
	if s.TotalCycles > 0 {
		s.Throughput = float64(s.Packets) / float64(s.TotalCycles)
	}
	return
}

// Machine is an executable dRMT configuration: program, schedule, hardware
// parameters, table entries and register state. The program is lowered onto
// its table entries at construction (lowerTables, slots.go) to one flat
// program: ProcessSlots runs it on a packet, and Run and RunStream are two
// ways of feeding it.
type Machine struct {
	prog    *p4.Program
	graph   *dag.Graph
	sched   *Schedule
	hw      HWConfig
	entries *EntrySet
	layout  *SlotLayout
	engine
}

// NewMachine assembles a machine. When sched is nil a greedy schedule is
// computed from the program's dependency DAG.
func NewMachine(prog *p4.Program, entries *EntrySet, hw HWConfig, sched *Schedule) (*Machine, error) {
	layout, err := NewSlotLayout(prog)
	if err != nil {
		return nil, err
	}
	m, err := newMachine(prog, entries, hw, sched, layout)
	if err != nil {
		return nil, err
	}
	m.frame = m.code.NewFrame()
	return m, nil
}

// newMachine is NewMachine over a shared layout, without a frame (the
// differential fuzzer builds both machines over one and runs their linked
// program).
func newMachine(prog *p4.Program, entries *EntrySet, hw HWConfig, sched *Schedule, layout *SlotLayout) (*Machine, error) {
	hw = hw.Defaults()
	g, err := p4.BuildDAG(prog)
	if err != nil {
		return nil, err
	}
	if sched == nil {
		sched, err = ListSchedule(g, DefaultCosts(g), hw)
		if err != nil {
			return nil, err
		}
	}
	if err := sched.Validate(g, DefaultCosts(g), hw); err != nil {
		return nil, err
	}
	e, err := lowerTables(prog, entries, layout)
	if err != nil {
		return nil, err
	}
	return &Machine{prog: prog, graph: g, sched: sched, hw: hw, entries: entries, layout: layout, engine: e}, nil
}

// Clone returns a machine with private register state. The program, DAG,
// schedule, hardware configuration, table entries, layout and lowered
// program are immutable after construction and stay shared; campaign
// workers run shards on clones so no mutable state crosses goroutines.
func (m *Machine) Clone() *Machine {
	c := *m
	c.engine = m.engine.clone()
	return &c
}

// Layout returns the machine's slot layout.
func (m *Machine) Layout() *SlotLayout { return m.layout }

// Schedule returns the machine's schedule.
func (m *Machine) Schedule() *Schedule { return m.sched }

// Graph returns the table dependency DAG.
func (m *Machine) Graph() *dag.Graph { return m.graph }

// Register returns a copy of a register's cells.
func (m *Machine) Register(name string) ([]int64, bool) {
	i, ok := m.layout.regIdx[name]
	if !ok {
		return nil, false
	}
	return slices.Clone(m.bank(i)), true
}

// ResetState zeroes all registers.
func (m *Machine) ResetState() { m.resetState() }

// ProcessSlots executes the program on one layout-ordered slot-vector
// packet in place and reports whether the packet was dropped: tables in
// control order, first-match-wins entry priority, and a drop finishes its
// action, then skips every later table. Register state accumulates across
// calls. It performs no allocation.
//
//dvet:hotpath allocs=0
func (m *Machine) ProcessSlots(pkt []int64) (dropped bool) {
	return m.exec(m.code, pkt)
}

// Run executes the program on every packet. Packets are dispatched to
// processors round-robin, one packet per cycle (§4.2); each packet runs to
// completion on its processor per the schedule. Logical effects follow the
// control order packet by packet (the schedule satisfies all data
// dependencies, so timing and logical order agree). Each packet is copied
// into a slot vector, processed, and copied back with its timing
// annotations; a packet that lacks a program field is rejected. A packet
// that arrives already dropped skips every table. The crossbar accesses are
// counted by the lowered program's counting clone.
func (m *Machine) Run(packets []*Packet) (*Stats, error) {
	stats := newStats(len(packets), m.hw.Processors)
	stats.Makespan = m.sched.Makespan
	p := m.counted()
	buf := make([]int64, m.layout.NumFields())
	for i, pkt := range packets {
		if err := m.layout.PacketToSlots(pkt, buf); err != nil {
			return nil, fmt.Errorf("drmt: packet %d: %w", pkt.ID, err)
		}
		dropped := pkt.Dropped || m.exec(p, buf)
		m.layout.SlotsToPacket(buf, dropped, pkt)
		pkt.ArriveAt = i
		pkt.Processor, pkt.CompleteAt = stats.record(i, m.sched.Makespan, dropped)
	}
	stats.finish(m.layout.tables, m.matchCounts(len(m.layout.tables)))
	return &stats, nil
}

// RunStream drives n packets from the generator through the machine,
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
	p := m.counted()
	buf := make([]int64, m.layout.NumFields())
	for i := 0; i < n; i++ {
		gen.Fill(buf)
		stats.record(i, m.sched.Makespan, m.exec(p, buf))
	}
	stats.finish(m.layout.tables, m.matchCounts(len(m.layout.tables)))
	return &stats, nil
}

// FormatStats renders run statistics.
func FormatStats(s *Stats) string {
	out := fmt.Sprintf("packets: %d (dropped %d)\n", s.Packets, s.Dropped)
	out += fmt.Sprintf("per-packet latency: %d cycles\n", s.Makespan)
	out += fmt.Sprintf("total cycles: %d (throughput %.3f pkt/cycle)\n", s.TotalCycles, s.Throughput)
	var tables []string
	for t := range s.MemoryAccesses {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		out += fmt.Sprintf("crossbar accesses[%s]: %d\n", t, s.MemoryAccesses[t])
	}
	for i, n := range s.PerProcessor {
		out += fmt.Sprintf("processor %d: %d packets\n", i, n)
	}
	return out
}
