package drmt

import (
	"fmt"
	"slices"
	"sort"

	"druzhba/internal/dag"
	"druzhba/internal/flat"
	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

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
// phv.TrafficGen, the one generator both machine models draw from, on a plan
// with one column per program field in slot order (sorted field names,
// matching SlotLayout), each at the field's declared width. Fill is the one
// way to draw: it writes a packet's field values into the first NumFields
// entries of a caller-owned buffer, a layout-ordered slot vector, and
// returns the packet's ID, its index in the stream, so consecutive Fill
// calls on one generator yield distinct, globally ordered IDs. The
// generator keeps its fields' names, so a consumer can tell which program
// it was built for.
type TrafficGen struct {
	gen    phv.TrafficGen
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
// deterministic for a given seed.
func NewTrafficGenMode(seed int64, prog *p4.Program, max int64, mode TrafficMode) (*TrafficGen, error) {
	fields := prog.FieldNames()
	plan, err := newTraffic(prog, fields, max, mode)
	if err != nil {
		return nil, err
	}
	g := &TrafficGen{fields: fields}
	g.gen.Start(plan, seed)
	return g, nil
}

// newTraffic is the traffic plan of the program's fields, named in slot
// order.
func newTraffic(prog *p4.Program, fields []string, max int64, mode TrafficMode) (*phv.Traffic, error) {
	bits := make([]int, len(fields))
	for i, f := range fields {
		b, err := prog.FieldBits(f)
		if err != nil {
			return nil, err
		}
		bits[i] = b
	}
	return phv.NewTraffic(bits, max, mode, nil)
}

// Fill writes the next packet's field values into the front of dst and
// returns its ID (phv.TrafficGen.Fill).
func (g *TrafficGen) Fill(dst []phv.Value) int { return g.gen.Fill(dst) }

// NumFields returns the number of values Fill draws per packet.
func (g *TrafficGen) NumFields() int { return len(g.fields) }

// Stats aggregates a RunStream of either machine.
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
// behind both machines' RunStream.
func newStats(n, processors int) Stats {
	return Stats{Packets: n, MemoryAccesses: map[string]int{}, PerProcessor: make([]int, processors)}
}

// record accounts for packet i of the run: dispatched round-robin, one
// packet per cycle (§4.2), complete latency cycles after it arrived.
func (s *Stats) record(i, latency int, dropped bool) {
	s.PerProcessor[i%len(s.PerProcessor)]++
	if dropped {
		s.Dropped++
	}
	if latency > s.Makespan {
		s.Makespan = latency
	}
	if i+latency > s.TotalCycles {
		s.TotalCycles = i + latency
	}
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
// program: ProcessSlots runs it on one slot-vector packet, and RunStream on a
// seeded stream of them.
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

// RunStream drives n packets of seeded traffic through the machine — the
// stream NewTrafficGen(seed, program, max) draws, each field bounded by max
// (0 = its declared width) — and returns the run's statistics. Packets are
// dispatched to processors round-robin, one packet per cycle (§4.2); each
// runs to completion on its processor per the schedule, so every packet's
// latency is the schedule's makespan. Logical effects follow the control
// order packet by packet (the schedule satisfies all data dependencies, so
// timing and logical order agree) and register state accumulates across the
// stream. The crossbar accesses are counted by the lowered program's
// counting clone.
func (m *Machine) RunStream(seed int64, n int, max int64) (*Stats, error) {
	stats := newStats(n, m.hw.Processors)
	stats.Makespan = m.sched.Makespan
	step := func(p *flat.Program, pkt []int64) (int, bool, error) { return m.sched.Makespan, m.exec(p, pkt), nil }
	if _, _, err := m.stream(m.prog, seed, n, max, &stats, m.layout.tables, step); err != nil {
		return nil, fmt.Errorf("drmt: %w", err)
	}
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
