package drmt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"druzhba/internal/dag"
	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// Packet is one packet flowing through the dRMT machine: a bag of header
// field values plus bookkeeping. It is the named-field view of the public
// Run API; the engines run on layout-ordered []int64 slot vectors (see
// slots.go) and Run converts at its boundary.
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
// values based on the fields specified in the P4 file" (§4.2). Packet IDs
// are assigned from a running counter, so consecutive Next/Fill/Batch calls
// on one generator yield distinct, globally ordered IDs.
type TrafficGen struct {
	rng    *rand.Rand
	fields []string
	bits   map[string]int
	limits []int64   // per-field draw bound, built lazily from bits and max
	bounds [][]int64 // per-field boundary sets, built lazily in boundary mode
	max    int64
	mode   TrafficMode
	next   int // next packet ID
}

// NewTrafficGen builds a generator for the program's fields. max bounds the
// generated values (0 = each field's full declared width).
func NewTrafficGen(seed int64, prog *p4.Program, max int64) (*TrafficGen, error) {
	return NewTrafficGenMode(seed, prog, max, TrafficUniform)
}

// NewTrafficGenMode is NewTrafficGen with an explicit traffic mode. Both
// modes draw exactly one random number per field, so a given mode is
// deterministic for a given seed across Fill, Next and Batch.
func NewTrafficGenMode(seed int64, prog *p4.Program, max int64, mode TrafficMode) (*TrafficGen, error) {
	if !mode.Valid() {
		return nil, fmt.Errorf("drmt: unknown traffic mode %q (want %s or %s)", mode, TrafficUniform, TrafficBoundary)
	}
	g := &TrafficGen{rng: rand.New(rand.NewSource(seed)), max: max, mode: mode, bits: map[string]int{}}
	g.fields = prog.FieldNames()
	for _, f := range g.fields {
		b, err := prog.FieldBits(f)
		if err != nil {
			return nil, err
		}
		g.bits[f] = b
	}
	return g, nil
}

// Reseed restarts the stream as a generator freshly built with seed (same
// program, bound and mode) would produce it: the random source is re-seeded
// in place and packet IDs restart at 0. It lets one generator serve many
// shards without allocating a new random source for each.
func (g *TrafficGen) Reseed(seed int64) {
	g.rng.Seed(seed)
	g.next = 0
}

// ensureLimits computes each field's draw bound once. int64(1)<<63 is
// negative and int64(1)<<64 is 0, either of which would panic rand.Int63n;
// fields 63 bits and wider draw from the full non-negative int64 range
// instead.
func (g *TrafficGen) ensureLimits() {
	if g.limits != nil {
		return
	}
	g.limits = make([]int64, len(g.fields))
	for i, f := range g.fields {
		limit := int64(math.MaxInt64)
		if g.bits[f] < 63 {
			limit = int64(1) << uint(g.bits[f])
		}
		if g.max > 0 && g.max < limit {
			limit = g.max
		}
		g.limits[i] = limit
	}
	if g.mode == TrafficBoundary {
		g.bounds = make([][]int64, len(g.limits))
		for i, limit := range g.limits {
			g.bounds[i] = phv.BoundaryValues(limit)
		}
	}
}

// draw produces field i's next value under the generator's mode.
func (g *TrafficGen) draw(i int) int64 {
	if g.bounds != nil {
		return g.bounds[i][g.rng.Intn(len(g.bounds[i]))]
	}
	return g.rng.Int63n(g.limits[i])
}

// Fill writes the next packet's field values into the caller-owned dst
// buffer — slot order, i.e. sorted field order, matching SlotLayout — and
// returns the packet's ID. It draws exactly one value per field, so Fill
// and Next consume the random stream identically: streaming and
// materializing consumers of the same seed see the same traffic. dst must
// have at least NumFields entries. Fill performs no allocation after the
// first call.
//
//dvet:hotpath allocs=0
func (g *TrafficGen) Fill(dst []int64) int {
	g.ensureLimits()
	id := g.next
	g.next++
	for i := range g.limits {
		dst[i] = g.draw(i)
	}
	return id
}

// NumFields returns the number of values Fill draws per packet.
func (g *TrafficGen) NumFields() int { return len(g.fields) }

// Next generates one packet.
func (g *TrafficGen) Next() *Packet {
	g.ensureLimits()
	p := &Packet{ID: g.next, Fields: make(map[string]int64, len(g.fields))}
	g.next++
	for i, f := range g.fields {
		p.Fields[f] = g.draw(i)
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
// parameters, table entries and register state. The program is slot-compiled
// at construction (see slots.go): ProcessSlots is the one interpreter, and
// Run and RunStream are two ways of feeding it.
type Machine struct {
	prog    *p4.Program
	graph   *dag.Graph
	sched   *Schedule
	hw      HWConfig
	entries *EntrySet

	layout     *SlotLayout
	ctables    []compiledTable
	regBanks   [][]int64 // indexed by layout register slot
	matchCount []int     // per layout table slot, cleared by Run/RunStream
}

// NewMachine assembles a machine. When sched is nil a greedy schedule is
// computed from the program's dependency DAG.
func NewMachine(prog *p4.Program, entries *EntrySet, hw HWConfig, sched *Schedule) (*Machine, error) {
	layout, err := NewSlotLayout(prog)
	if err != nil {
		return nil, err
	}
	return newMachine(prog, entries, hw, sched, layout)
}

// newMachine is NewMachine over a shared layout (the differential fuzzer
// builds both machines over one).
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
	ctables, err := compileMachine(prog, entries, layout)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		prog:       prog,
		graph:      g,
		sched:      sched,
		hw:         hw,
		entries:    entries,
		layout:     layout,
		ctables:    ctables,
		regBanks:   layout.newRegBanks(),
		matchCount: make([]int, len(layout.tables)),
	}
	return m, nil
}

// Clone returns a machine with private register state and scratch buffers.
// The program, DAG, schedule, hardware configuration, table entries, layout
// and compiled tables are immutable after construction and stay shared;
// campaign workers run shards on clones so no mutable state crosses
// goroutines.
func (m *Machine) Clone() *Machine {
	c := *m
	c.regBanks = make([][]int64, len(m.regBanks))
	for i, cells := range m.regBanks {
		c.regBanks[i] = append([]int64(nil), cells...)
	}
	c.matchCount = make([]int, len(m.matchCount))
	return &c
}

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
	return append([]int64(nil), m.regBanks[i]...), true
}

// ResetState zeroes all registers.
func (m *Machine) ResetState() {
	for _, r := range m.regBanks {
		for i := range r {
			r[i] = 0
		}
	}
}

// Run executes the program on every packet. Packets are dispatched to
// processors round-robin, one packet per cycle (§4.2); each packet runs to
// completion on its processor per the schedule. Logical effects follow the
// control order packet by packet (the schedule satisfies all data
// dependencies, so timing and logical order agree). Run is an adapter over
// ProcessSlots: each packet is copied into a slot vector, processed, and
// copied back with its timing annotations; a packet that lacks a program
// field is rejected. A packet that arrives already dropped skips every
// table.
func (m *Machine) Run(packets []*Packet) (*Stats, error) {
	stats := newStats(len(packets), m.hw.Processors)
	stats.Makespan = m.sched.Makespan
	clear(m.matchCount)
	buf := make([]int64, m.layout.NumFields())
	for i, pkt := range packets {
		if err := m.layout.PacketToSlots(pkt, buf); err != nil {
			return nil, fmt.Errorf("drmt: packet %d: %w", pkt.ID, err)
		}
		dropped := pkt.Dropped || m.ProcessSlots(buf)
		m.layout.SlotsToPacket(buf, dropped, pkt)
		pkt.ArriveAt = i
		pkt.Processor, pkt.CompleteAt = stats.record(i, m.sched.Makespan, dropped)
	}
	stats.finish(m.layout.tables, m.matchCount)
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
