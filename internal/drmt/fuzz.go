// fuzz.go is the dRMT analogue of package sim's Fig. 5 fuzzing loop: the
// ISA-level machine (§7's low-granularity dRMT model) is the system under
// test and the table-level Machine — a direct interpreter of the mini-P4
// program — is its behavioral specification. Random packets stream through
// both and every field plus the drop flag is compared packet by packet, so
// a bug in the assembler or the ISA lowering surfaces as a concrete
// counterexample packet.
//
// Both machines are lowered to flat programs over one SlotLayout, and the
// table machine's is linked after the ISA machine's (flat.Link) into a
// flat.Oracle: one program on one frame, the table side reading the packet
// from the ISA side's input registers, which neither writes, with the pairs
// of registers that hold a field, or the drop flag, at the end of each side.
// Fuzz is a client of the oracle's packet loop (flat.Oracle.Fuzz), the one
// package sim runs too, and Dispatched of its counting run. Canonical string
// renderings and Diff records are materialized only on mismatch and the
// seeded entry points start a generator on their stack from one kept traffic
// plan, so a clean shard allocates its report and nothing else.
package drmt

import (
	"fmt"
	"slices"

	"druzhba/internal/flat"
	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// Diff is one packet on which the ISA machine and the table-level
// specification disagree.
type Diff struct {
	Index int    // offset of the packet within the fuzzed stream
	ID    int    // packet ID assigned by the traffic generator
	Input string // canonical rendering of the generated packet
	Got   string // the ISA machine's resulting packet
	Want  string // the table-level specification's resulting packet
}

// String renders the diff for humans.
func (d *Diff) String() string {
	return fmt.Sprintf("packet %d: input %s: isa %s, spec %s", d.Index, d.Input, d.Got, d.Want)
}

// DiffReport is the outcome of one differential fuzzing run.
type DiffReport struct {
	Checked      int
	Instructions int64 // ISA instructions executed (the dRMT tick analogue)
	Diffs        []Diff
	Err          error // non-nil when execution itself failed
}

// Passed reports whether the run found no divergence and no error.
func (r *DiffReport) Passed() bool { return r.Err == nil && len(r.Diffs) == 0 }

// DiffFuzzer streams seeded traffic through the oracle of an ISA machine and
// the table-level machine: the table machine's program linked after the ISA
// machine's (flat.Oracle). It is reusable across runs — Fuzz resets the
// register state first — and Clone yields a worker-private fuzzer, which is
// how campaign workers run dRMT shards concurrently. A DiffFuzzer is not safe
// for concurrent use.
type DiffFuzzer struct {
	prog   *p4.Program
	layout *SlotLayout
	isa    *ISAMachine
	tab    *Machine

	oracle *flat.Oracle
	frame  []int64
	want   []int // the table side's output registers in the linked frame, its drop flag last

	// FuzzSeededMode's traffic plan, kept while the bound and mode it was
	// built for stay the same, and shared with clones: a run starts a
	// generator on it.
	traffic     *phv.Traffic
	trafficMax  int64
	trafficMode TrafficMode
}

// NewDiffFuzzer builds a differential fuzzer for the program over the given
// table entries. Both machines are built over one shared SlotLayout and
// their programs linked into one. When isa is nil the ISA program is
// assembled from the P4 source; passing an explicit (possibly miscompiled)
// ISA program is how compiler bugs are injected under test.
func NewDiffFuzzer(prog *p4.Program, isa *ISAProgram, entries *EntrySet, hw HWConfig) (*DiffFuzzer, error) {
	layout, err := NewSlotLayout(prog)
	if err != nil {
		return nil, err
	}
	isaM, err := newISAMachine(prog, isa, entries, hw, layout)
	if err != nil {
		return nil, err
	}
	tabM, err := newMachine(prog, entries, hw, nil, layout)
	if err != nil {
		return nil, err
	}
	bind := map[int]int{}
	for slot := range layout.fields {
		bind[tabM.in+slot] = isaM.in + slot
	}
	code, regs, err := flat.Link(isaM.code, tabM.code, bind)
	if err != nil {
		return nil, err
	}
	f := &DiffFuzzer{prog: prog, layout: layout, isa: isaM, tab: tabM, want: make([]int, 0, len(tabM.out)+1)}
	pairs := make([]flat.Pair, 0, len(tabM.out)+1)
	for slot, r := range tabM.out {
		f.want = append(f.want, regs[r])
		pairs = append(pairs, flat.Pair{Got: isaM.out[slot], Want: regs[r]})
	}
	f.want = append(f.want, regs[tabM.dropped])
	if isaM.canDrop || tabM.canDrop {
		pairs = append(pairs, flat.Pair{Got: isaM.dropped, Want: regs[tabM.dropped]})
	}
	f.oracle, f.frame = flat.NewOracle(code, isaM.in, layout.NumFields(), pairs, nil, isaM.err), code.NewFrame()
	return f, nil
}

// Clone returns a fuzzer with a private frame, sharing no mutable state
// with the original: the oracle and the traffic plan it shares are
// immutable.
func (f *DiffFuzzer) Clone() *DiffFuzzer {
	c := *f
	c.frame = slices.Clone(f.frame)
	return &c
}

// Fuzz resets both machines and streams n packets from gen — a generator
// of the program's fields, checked by name — through the oracle's packet
// loop (flat.Oracle.Fuzz), which compares the drop flag and every field
// packet by packet. Register state accumulates across the
// stream on both sides (and is compared indirectly, through register_read
// results). Renderings and Diff records are built only for diverging
// packets, so a clean run's total allocation count is O(1) in n. Execution
// failures are findings recorded in DiffReport.Err; a non-nil error is
// returned only for harness misuse.
//
//dvet:hotpath allocs=1
func (f *DiffFuzzer) Fuzz(gen *TrafficGen, n int) (*DiffReport, error) {
	if gen == nil || n <= 0 {
		return nil, fmt.Errorf("drmt: empty fuzz stream") //dvet:alloc-ok harness-misuse error path
	}
	if !slices.Equal(gen.fields, f.layout.fields) {
		return nil, fmt.Errorf("drmt: traffic generator draws fields %v, program has %v", gen.fields, f.layout.fields) //dvet:alloc-ok harness-misuse error path
	}
	f.oracle.Program().Reset(f.frame)
	rep := &DiffReport{} //dvet:alloc-ok one report per run, not per packet
	for i := 0; i < n; i++ {
		at, code, _ := f.oracle.Fuzz(f.frame, &gen.TrafficGen, nil, f.oracle.Pairs(), i, n)
		rep.Checked, i = at, at
		if code != 0 {
			rep.Err = fmt.Errorf("drmt isa: packet %d: %w", gen.Drawn()-1, f.isa.errs[code-1]) //dvet:alloc-ok finding path, at most once per run
			break
		}
		if at < n {
			rep.Checked++
			rep.Diffs = append(rep.Diffs, f.diff(at, gen.Drawn()-1)) //dvet:alloc-ok finding path, diverging packets only
		}
	}
	rep.Instructions = f.frame[f.isa.count]
	return rep, nil
}

// diff renders the packet the two sides have just disagreed on.
func (f *DiffFuzzer) diff(i, id int) Diff {
	r := f.frame
	render := func(out []int, dropped int) string {
		vals := make([]int64, len(out))
		for slot, reg := range out {
			vals[slot] = r[reg]
		}
		return f.layout.FormatSlots(vals, r[dropped] != 0)
	}
	last := len(f.want) - 1
	return Diff{
		Index: i,
		ID:    id,
		Input: f.layout.FormatSlots(r[f.isa.in:f.isa.in+f.layout.NumFields()], false),
		Got:   render(f.isa.out, f.isa.dropped),
		Want:  render(f.want[:last], f.want[last]),
	}
}

// Dispatched runs the stream FuzzSeeded(seed, n, max) runs through the
// oracle's counting run (flat.Oracle.Count), from reset banks, and returns
// how many instructions the packets dispatched, both sides and the link
// included: exact, the same on every host. Like Fuzz it stops at the first
// packet that traps.
func (f *DiffFuzzer) Dispatched(seed int64, n int, max int64) (int64, error) {
	gen, err := NewTrafficGen(seed, f.prog, max)
	if err != nil {
		return 0, err
	}
	dispatched, _ := f.oracle.Count(&gen.TrafficGen, n)
	return dispatched, nil
}

// SetBatch is a declaration only: it selects nothing — Fuzz is the only
// loop and the linked program the only engine. It stays because the frozen
// benchmark/probes.go compiles against the name, and goes when that probe
// loop does.
func (f *DiffFuzzer) SetBatch(int) {}

// FuzzSeeded is Fuzz over the stream a fresh generator would draw: n packets
// seeded by seed, with field values bounded by max (0 = full field widths).
func (f *DiffFuzzer) FuzzSeeded(seed int64, n int, max int64) (*DiffReport, error) {
	return f.FuzzSeededMode(seed, n, max, TrafficUniform)
}

// FuzzSeededMode is FuzzSeeded with an explicit traffic mode. The fuzzer
// keeps the traffic plan of the bound and mode and starts a generator on it
// on its stack, so a shard allocates no random source while the bound and
// mode stay what the previous run used.
func (f *DiffFuzzer) FuzzSeededMode(seed int64, n int, max int64, mode TrafficMode) (*DiffReport, error) {
	if f.traffic == nil || f.trafficMax != max || f.trafficMode != mode {
		plan, err := newTraffic(f.prog, f.layout.fields, max, mode)
		if err != nil {
			return nil, err
		}
		f.traffic, f.trafficMax, f.trafficMode = plan, max, mode
	}
	gen := TrafficGen{fields: f.layout.fields}
	gen.Start(f.traffic, seed)
	return f.Fuzz(&gen, n)
}

// MiscompileALUAdd returns a copy of the program with its first ALU add
// at the given width flipped to a subtract: a deterministic seeded
// compiler bug in the spirit of §5.2's bug-injection methodology, used by
// differential tests to prove the fuzzing loop catches miscompiles. (On
// l2l3, bits 8 hits the ttl decrement, which then moves the wrong way.)
func MiscompileALUAdd(isa *ISAProgram, bits int) (*ISAProgram, error) {
	bad := *isa
	bad.Instrs = append([]Instr(nil), isa.Instrs...)
	for i, in := range bad.Instrs {
		if in.Op == OpALU && in.AOp == ALUAdd && in.Bits == bits {
			bad.Instrs[i].AOp = ALUSub
			return &bad, nil
		}
	}
	return nil, fmt.Errorf("drmt: program has no %d-bit ALU add to miscompile", bits)
}
