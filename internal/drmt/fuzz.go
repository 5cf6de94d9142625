// fuzz.go is the dRMT analogue of package sim's Fig. 5 fuzzing loop: the
// ISA-level machine (§7's low-granularity dRMT model) is the system under
// test and the table-level Machine — a direct interpreter of the mini-P4
// program — is its behavioral specification. Random packets stream through
// both and every field plus the drop flag is compared packet by packet, so
// a bug in the assembler or the ISA lowering surfaces as a concrete
// counterexample packet.
//
// Both machines are lowered to flat programs over one SlotLayout, and the
// table machine's is linked after the ISA machine's (flat.Link): one program
// on one frame, the table side reading the packet from the ISA side's input
// registers, which neither writes. A packet is one Fill into those
// registers, one Run and a compare over the pairs of registers that hold a
// field, or the drop flag, at the end of each side. Canonical string
// renderings and Diff records are materialized only on mismatch and the
// seeded entry points reseed one kept generator, so a clean shard allocates
// its report and nothing else.
package drmt

import (
	"fmt"
	"slices"

	"druzhba/internal/flat"
	"druzhba/internal/p4"
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

// DiffFuzzer streams seeded traffic through the linked program of an ISA
// machine and the table-level machine. It is reusable across runs — Fuzz
// resets the register state first — and Clone yields a worker-private
// fuzzer, which is how campaign workers run dRMT shards concurrently. A
// DiffFuzzer is not safe for concurrent use.
type DiffFuzzer struct {
	prog   *p4.Program
	layout *SlotLayout
	isa    *ISAMachine
	tab    *Machine

	code  *flat.Program // the table machine's program linked after the ISA machine's
	frame []int64
	regs  []int    // where the table program's registers are in the linked frame
	pairs [][2]int // (ISA, table) registers of a field or the drop flag at the end, which can differ

	// FuzzSeededMode's generator, reseeded per run while the bound and mode
	// it was built for stay the same.
	gen     *TrafficGen
	genMax  int64
	genMode TrafficMode
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
	f := &DiffFuzzer{prog: prog, layout: layout, isa: isaM, tab: tabM, code: code, frame: code.NewFrame(), regs: regs}
	for slot, r := range isaM.out {
		if w := regs[tabM.out[slot]]; w != r {
			f.pairs = append(f.pairs, [2]int{r, w})
		}
	}
	if isaM.canDrop || tabM.canDrop {
		f.pairs = append(f.pairs, [2]int{isaM.dropped, regs[tabM.dropped]})
	}
	return f, nil
}

// Program returns the program under differential test.
func (f *DiffFuzzer) Program() *p4.Program { return f.prog }

// Layout returns the slot layout shared by both machines.
func (f *DiffFuzzer) Layout() *SlotLayout { return f.layout }

// Clone returns a fuzzer with a private frame, sharing no mutable state
// with the original.
func (f *DiffFuzzer) Clone() *DiffFuzzer {
	c := *f
	c.frame = slices.Clone(f.frame)
	c.gen = nil
	return &c
}

// Reset zeroes the register state of both machines.
func (f *DiffFuzzer) Reset() { f.code.Reset(f.frame) }

// Fuzz is the one dRMT packet loop: it resets both machines and streams n
// packets from gen through the linked program, comparing the drop flag and
// every field packet by packet. Register state accumulates across the
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
	if gen.NumFields() != f.layout.NumFields() {
		return nil, fmt.Errorf("drmt: traffic generator has %d fields, program has %d", gen.NumFields(), f.layout.NumFields()) //dvet:alloc-ok harness-misuse error path
	}
	f.Reset()
	rep := &DiffReport{} //dvet:alloc-ok one report per run, not per packet
	r := f.frame
	in := r[f.isa.in : f.isa.in+f.layout.NumFields()]
	for i := 0; i < n; i++ {
		id := gen.Fill(in)
		f.code.Run(r)
		if code := r[f.isa.err]; code != 0 {
			rep.Instructions = r[f.isa.count]
			rep.Err = fmt.Errorf("drmt isa: packet %d: %w", id, f.isa.errs[code-1]) //dvet:alloc-ok finding path, at most once per run
			return rep, nil
		}
		rep.Checked++
		for _, p := range f.pairs {
			if r[p[0]] != r[p[1]] {
				rep.Diffs = append(rep.Diffs, f.diff(i, id)) //dvet:alloc-ok finding path, diverging packets only
				break
			}
		}
	}
	rep.Instructions = r[f.isa.count]
	return rep, nil
}

// diff renders the packet the two sides have just disagreed on.
func (f *DiffFuzzer) diff(i, id int) Diff {
	r := f.frame
	render := func(e *engine, regs func(int) int) string {
		vals := make([]int64, len(e.out))
		for slot, reg := range e.out {
			vals[slot] = r[regs(reg)]
		}
		return f.layout.FormatSlots(vals, r[regs(e.dropped)] != 0)
	}
	same := func(reg int) int { return reg }
	return Diff{
		Index: i,
		ID:    id,
		Input: f.layout.FormatSlots(r[f.isa.in:f.isa.in+f.layout.NumFields()], false),
		Got:   render(&f.isa.engine, same),
		Want:  render(&f.tab.engine, func(reg int) int { return f.regs[reg] }),
	}
}

// Dispatched runs the stream FuzzSeeded(seed, n, max) runs through the
// counting clone of the linked program, from reset banks, and returns how
// many of its instructions the packets dispatched, both sides and the link
// included: exact, the same on every host. Like Fuzz it stops at the first
// packet that traps.
func (f *DiffFuzzer) Dispatched(seed int64, n int, max int64) (int64, error) {
	gen, err := NewTrafficGen(seed, f.prog, max)
	if err != nil {
		return 0, err
	}
	c, first := f.code.Counting()
	r := c.NewFrame()
	in := r[f.isa.in : f.isa.in+f.layout.NumFields()]
	for i := 0; i < n && r[f.isa.err] == 0; i++ {
		gen.Fill(in)
		c.Run(r)
	}
	return sum64(r[first : first+f.code.Len()]), nil
}

// sum64 adds up the counts.
func sum64(counts []int64) (n int64) {
	for _, c := range counts {
		n += c
	}
	return n
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
// keeps its generator and reseeds it, so a shard allocates no random source
// while the bound and mode stay what the previous run used.
func (f *DiffFuzzer) FuzzSeededMode(seed int64, n int, max int64, mode TrafficMode) (*DiffReport, error) {
	if f.gen != nil && f.genMax == max && f.genMode == mode {
		f.gen.Reseed(seed)
	} else {
		gen, err := NewTrafficGenMode(seed, f.prog, max, mode)
		if err != nil {
			return nil, err
		}
		f.gen, f.genMax, f.genMode = gen, max, mode
	}
	return f.Fuzz(f.gen, n)
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
