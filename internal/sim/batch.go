// batch.go drives the production kernel: a prechecked pipeline fused into one
// flat register program (core.Fused), run once per packet on a frame — the
// whole grid by Batch, and by the fuzzer as a flat.Oracle: the output cone
// with a Domino binding's transaction linked after it, so the expected
// outputs are registers of the same frame. The fuzzer runs the oracle's one
// packet loop (flat.Oracle.Fuzz), the loop package drmt runs too, and counts
// through its one counting run; what stays here is report shaping: the
// mismatch records and the tick loop's stopping rules. The pipeline's program
// has no failure path, so neither do its drivers: the errors left are a
// Batch.Run outside the engine's capacity and the transaction's own traps.
//
// Fused execution is observationally identical to the tick loop. The
// pipeline is feedforward and all mutable state is private to one (stage,
// slot) ALU; both schedules visit each ALU's state in packet-admission
// order, so outputs and final state are byte-identical, and the fuzzer's
// fused loop reconstructs tick counts from the streaming schedule's
// arithmetic (a packet admitted at tick i completes at tick i+depth-1).
package sim

import (
	"fmt"
	"slices"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// Batch runs packets through the whole ALU grid of a prechecked pipeline
// (core.Pipeline.FuseGrid) a vector at a time: Load copies packets in, Run
// executes them in order and Out reads the results back. The pipeline's
// stateful ALU state advances exactly as a streaming run over the same
// packets would advance it. Rows are owned by the Batch and reused across
// runs. A Batch is not safe for concurrent use.
type Batch struct {
	p       *core.Pipeline
	fused   *core.Fused
	frame   []int64
	in, out [][]phv.Value // one row per packet
}

// NewBatch returns a batch engine over the pipeline with room for capacity
// packets per run. Only prechecked pipelines fuse; callers with unoptimized
// pipelines use a Stream (the fuzzer selects its loop by the same rule).
func NewBatch(p *core.Pipeline, capacity int) (*Batch, error) {
	fused := p.FuseGrid()
	if fused == nil {
		return nil, fmt.Errorf("sim: batch execution requires a prechecked pipeline")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sim: batch capacity %d < 1", capacity)
	}
	p.Prepare() // Run loads and stores the state the stage frames hold
	return &Batch{
		p: p, fused: fused, frame: fused.NewFrame(),
		in: valueRows(capacity, p.PHVLen()), out: valueRows(capacity, p.PHVLen()),
	}, nil
}

// Cap returns the engine's packet capacity per run.
func (b *Batch) Cap() int { return len(b.in) }

// Load copies one packet's container values into row k; the caller keeps
// ownership of vals.
func (b *Batch) Load(k int, vals []phv.Value) { copy(b.in[k], vals) }

// Out returns packet k's output PHV from the last Run. The row is owned by
// the Batch and valid until the next Run.
func (b *Batch) Out(k int) []phv.Value { return b.out[k] }

// Run executes the first n loaded packets, in order, leaving results
// readable via Out. The only error is an n outside [1, Cap]: execution of a
// prechecked pipeline cannot fail.
//
//dvet:hotpath allocs=0
func (b *Batch) Run(n int) error {
	if n < 1 || n > len(b.in) {
		//dvet:alloc-ok harness-misuse error path, never taken in a clean run
		return fmt.Errorf("sim: batch run of %d packets, capacity %d", n, len(b.in))
	}
	b.fused.LoadState(b.frame, b.p)
	in, regs := b.fused.Inputs(b.frame), b.fused.Out()
	for k := 0; k < n; k++ {
		copy(in, b.in[k])
		b.fused.Run(b.frame)
		gatherRegs(b.frame, regs, b.out[k])
	}
	b.fused.StoreState(b.frame, b.p)
	return nil
}

// gatherRegs copies the output PHV out of the frame: container c from
// register regs[c].
func gatherRegs(frame []int64, regs []int, dst []phv.Value) []phv.Value {
	dst = dst[:len(regs)]
	for c, r := range regs {
		dst[c] = frame[r]
	}
	return dst
}

// oracle is what the fused loop runs for one Domino binding: the pipeline's
// cone with the binding's transaction linked after it (domino.Linked).
// Container c's expected value is register want[c] of the one frame, its
// output register out[c], and the flat.Oracle compares the two where they
// differ. An oracle is immutable and built once per cone and binding
// (core.Fused.Linked).
type oracle struct {
	*flat.Oracle
	out, want []int
	link      *domino.Linked
}

// newOracle links the binding b after the cone, and returns nil when it does
// not link there — a field past the pipeline's containers, another width —
// so that b runs on the tick loop like any other specification.
func newOracle(cone *core.Fused, phvLen int, b *domino.Binding) *oracle {
	in := make([]int, phvLen)
	for c := range in {
		in[c] = cone.InputReg(c)
	}
	l, err := b.Link(cone.Program, in)
	if err != nil {
		return nil
	}
	// flat.Optimize observes everything read after a Run: the pipeline's
	// output registers and the expected ones, which the loop compares and a
	// mismatch renders, the flags and error register the loop clears, the
	// state StoreState hands back and the trap register. An output, an
	// expected value or a state variable may end in another register, the
	// source of the copy that was its last write: the oracle reads it there.
	seen := [][]int{cone.Out(), l.Want, l.Clear, l.State}
	if l.Trap >= 0 {
		seen = append(seen, []int{l.Trap})
	}
	prog, end, err := flat.Optimize(l.Program, seen...)
	if err != nil {
		panic(err) // Optimize keeps a checked program checked
	}
	link := *l
	link.State = ends(l.State, end)
	o := &oracle{out: ends(cone.Out(), end), want: ends(l.Want, end), link: &link}
	pairs := make([]flat.Pair, phvLen)
	for c, got := range o.out {
		pairs[c] = flat.Pair{Got: got, Want: o.want[c]}
	}
	o.Oracle = flat.NewOracle(prog, cone.InputReg(0), phvLen, pairs, l.Clear, l.Trap)
	return o
}

// ends returns where each of regs ends, by flat.Optimize's end map.
func ends(regs, end []int) []int {
	at := make([]int, len(regs))
	for i, r := range regs {
		at[i] = end[r]
	}
	return at
}

// useOracle returns the oracle that links b after the fuzzer's cone, nil
// when the fuzzer has no cone or b does not link there, and lays out a frame
// for it when it is not the one the last fused run used.
func (f *Fuzzer) useOracle(b *domino.Binding) *oracle {
	if f.fused == nil {
		return nil
	}
	if b != f.key {
		//dvet:alloc-ok once per fuzzer and specification binding, not per run
		o := f.fused.Linked(b, func() any { return newOracle(f.fused, f.pipe.PHVLen(), b) }).(*oracle)
		if o != nil {
			f.frame = o.Program().NewFrame()
		}
		f.key, f.oracle = b, o
	}
	return f.oracle
}

// comparePairs returns the oracle's pairs of the compared containers (nil =
// every container): the oracle's own slice when they select all of its
// pairs, else the subset, copied into the fuzzer's reused slice.
func (f *Fuzzer) comparePairs(o *oracle, containers []int) []flat.Pair {
	all := o.Pairs()
	if containers == nil {
		return all
	}
	compared := func(p flat.Pair) bool {
		return slices.ContainsFunc(containers, func(c int) bool { return o.out[c] == p.Got && o.want[c] == p.Want })
	}
	first := slices.IndexFunc(all, func(p flat.Pair) bool { return !compared(p) })
	if first < 0 {
		return all
	}
	pairs := append(f.pairs[:0], all[:first]...)
	for _, p := range all[first+1:] {
		if compared(p) {
			pairs = append(pairs, p)
		}
	}
	f.pairs = pairs
	return pairs
}

// regsPHV copies out of the frame the PHV whose container c is register
// regs[c].
func regsPHV(frame []int64, regs []int) *phv.PHV {
	p := phv.New(len(regs))
	gatherRegs(frame, regs, p.Raw())
	return p
}

// fuzzFused is FuzzGen on the fused program: the oracle's packet loop
// (flat.Oracle.Fuzz) runs the pipeline and, linked after it, the
// specification's transaction, and compares the pairs of output registers.
// Reports are byte-identical to the tick loop's: a capped run reconstructs
// the exact point the tick loop would have stopped, and the specification's
// state is handed back to the instance as the tick loop leaves it.
// Execution itself cannot stop the run; a trap of the specification is
// harness misuse, returned as the error, as the tick loop returns it.
//
//dvet:hotpath allocs=1
func (f *Fuzzer) fuzzFused(spec *domino.PHVSpec, n int, gen *TrafficGen, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	report := &BatchReport{SpecName: spec.Name()} //dvet:alloc-ok one report per run, not per PHV
	o := f.oracle
	o.Program().Reset(f.frame)
	spec.Reset()
	r := fusedRun{f: f, o: o, spec: spec, in: f.fused.Inputs(f.frame), pairs: f.comparePairs(o, opts.Containers), maxMismatches: maxMismatches}
	r.run(n, gen)
	o.link.StoreState(f.frame, spec)
	if r.trap != nil {
		return nil, r.trap
	}
	return f.finishFused(report, r.mms, maxMismatches, n), nil
}

// fusedRun is one run of the fused loop: what it runs and compares, and what
// it found.
type fusedRun struct {
	f             *Fuzzer
	o             *oracle
	spec          Spec
	in            []phv.Value // the frame's input registers
	pairs         []flat.Pair
	maxMismatches int

	mms  []Mismatch
	trap error // the specification's trap that stopped the run
}

// run runs up to n packets through the oracle's packet loop, resuming after
// each diverging packet.
//
//dvet:hotpath allocs=0
func (r *fusedRun) run(n int, gen *TrafficGen) {
	for i := 0; i < n; i++ {
		at, trap := r.o.Fuzz(r.f.frame, gen, r.pairs, i, n)
		if trap != 0 {
			r.trap = fmt.Errorf("sim: spec %q, PHV %d: %w", r.spec.Name(), at, r.o.link.Error(trap)) //dvet:alloc-ok spec-failure error path
			return
		}
		if at < n {
			n = r.mismatch(at, n, regsPHV(r.f.frame, r.o.want)) //dvet:alloc-ok mismatch path
		}
		i = at
	}
}

// mismatch records packet i as diverging from want and returns how many
// packets the run goes on to, n unless this mismatch reaches the cap. The
// tick loop notices the cap only when the capping packet surfaces, depth-1
// ticks after its admission, and admits a packet on each of those ticks,
// where a specification trap still beats the cap: the run stops only once
// those packets have been admitted here too.
func (r *fusedRun) mismatch(i, n int, want *phv.PHV) int {
	r.mms = append(r.mms, Mismatch{Index: i, Input: phv.FromValues(r.in), Got: regsPHV(r.f.frame, r.o.out), Want: want})
	if len(r.mms) == r.maxMismatches {
		return min(n, i+r.f.pipe.Depth())
	}
	return n
}

// finishFused assembles the report of a run no trap stopped from its
// mismatches, by the tick loop's stopping rule: the stream runs to
// completion (n packets over n+depth-1 ticks) unless the cap fires, the
// tick the maxMismatches-th diverging packet surfaces; mismatches among the
// packets admitted after it are dropped.
func (f *Fuzzer) finishFused(report *BatchReport, mms []Mismatch, maxMismatches, n int) *BatchReport {
	depth := f.pipe.Depth()
	if maxMismatches > 0 && len(mms) >= maxMismatches {
		capM := mms[maxMismatches-1]
		report.Mismatches = mms[:maxMismatches]
		report.Checked = capM.Index + 1
		report.Ticks = capM.Index + depth
		return report
	}
	report.Mismatches = mms
	report.Checked = n
	report.Ticks = n + depth - 1
	return report
}
