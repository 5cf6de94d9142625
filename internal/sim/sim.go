// Package sim is dsim's RMT simulation component (§3.3 of the paper): it
// drives PHVs from a traffic generator through a pipeline description tick
// by tick and implements the fuzzing-based compiler-testing workflow of
// Fig. 5 (pipeline output trace vs. high-level specification output trace).
//
// Tick semantics follow the paper: a PHV is modelled in two halves. At every
// tick each occupied stage reads its PHV's read half and writes the result
// into the write half of the next stage's PHV; at the start of the next tick
// write halves become read halves. A PHV therefore traverses exactly one
// stage per tick.
//
// The level decides what executes, never the caller: the AST interpreter at
// Unoptimized, and flat register programs (core.Fused, package flat) at
// every prechecked level, whose execution core.Build proved total, so they
// have no failure path. Two loops drive them:
//
//   - the tick loop: core.Pipeline.ExecuteStage under Stream, the loop above
//     over a preallocated ring of depth+1 slot buffers — at Unoptimized the
//     interpreter, which returns every failure as an error, at a prechecked
//     level one stage program per stage. dsim, ddbg and the recording
//     Run/RunOpts (traces and optionally per-tick state and slot snapshots,
//     for the time-travel debugger and the trace-diffing tools) run on it at
//     every level, and so does a Fuzzer over an Unoptimized pipeline, where
//     machine code incompatible with the pipeline is a run-time finding, and
//     a Fuzzer at any level handed a specification its cone does not link;
//   - the packet loop (batch.go): one program, one Run per packet on a
//     frame — the whole grid under Batch, and under a Fuzzer at every
//     prechecked level the output cone with a Domino binding's transaction
//     linked after it: the campaign engine's hot path.
//
// Either way the Fuzzer generates traffic directly into its own buffers
// (TrafficGen.Fill) and compares outputs in lock step, so a clean fuzzing
// shard performs O(1) allocation total regardless of packet count.
//
// Traffic comes from phv.TrafficGen, the generator both machine models
// share, drawing from a plan (phv.Traffic) with one column per container,
// every column at the pipeline's bit width; a max beyond that width is
// clamped to it. NewTrafficGen builds a plan and a generator on it; a
// campaign job builds one plan (NewTraffic) and each shard starts a
// generator of its own on it (TrafficGen.Start), on its stack.
package sim

import (
	"errors"
	"fmt"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// TrafficMode selects the distribution a traffic generator draws container
// values from; the type, its two modes and the boundary set are defined
// once in package phv.
type TrafficMode = phv.TrafficMode

const (
	TrafficUniform  = phv.TrafficUniform
	TrafficBoundary = phv.TrafficBoundary
)

// TrafficGen creates sequences of PHVs whose containers hold random unsigned
// integers (§3.3). It is phv.TrafficGen, the one generator both machine
// models draw from, with every column at the pipeline's bit width.
type TrafficGen = phv.TrafficGen

// NewTrafficGen returns a generator producing PHVs with phvLen containers of
// values uniform in [0, max). max <= 0 means the full value range of bits; a
// max beyond that range is clamped to it, so a generated value always fits
// its container.
func NewTrafficGen(seed int64, phvLen int, bits phv.Width, max int64) *TrafficGen {
	g, _ := NewTrafficGenMode(seed, phvLen, bits, max, TrafficUniform)
	return g
}

// NewTrafficGenMode is NewTrafficGen with an explicit traffic mode. Both
// modes draw exactly one random number per container, so a given mode is
// deterministic for a given seed across Fill, Next and Trace.
func NewTrafficGenMode(seed int64, phvLen int, bits phv.Width, max int64, mode TrafficMode) (*TrafficGen, error) {
	return phv.NewTrafficGen(seed, columns(phvLen, bits), max, mode)
}

// NewTraffic returns the traffic plan NewTrafficGenMode's generator draws
// from, with corpus served first (see phv.NewTraffic): one plan per job,
// from which each shard starts a generator of its own.
func NewTraffic(phvLen int, bits phv.Width, max int64, mode TrafficMode, corpus [][]phv.Value) (*phv.Traffic, error) {
	return phv.NewTraffic(columns(phvLen, bits), max, mode, corpus)
}

// columns is phvLen traffic columns of the given width.
func columns(phvLen int, bits phv.Width) []int {
	cols := make([]int, phvLen)
	for i := range cols {
		cols[i] = bits.Bits()
	}
	return cols
}

// Stream is the allocation-free tick-level simulation engine, the driver of
// core.Pipeline.ExecuteStage at every level (the AST interpreter at
// Unoptimized, a stage program per stage above it): a ring of depth+1 slot
// buffers, preallocated once and reused across ticks. Slot i
// holds the read half of the PHV about to execute stage i; slot Depth is
// the completion slot. Admission copies into slot 0, stages execute back to
// front so every PHV advances exactly one stage per tick, and a completed
// PHV surfaces as a buffer owned by the Stream. A Stream is not safe for
// concurrent use.
type Stream struct {
	p        *core.Pipeline
	depth    int
	phvLen   int
	slots    [][]phv.Value // slots[i]: PHV waiting to execute stage i
	occ      []bool
	inFlight int
	ticks    int
}

// NewStream returns a streaming engine over the pipeline, prepared
// (core.Pipeline.Prepare) so that every Tick is allocation-free.
func NewStream(p *core.Pipeline) *Stream {
	p.Prepare()
	depth, phvLen := p.Depth(), p.PHVLen()
	s := &Stream{p: p, depth: depth, phvLen: phvLen}
	backing := make([]phv.Value, (depth+1)*phvLen)
	s.slots = make([][]phv.Value, depth+1)
	for i := range s.slots {
		s.slots[i] = backing[i*phvLen : (i+1)*phvLen : (i+1)*phvLen]
	}
	s.occ = make([]bool, depth+1)
	return s
}

// Depth returns the pipeline depth (the completion slot index).
func (s *Stream) Depth() int { return s.depth }

// Ticks returns the number of completed ticks since the last Reset.
func (s *Stream) Ticks() int { return s.ticks }

// InFlight returns the number of admitted PHVs that have not yet completed.
func (s *Stream) InFlight() int { return s.inFlight }

// Slot returns the values occupying pipeline slot i (slot Depth is the
// completion slot), or nil when the slot is empty. The slice is owned by
// the Stream and valid until the next Tick or Reset; the debugger's
// per-tick snapshots are built from it.
func (s *Stream) Slot(i int) []phv.Value {
	if !s.occ[i] {
		return nil
	}
	return s.slots[i]
}

// Reset empties every slot and zeroes the tick counter. Pipeline state is
// left alone; use core.Pipeline.ResetState for that.
func (s *Stream) Reset() {
	for i := range s.occ {
		s.occ[i] = false
	}
	s.inFlight = 0
	s.ticks = 0
}

// Tick advances the pipeline one tick. A non-nil in is admitted into stage
// 0 (copied, so the caller keeps ownership; len(in) must be PHVLen). When a
// PHV completes this tick its container values are returned in a buffer
// owned by the Stream, valid until the next Tick or Reset; a nil result
// means no PHV completed. Execution errors (possible only on pipelines for
// which Prechecked is false) abort the tick.
//
//dvet:hotpath allocs=0
func (s *Stream) Tick(in []phv.Value) ([]phv.Value, error) {
	// The completion slot is consumed at the start of the next tick, not at
	// the end of the tick it surfaced, so snapshots taken between ticks
	// still see the completed PHV (the debugger relies on this).
	s.occ[s.depth] = false
	if in != nil {
		if len(in) != s.phvLen {
			//dvet:alloc-ok harness-misuse error path, never taken in a clean run
			return nil, fmt.Errorf("sim: input PHV has %d containers, pipeline expects %d", len(in), s.phvLen)
		}
		copy(s.slots[0], in)
		s.occ[0] = true
		s.inFlight++
	}
	for si := s.depth - 1; si >= 0; si-- {
		if !s.occ[si] {
			continue
		}
		if err := s.p.ExecuteStage(si, s.slots[si], s.slots[si+1]); err != nil {
			return nil, err
		}
		s.occ[si] = false
		s.occ[si+1] = true
	}
	s.ticks++
	if s.occ[s.depth] {
		s.inFlight--
		return s.slots[s.depth], nil
	}
	return nil, nil
}

// RunOptions configures a recording simulation run.
type RunOptions struct {
	// RecordStates captures a state snapshot after every tick, enabling the
	// time-travel inspection of pipeline state (§7's debugger direction).
	RecordStates bool

	// RecordSlots captures, after every tick, the PHV occupying each
	// pipeline slot (slot i holds the PHV about to execute stage i; slot
	// Depth is the completion slot). Used by the time-travel debugger.
	RecordSlots bool
}

// Result is the outcome of one recording simulation run.
type Result struct {
	Input      *phv.Trace
	Output     *phv.Trace
	FinalState phv.StateSnapshot
	Ticks      int

	// StateHistory[t] is the snapshot after tick t (only when
	// RunOptions.RecordStates was set).
	StateHistory []phv.StateSnapshot

	// SlotHistory[t][i] is the PHV waiting in slot i after tick t, or nil
	// when the slot is empty (only when RunOptions.RecordSlots was set).
	SlotHistory [][][]phv.Value
}

// Run simulates the pipeline over the input trace tick by tick and returns
// the output trace ("an output trace shows the modified PHVs and the state
// vectors", §3.3). The input trace is not modified. Run materializes the
// full output trace; hot paths that only compare outputs should use the
// streaming Fuzzer instead.
func Run(p *core.Pipeline, input *phv.Trace) (*Result, error) {
	return RunOpts(p, input, RunOptions{})
}

// RunOpts is Run with options.
func RunOpts(p *core.Pipeline, input *phv.Trace, opts RunOptions) (*Result, error) {
	phvLen := p.PHVLen()
	res := &Result{Input: input, Output: phv.NewTrace()}
	st := NewStream(p)
	for next := 0; next < input.Len() || st.InFlight() > 0; {
		// Admit one PHV into the first pipeline stage per tick.
		var in []phv.Value
		if next < input.Len() {
			if input.At(next).Len() != phvLen {
				return nil, fmt.Errorf("sim: input PHV %d has %d containers, pipeline expects %d", next, input.At(next).Len(), phvLen)
			}
			in = input.At(next).Raw()
			next++
		}
		out, err := st.Tick(in)
		if err != nil {
			return nil, fmt.Errorf("sim: tick %d: %w", st.Ticks(), err)
		}
		if opts.RecordSlots {
			snap := make([][]phv.Value, st.Depth()+1)
			for i := range snap {
				if s := st.Slot(i); s != nil {
					snap[i] = append([]phv.Value(nil), s...)
				}
			}
			res.SlotHistory = append(res.SlotHistory, snap)
		}
		if out != nil {
			res.Output.Append(phv.FromValues(out))
		}
		res.Ticks = st.Ticks()
		if opts.RecordStates {
			res.StateHistory = append(res.StateHistory, p.StateSnapshot())
		}
	}
	res.FinalState = p.StateSnapshot()
	return res, nil
}

// Spec is a high-level specification "capturing the intended algorithmic
// behavior on both PHVs and state values" (§3.3). A Spec consumes input PHVs
// in order and produces the expected output PHVs; it may keep internal state
// across calls.
type Spec interface {
	// Name identifies the specification in reports.
	Name() string
	// Process returns the expected output PHV for the next input PHV.
	Process(in *phv.PHV) (*phv.PHV, error)
	// Reset clears all internal state.
	Reset()
}

// StreamSpec is an optional extension of Spec for specifications that can
// process a packet's container values in place, without allocating. The
// streaming Fuzzer uses it to keep clean shards allocation-free; plain
// Specs fall back to Process on a reusable wrapper PHV (correct, but the
// Process implementation usually allocates its output).
type StreamSpec interface {
	Spec
	// ProcessStream overwrites vals with the expected output values for
	// the next input PHV. It must not retain vals across calls.
	ProcessStream(vals []phv.Value) error
}

// SpecFunc adapts a stateless transformation function to the Spec interface.
type SpecFunc struct {
	SpecName string
	Fn       func(in *phv.PHV) (*phv.PHV, error)
}

// Name implements Spec.
func (s *SpecFunc) Name() string { return s.SpecName }

// Process implements Spec.
func (s *SpecFunc) Process(in *phv.PHV) (*phv.PHV, error) { return s.Fn(in) }

// Reset implements Spec.
func (s *SpecFunc) Reset() {}

// RunSpec runs a specification over an input trace, producing its expected
// output trace.
func RunSpec(s Spec, input *phv.Trace) (*phv.Trace, error) {
	s.Reset()
	out := phv.NewTrace()
	for i := 0; i < input.Len(); i++ {
		o, err := s.Process(input.At(i).Clone())
		if err != nil {
			return nil, fmt.Errorf("sim: spec %q, PHV %d: %w", s.Name(), i, err)
		}
		out.Append(o)
	}
	return out, nil
}

// FuzzOptions configures equivalence fuzzing.
type FuzzOptions struct {
	// Containers restricts the comparison to these container indices
	// (nil compares every container).
	Containers []int
}

// FuzzReport is the outcome of one fuzzing session.
type FuzzReport struct {
	SpecName string
	Checked  int  // PHVs compared (including a mismatching one)
	Passed   bool // true when every PHV matched

	// On failure:
	FailIndex int      // index of the first mismatching PHV (-1 if none)
	Input     *phv.PHV // the mismatching input
	Got       *phv.PHV // pipeline output
	Want      *phv.PHV // spec output
	Err       error    // non-nil when simulation itself failed
}

// String renders the report for humans.
func (r *FuzzReport) String() string {
	if r.Passed {
		return fmt.Sprintf("PASS: %s: %d PHVs match", r.SpecName, r.Checked)
	}
	if r.Err != nil {
		return fmt.Sprintf("FAIL: %s: simulation error after %d PHVs: %v", r.SpecName, r.Checked, r.Err)
	}
	return fmt.Sprintf("FAIL: %s: PHV %d: input %s: pipeline %s, spec %s",
		r.SpecName, r.FailIndex, r.Input, r.Got, r.Want)
}

// Fuzz implements the compiler-testing workflow of Fig. 5: the input trace
// is fed both to the pipeline and to the specification, and the two output
// traces are compared. The run starts from reset state on a fresh Fuzzer's
// private clone; p is not mutated. A non-nil error is returned only for
// harness misuse (an empty trace, a compared container outside the PHV, a
// failing specification); simulation failures (e.g. machine code
// incompatible with the pipeline, or a trace entry of the wrong length or
// with a value outside the datapath) are reported in FuzzReport.Err, since
// they are test findings (§5.2's first failure class).
//
// Fuzz and FuzzRandom are the two shortcuts over the Fuzzer, for callers
// that want one first-mismatch verdict on a trace or a seed; everything else
// (every mismatch, tick counts, many runs over one pipeline) holds a Fuzzer
// and calls its Fuzz or FuzzGen.
func Fuzz(p *core.Pipeline, spec Spec, input *phv.Trace, opts FuzzOptions) (*FuzzReport, error) {
	batch, err := NewFuzzer(p).Fuzz(spec, input.Len(), traceFeed(input, p.PHVLen()), opts, 1)
	if err != nil {
		return nil, err
	}
	return fuzzReportOf(batch), nil
}

// traceFeed adapts a materialized trace to the Fuzzer's input callback; a
// PHV of the wrong length is a simulation finding at its index.
func traceFeed(input *phv.Trace, phvLen int) func(dst []phv.Value) error {
	i := 0
	return func(dst []phv.Value) error {
		in := input.At(i)
		if in.Len() != phvLen {
			return fmt.Errorf("sim: input PHV %d has %d containers, pipeline expects %d", i, in.Len(), phvLen)
		}
		copy(dst, in.Raw())
		i++
		return nil
	}
}

// fuzzReportOf condenses a BatchReport into the single-mismatch FuzzReport.
// Checked counts every PHV compared, including a mismatching one (so a
// first-packet mismatch reports Checked=1, FailIndex=0).
func fuzzReportOf(batch *BatchReport) *FuzzReport {
	report := &FuzzReport{SpecName: batch.SpecName, Checked: batch.Checked, FailIndex: -1, Err: batch.Err}
	if report.Err != nil {
		return report
	}
	if len(batch.Mismatches) > 0 {
		m := batch.Mismatches[0]
		report.Checked = m.Index + 1
		report.FailIndex = m.Index
		report.Input = m.Input
		report.Got = m.Got
		report.Want = m.Want
		return report
	}
	report.Passed = true
	return report
}

// Mismatch is one diverging PHV found by the fuzzer: the pipeline and the
// specification disagreed on the trace entry at Index.
type Mismatch struct {
	Index int      // position in the input trace
	Input *phv.PHV // the diverging input
	Got   *phv.PHV // pipeline output
	Want  *phv.PHV // spec output
}

// String renders the mismatch for humans.
func (m *Mismatch) String() string {
	return fmt.Sprintf("PHV %d: input %s: pipeline %s, spec %s", m.Index, m.Input, m.Got, m.Want)
}

// BatchReport is the outcome of a whole-stream fuzzing comparison: the
// multi-mismatch variant of FuzzReport consumed by the campaign engine,
// which keeps scanning past the first divergence so counterexamples can be
// aggregated and deduplicated across shards.
type BatchReport struct {
	SpecName   string
	Checked    int // PHVs compared (the full stream unless simulation failed)
	Ticks      int // pipeline ticks consumed by the run
	Mismatches []Mismatch
	Err        error // non-nil when simulation itself failed
}

// Passed reports whether the batch found no divergence and no error.
func (r *BatchReport) Passed() bool { return r.Err == nil && len(r.Mismatches) == 0 }

// Fuzzer runs the Fig. 5 comparison in lock step over reusable buffers:
// packet i is generated, the specification consumes it on the spot, and the
// expected output waits until the pipeline's output for packet i is
// available and the two are compared. PHVs are cloned only for mismatches,
// so a clean run performs O(1) allocation total — for StreamSpec
// specifications, zero steady-state allocations per PHV.
//
// Each run picks one of two kernels from the pipeline and the specification,
// never from the caller. A Domino specification (domino.PHVSpec) on a
// prechecked pipeline runs as the fused output cone with its transaction
// linked after it (domino.Binding.Link, once per pipeline build and binding),
// one flat-program Run per packet (fuzzFused): the specification is not
// called at all, a packet is one Run of one program on one frame and a
// compare of output registers with the transaction's field registers, and
// its state lives in the frame during a run and is handed back to the
// instance at the end. Everything else runs one tick at a time on a Stream
// (fuzzTicks): the Unoptimized level, the naive reference whose machine code
// can still fail at run time, and any specification the cone cannot link — a
// SpecFunc, any other Spec, a binding of another width or with a field past
// the PHV. Reports are byte-identical between the two kernels; a kernel's
// buffers exist only once a run has used it.
//
// A Fuzzer is bound to one pipeline and reusable across runs (the campaign
// engine keeps one per worker per job). It never mutates the pipeline it was
// built from: the fused and linked programs are immutable and shared, the
// frame is the fuzzer's own, and the tick loop executes a private clone. It
// is not safe for concurrent use.
type Fuzzer struct {
	pipe   *core.Pipeline
	specIn *phv.PHV // reusable wrapper for non-streaming specs, made on first use

	// Tick loop, made on first use: a Stream over a clone of pipe; packet
	// i's input and expected output live at ring slot i%win, win = depth+1
	// in-flight packets, until its output surfaces and is compared.
	stream       *Stream
	inputs, want [][]phv.Value

	// Fused loop: the cone (nil at Unoptimized), the last binding a run was
	// handed and the oracle linking it after the cone (nil when it does not
	// link), this fuzzer's frame for the last oracle (the source fills its
	// input registers in place) and the subset of its pairs a run that
	// compares some containers selects.
	fused  *core.Fused
	key    *domino.Binding
	oracle *oracle
	frame  []int64
	pairs  []flat.Pair
}

// NewFuzzer returns a fuzzer over the pipeline. The fuzzer observes output
// PHVs only, never ALU state, so on a prechecked pipeline it executes the
// output cone core.Build fused (core.Pipeline.Cone) for a Domino binding:
// only the ALUs whose results can reach an output container run, on a frame
// the first run lays out for its specification. Every other run executes a
// clone of the pipeline whole on the tick loop. Either way p itself is never
// executed or mutated, and the buffers are reused by every subsequent Fuzz
// run.
func NewFuzzer(p *core.Pipeline) *Fuzzer { return &Fuzzer{pipe: p, fused: p.Cone()} }

// startTicks lays out the tick loop over a clone of the pipeline, which it
// executes and mutates: a Stream and the two rings.
func (f *Fuzzer) startTicks() {
	p := f.pipe.Clone()
	phvLen, win := p.PHVLen(), p.Depth()+1
	f.stream = NewStream(p)
	f.inputs, f.want = valueRows(win, phvLen), valueRows(win, phvLen)
}

// valueRows returns n cap-pinned PHVLen rows over one backing array. Want
// rows are refilled by append from empty, so a spec returning a wrong-length
// PHV is caught by the comparison.
func valueRows(n, phvLen int) [][]phv.Value {
	backing := make([]phv.Value, n*phvLen)
	rows := make([][]phv.Value, n)
	for i := range rows {
		rows[i] = backing[i*phvLen : (i+1)*phvLen : (i+1)*phvLen]
	}
	return rows
}

// Pipeline returns the pipeline the fuzzer was built over, for its dimensions
// and level.
func (f *Fuzzer) Pipeline() *core.Pipeline { return f.pipe }

// FuzzGen runs the lock-step comparison over n PHVs drawn from gen, which
// must draw one column per container: a generator of another shape is
// harness misuse, like a compared container outside the PHV.
//
//dvet:hotpath allocs=1
func (f *Fuzzer) FuzzGen(spec Spec, gen *TrafficGen, n int, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	if cols, phvLen := gen.Columns(), f.pipe.PHVLen(); cols != phvLen {
		return nil, fmt.Errorf("sim: traffic generator draws %d columns, pipeline has %d containers", cols, phvLen) //dvet:alloc-ok harness-misuse error path
	}
	return f.fuzz(spec, n, source{gen: gen}, opts, maxMismatches)
}

// Fuzz runs the lock-step comparison over n input PHVs produced by next,
// which must fill the PHVLen-sized buffer it is handed with values of the
// pipeline's width (an error from next, or a value outside [0, 2^bits), is
// recorded as a simulation finding, like a malformed trace entry).
// Collection stops after maxMismatches diverging PHVs (0 = unbounded). The
// pipeline's state and the specification are reset first. Like Fuzz,
// simulation failures land in BatchReport.Err; only harness misuse — n <= 0,
// a compared container outside [0, PHVLen), a failing specification —
// returns a non-nil error.
//
//dvet:hotpath allocs=1
func (f *Fuzzer) Fuzz(spec Spec, n int, next func(dst []phv.Value) error, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	return f.fuzz(spec, n, source{next: next, w: f.pipe.Bits()}, opts, maxMismatches)
}

// fuzz checks the run's arguments and hands the run to its loop: the fused
// loop for a Domino binding the cone links, the tick loop for the rest.
//
//dvet:hotpath allocs=1
func (f *Fuzzer) fuzz(spec Spec, n int, src source, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	if n <= 0 {
		return nil, errors.New("sim: empty input trace")
	}
	if err := checkContainers(opts.Containers, f.pipe.PHVLen()); err != nil {
		return nil, err
	}
	if ps, ok := spec.(*domino.PHVSpec); ok && f.useOracle(ps.Binding()) != nil {
		return f.fuzzFused(ps, n, src, opts, maxMismatches)
	}
	return f.fuzzTicks(spec, n, src, opts, maxMismatches)
}

// source is where a run's packets come from: a generator, drawn from
// directly, or the caller's callback for a datapath of width w.
type source struct {
	gen  *TrafficGen
	next func(dst []phv.Value) error
	w    phv.Width
}

// fill draws packet i into dst. A callback's value outside [0, 2^bits) is a
// finding, like a malformed trace entry: the flat programs are optimized on
// the promise that every container fits, as a generator's values do.
func (s source) fill(i int, dst []phv.Value) error {
	if s.gen != nil {
		s.gen.Fill(dst)
		return nil
	}
	if err := s.next(dst); err != nil {
		return err
	}
	for c, v := range dst {
		if v < 0 || v > s.w.Mask() {
			return fmt.Errorf("sim: input PHV %d container %d holds %d, outside the %d-bit datapath", i, c, v, s.w.Bits())
		}
	}
	return nil
}

// admit draws packet i from src into in and leaves the specification's
// expected output for it in *want: the tick loop's step, taken at packet i's
// admission, so generator and spec state advance in packet order. A
// generator failure is a finding and comes back bare as genErr; a
// specification failure is harness misuse and comes back as specErr,
// carrying the spec's name and i.
//
//dvet:hotpath allocs=0
func (f *Fuzzer) admit(spec Spec, ss StreamSpec, i int, src source, in []phv.Value, want *[]phv.Value) (genErr, specErr error) {
	if err := src.fill(i, in); err != nil {
		return err, nil
	}
	if ss != nil {
		*want = append((*want)[:0], in...) //dvet:alloc-ok append into the row's cap-pinned backing, never grows
		if err := ss.ProcessStream(*want); err != nil {
			return nil, fmt.Errorf("sim: spec %q, PHV %d: %w", spec.Name(), i, err) //dvet:alloc-ok spec-failure error path
		}
		return nil, nil
	}
	if f.specIn == nil {
		f.specIn = phv.New(len(in)) //dvet:alloc-ok once per fuzzer
	}
	copy(f.specIn.Raw(), in)
	out, err := spec.Process(f.specIn)
	if err != nil {
		return nil, fmt.Errorf("sim: spec %q, PHV %d: %w", spec.Name(), i, err) //dvet:alloc-ok spec-failure error path
	}
	*want = append((*want)[:0], out.Raw()...) //dvet:alloc-ok append into the row's cap-pinned backing, never grows
	return nil, nil
}

// mismatchOf records one diverging packet; the three vectors are copied.
func mismatchOf(index int, input, got, want []phv.Value) Mismatch {
	return Mismatch{Index: index, Input: phv.FromValues(input), Got: phv.FromValues(got), Want: phv.FromValues(want)}
}

// fuzzTicks is Fuzz on the tick loop: packet i is admitted into the Stream
// on tick i and its output, surfacing depth-1 ticks later, is compared with
// the expectation that waited in the ring.
//
//dvet:hotpath allocs=1
func (f *Fuzzer) fuzzTicks(spec Spec, n int, src source, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	report := &BatchReport{SpecName: spec.Name()} //dvet:alloc-ok one report per run, not per PHV
	if f.stream == nil {
		f.startTicks()
	}
	f.stream.p.ResetState()
	f.stream.Reset()
	spec.Reset()
	ss, _ := spec.(StreamSpec)
	win := len(f.inputs)
	fed, compared := 0, 0
	//dvet:alloc-ok per-run epilogue closure, not per PHV
	finish := func() *BatchReport {
		report.Checked = compared
		report.Ticks = f.stream.Ticks()
		return report
	}
	for fed < n || f.stream.InFlight() > 0 {
		var in []phv.Value
		if fed < n {
			slot := fed % win
			in = f.inputs[slot]
			genErr, specErr := f.admit(spec, ss, fed, src, in, &f.want[slot])
			if genErr != nil {
				report.Err = genErr
				return finish(), nil
			}
			if specErr != nil {
				return nil, specErr
			}
			fed++
		}
		out, err := f.stream.Tick(in)
		if err != nil {
			report.Err = fmt.Errorf("sim: tick %d: %w", f.stream.Ticks(), err) //dvet:alloc-ok finding path, at most once per run
			return finish(), nil
		}
		if out == nil {
			continue
		}
		slot := compared % win
		if !equalVals(out, f.want[slot], opts.Containers) {
			//dvet:alloc-ok mismatch collection is the cold path; clean runs never reach it
			report.Mismatches = append(report.Mismatches, mismatchOf(compared, f.inputs[slot], out, f.want[slot]))
			if maxMismatches > 0 && len(report.Mismatches) >= maxMismatches {
				compared++
				return finish(), nil
			}
		}
		compared++
	}
	return finish(), nil
}

// FuzzRandom drives a fresh fuzzer with n PHVs from a fresh traffic
// generator and condenses the outcome to a first-mismatch FuzzReport.
func FuzzRandom(p *core.Pipeline, spec Spec, seed int64, n int, maxValue int64, opts FuzzOptions) (*FuzzReport, error) {
	gen := NewTrafficGen(seed, p.PHVLen(), p.Bits(), maxValue)
	batch, err := NewFuzzer(p).FuzzGen(spec, gen, n, opts, 1)
	if err != nil {
		return nil, err
	}
	return fuzzReportOf(batch), nil
}

// checkContainers rejects a comparison set that names a container outside
// the PHV, which the comparisons would otherwise index blindly, and one that
// is empty but not nil: comparing nothing would pass any miscompile (nil
// means every container).
func checkContainers(containers []int, phvLen int) error {
	if containers != nil && len(containers) == 0 {
		return errors.New("sim: empty set of compare containers: nothing would be compared (nil compares every container)")
	}
	for _, c := range containers {
		if c < 0 || c >= phvLen {
			return fmt.Errorf("sim: compare container %d out of range [0,%d)", c, phvLen)
		}
	}
	return nil
}

// equalVals compares two value vectors on the selected containers (nil =
// every container). Vectors of different lengths never compare equal.
func equalVals(got, want []phv.Value, containers []int) bool {
	if len(got) != len(want) {
		return false
	}
	if containers == nil {
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for _, c := range containers {
		if got[c] != want[c] {
			return false
		}
	}
	return true
}
