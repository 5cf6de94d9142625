// batch.go drives the production kernel: a prechecked pipeline fused into one
// flat register program (core.Fused), run once per packet on a frame. The
// program has no failure path, so neither do its drivers: the one error left
// is a Batch.Run outside the engine's capacity.
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

	"druzhba/internal/core"
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

// equalRegs compares the output PHV in the frame against a row vector on the
// selected containers (nil = every container), with the same wrong-length
// rule as equalVals.
func equalRegs(frame []int64, regs []int, want []phv.Value, containers []int) bool {
	if len(regs) != len(want) {
		return false
	}
	if containers == nil {
		for c, r := range regs {
			if frame[r] != want[c] {
				return false
			}
		}
		return true
	}
	for _, c := range containers {
		if frame[regs[c]] != want[c] {
			return false
		}
	}
	return true
}

// newFusedFuzzer binds p's fused cone to the fused loop: the frame, one want
// row and the gather row, and nothing of the tick loop.
func newFusedFuzzer(p *core.Pipeline, cone *core.Fused) *Fuzzer {
	phvLen := p.PHVLen()
	return &Fuzzer{
		pipe:   p,
		specIn: phv.New(phvLen),
		want:   valueRows(1, phvLen),
		fused:  cone,
		frame:  cone.NewFrame(),
		got:    make([]phv.Value, phvLen),
	}
}

// fuzzFused is Fuzz on the fused program: packet by packet the generator
// fills the frame's input registers, the specification rewrites the want
// row, the program runs and the renamed output registers are compared.
// Reports are byte-identical to the tick loop's: every early-exit path
// (counterexample cap, generator error, spec error) reconstructs the exact
// point the tick loop would have stopped — including dropping comparisons it
// would never have reached. Execution itself cannot stop the run.
//
//dvet:hotpath allocs=3
func (f *Fuzzer) fuzzFused(spec Spec, n int, next func(dst []phv.Value) error, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	report := &BatchReport{SpecName: spec.Name()} //dvet:alloc-ok one report per run, not per PHV
	f.fused.Reset(f.frame)
	spec.Reset()
	ss, _ := spec.(StreamSpec)
	in, regs, depth := f.fused.Inputs(f.frame), f.fused.Out(), f.pipe.Depth()
	var mms []Mismatch
	for i := 0; i < n; i++ {
		genErr, specErr := f.admit(spec, ss, i, next, in, &f.want[0])
		if genErr != nil {
			// The tick loop admits packet i at tick i; the run would have
			// stopped there with genErr as its finding.
			return f.finishFused(report, mms, maxMismatches, n, i, genErr)
		}
		if specErr != nil {
			// Harness misuse — unless the counterexample cap was reached
			// strictly before packet i's admission tick, where the capped
			// report wins exactly as it does on the tick loop.
			if rep, _ := f.finishFused(report, mms, maxMismatches, n, i, specErr); rep.Err == nil {
				return rep, nil
			}
			return nil, specErr
		}
		f.fused.Run(f.frame)
		if !equalRegs(f.frame, regs, f.want[0], opts.Containers) {
			//dvet:alloc-ok mismatch collection is the cold path; clean runs never reach it
			mms = append(mms, mismatchOf(i, in, gatherRegs(f.frame, regs, f.got), f.want[0]))
		}
		// The tick loop notices the cap only when the capping packet surfaces,
		// depth-1 ticks after its admission, and admits a packet on each of
		// those ticks, where a generator or spec failure still beats the cap:
		// stop only once those packets have been admitted here too.
		if maxMismatches > 0 && len(mms) >= maxMismatches && i >= mms[maxMismatches-1].Index+depth-1 {
			break
		}
	}
	return f.finishFused(report, mms, maxMismatches, n, -1, nil)
}

// finishFused assembles the final report from the accumulated mismatches,
// replicating the streaming engine's stopping rules. abortTick < 0 means
// the stream ran to completion (n packets over n+depth-1 ticks, modulo the
// counterexample cap); otherwise the run aborted at abortTick with abortErr
// as its finding, and only packets completed strictly before that tick
// count as checked — comparisons past it, which the streaming run would
// never have reached, are dropped.
func (f *Fuzzer) finishFused(report *BatchReport, mms []Mismatch, maxMismatches, n, abortTick int, abortErr error) (*BatchReport, error) {
	depth := f.pipe.Depth()
	if maxMismatches > 0 && len(mms) >= maxMismatches {
		// The cap triggers the moment the maxMismatches-th diverging packet
		// surfaces; it wins over an abort at a strictly later tick.
		if capM := mms[maxMismatches-1]; abortTick < 0 || capM.Index+depth-1 < abortTick {
			report.Mismatches = mms[:maxMismatches]
			report.Checked = capM.Index + 1
			report.Ticks = capM.Index + depth
			return report, nil
		}
	}
	if abortTick < 0 {
		report.Mismatches = mms
		report.Checked = n
		report.Ticks = n + depth - 1
		return report, nil
	}
	checked := abortTick - depth + 1
	if checked < 0 {
		checked = 0
	}
	for len(mms) > 0 && mms[len(mms)-1].Index >= checked {
		mms = mms[:len(mms)-1]
	}
	if len(mms) == 0 {
		mms = nil
	}
	report.Mismatches = mms
	report.Checked = checked
	report.Ticks = abortTick
	report.Err = abortErr
	return report, nil
}
