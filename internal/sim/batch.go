// batch.go is the production engine: packets live in column-major value
// planes (planes[container][packet]) and whole stage vectors execute per
// core.ExecuteStageBatch call, amortizing the tick loop's per-packet
// dispatch — ring bookkeeping, the per-ALU error returns, the per-stage call
// and the output-mux switch — across a batch. It runs prechecked pipelines
// only, on which core.Build proved execution total, so the kernel and its
// drivers have no failure path: the one error left is a Run outside the
// engine's capacity.
//
// Batch execution is observationally identical to the tick loop. The
// pipeline is feedforward and all mutable state is private to one (stage,
// slot) ALU; both schedules visit each ALU's state in packet-admission
// order, so outputs and final state are byte-identical. The fuzzer's
// planes loop exploits this to produce BatchReports byte-identical to
// the tick loop's — including tick counts, which it reconstructs from the
// streaming schedule's arithmetic (a packet admitted at tick i completes at
// tick i+depth-1), and counterexample records, which it materializes from
// the plane columns of a mismatching batch.
package sim

import (
	"fmt"

	"druzhba/internal/core"
	"druzhba/internal/phv"
)

// Batch is the PHV-batch execution engine: input planes, two work plane
// sets ping-ponged across stages, and the per-ALU result scratch, all
// preallocated once and reused across runs. All planes are owned by the
// Batch: Load copies, Run retains no caller memory, and the slices returned
// by In and Out stay valid only until the next Run (they are overwritten in
// place, never reallocated, so a caller-held plane slice can never alias a
// later run's packets after Reset-style reuse). A Batch is not safe for
// concurrent use.
type Batch struct {
	p        *core.Pipeline
	depth    int
	phvLen   int
	capacity int
	in       [][]phv.Value // in[c][k]: container c of packet k, preserved across Run
	work     [2][][]phv.Value
	out      [][]phv.Value // final stage's output planes, set by Run
	sc       *core.BatchScratch
}

// NewBatch returns a batch engine over the pipeline with room for capacity
// packets per run. Batch execution uses the prechecked stage kernel, so the
// pipeline must satisfy core.Pipeline.Prechecked; callers with unoptimized
// pipelines use a Stream (the fuzzer selects it by this rule).
func NewBatch(p *core.Pipeline, capacity int) (*Batch, error) {
	if !p.Prechecked() {
		return nil, fmt.Errorf("sim: batch execution requires a prechecked pipeline")
	}
	sc, err := p.NewBatchScratch(capacity)
	if err != nil {
		return nil, err
	}
	b := &Batch{p: p, depth: p.Depth(), phvLen: p.PHVLen(), capacity: capacity, sc: sc}
	backing := make([]phv.Value, 3*b.phvLen*capacity)
	plane := func(i int) []phv.Value { return backing[i*capacity : (i+1)*capacity : (i+1)*capacity] }
	b.in = make([][]phv.Value, b.phvLen)
	b.work[0] = make([][]phv.Value, b.phvLen)
	b.work[1] = make([][]phv.Value, b.phvLen)
	for c := 0; c < b.phvLen; c++ {
		b.in[c] = plane(c)
		b.work[0][c] = plane(b.phvLen + c)
		b.work[1][c] = plane(2*b.phvLen + c)
	}
	return b, nil
}

// Cap returns the engine's packet capacity per run.
func (b *Batch) Cap() int { return b.capacity }

// PHVLen returns the container count of every packet column.
func (b *Batch) PHVLen() int { return b.phvLen }

// In returns the input planes (In()[c][k] is container c of packet k).
// Callers may fill columns directly; the planes are owned by the Batch and
// are preserved across Run, so a mismatching packet's input can be read
// back after execution.
func (b *Batch) In() [][]phv.Value { return b.in }

// Out returns the output planes of the last Run: Out()[c][k] is container c
// of packet k's final pipeline output. The planes are owned by the Batch
// and valid until the next Run.
func (b *Batch) Out() [][]phv.Value { return b.out }

// Load scatters one packet's container values into column k of the input
// planes; vals is copied, the caller keeps ownership.
func (b *Batch) Load(k int, vals []phv.Value) {
	for c, v := range vals {
		b.in[c][k] = v
	}
}

// Run executes all pipeline stages over the first n packet columns of the
// input planes, leaving results readable via Out. Stateful ALU state
// advances exactly as a streaming run over the same packets would advance
// it. The only error is an n outside [1, Cap]: execution of a prechecked
// pipeline cannot fail.
//
//dvet:hotpath allocs=0
func (b *Batch) Run(n int) error {
	if n < 1 || n > b.capacity {
		//dvet:alloc-ok harness-misuse error path, never taken in a clean run
		return fmt.Errorf("sim: batch run of %d packets, capacity %d", n, b.capacity)
	}
	b.run(n)
	return nil
}

// run is Run for callers that hold 1 <= n <= Cap by construction.
//
//dvet:hotpath allocs=0
func (b *Batch) run(n int) {
	cur := b.in
	for si := 0; si < b.depth; si++ {
		nxt := b.work[si&1]
		b.p.ExecuteStageBatch(si, cur, nxt, b.sc, n)
		cur = nxt
	}
	b.out = cur
}

// gatherCol copies packet column k of the planes into dst and returns it.
func gatherCol(planes [][]phv.Value, k int, dst []phv.Value) []phv.Value {
	dst = dst[:len(planes)]
	for c := range planes {
		dst[c] = planes[c][k]
	}
	return dst
}

// equalColRow compares packet column k of the planes against a row vector
// on the selected containers (nil = every container), with the same
// wrong-length rule as equalVals.
func equalColRow(planes [][]phv.Value, k int, want []phv.Value, containers []int) bool {
	if len(planes) != len(want) {
		return false
	}
	if containers == nil {
		for c := range planes {
			if planes[c][k] != want[c] {
				return false
			}
		}
		return true
	}
	for _, c := range containers {
		if planes[c][k] != want[c] {
			return false
		}
	}
	return true
}

// newPlanesFuzzer binds p to the planes loop at the given chunk: the plane
// engine, one want row per chunk column and the scratch rows, and nothing of
// the tick loop.
func newPlanesFuzzer(p *core.Pipeline, chunk int) (*Fuzzer, error) {
	b, err := NewBatch(p, chunk)
	if err != nil {
		return nil, err
	}
	phvLen := p.PHVLen()
	return &Fuzzer{
		pipe:      p,
		specIn:    phv.New(phvLen),
		want:      valueRows(chunk, phvLen),
		batch:     b,
		fillRow:   make([]phv.Value, phvLen),
		gatherRow: make([]phv.Value, phvLen),
	}, nil
}

// fuzzPlanes is Fuzz on the plane engine. Packets are generated and
// spec-processed in admission order (so generator and spec state advance
// exactly as under the tick loop), executed a chunk at a time, and compared
// column against want row. Reports are byte-identical to the tick loop's:
// tick counts follow the streaming schedule's arithmetic, mismatch records
// are materialized from plane columns in index order, and every early-exit
// path (counterexample cap, generator error, spec error) reconstructs the
// exact point the tick loop would have stopped — including dropping
// comparisons it would never have reached. Execution itself cannot stop the
// run: the pipeline is prechecked.
//
//dvet:hotpath allocs=3
func (f *Fuzzer) fuzzPlanes(spec Spec, n int, next func(dst []phv.Value) error, opts FuzzOptions, maxMismatches int) (*BatchReport, error) {
	report := &BatchReport{SpecName: spec.Name()} //dvet:alloc-ok one report per run, not per PHV
	f.pipe.ResetState()
	spec.Reset()
	ss, _ := spec.(StreamSpec)
	chunk := f.batch.Cap()
	var mms []Mismatch
	for at := 0; at < n; at += chunk {
		m := min(chunk, n-at)
		for k := 0; k < m; k++ {
			i := at + k
			genErr, specErr := f.admit(spec, ss, i, next, f.fillRow, &f.want[k])
			if genErr != nil {
				// The tick loop admits packet i at tick i; the run would have
				// stopped there with genErr as its finding. Execute and
				// compare the packets already filled — their completions
				// precede tick i or are dropped by the endgame.
				mms = f.runCompareBatch(at, k, opts, mms)
				return f.finishBatched(report, mms, maxMismatches, n, i, genErr)
			}
			if specErr != nil {
				return f.specAbortBatched(report, mms, maxMismatches, at, k, opts, specErr)
			}
			f.batch.Load(k, f.fillRow)
		}
		mms = f.runCompareBatch(at, m, opts, mms)
		// The tick loop notices the cap only when the capping packet surfaces,
		// depth-1 ticks after its admission, and admits a packet on each of
		// those ticks, where a generator or spec failure still beats the cap:
		// stop only once those packets have been admitted here too.
		if maxMismatches > 0 && len(mms) >= maxMismatches && at+m > mms[maxMismatches-1].Index+f.pipe.Depth()-1 {
			break
		}
	}
	return f.finishBatched(report, mms, maxMismatches, n, -1, nil)
}

// runCompareBatch executes the first m filled packets of the chunk starting
// at global packet index 'at' and appends any mismatches, materialized from
// the plane columns, in index order.
//
//dvet:hotpath allocs=0
func (f *Fuzzer) runCompareBatch(at, m int, opts FuzzOptions, mms []Mismatch) []Mismatch {
	if m == 0 {
		return mms
	}
	f.batch.run(m)
	out := f.batch.Out()
	in := f.batch.In()
	for k := 0; k < m; k++ {
		if !equalColRow(out, k, f.want[k], opts.Containers) {
			//dvet:alloc-ok mismatch collection is the cold path; clean runs never reach it
			mms = append(mms, mismatchOf(at+k, gatherCol(in, k, f.fillRow), gatherCol(out, k, f.gatherRow), f.want[k]))
		}
	}
	return mms
}

// specAbortBatched reconstructs the tick loop's outcome of a spec failure at
// global packet index i = at+k: the harness error serr — unless the
// counterexample cap would have been reached strictly before packet i's
// admission tick, in which case the capped report wins exactly as it would
// under the tick loop.
func (f *Fuzzer) specAbortBatched(report *BatchReport, mms []Mismatch, maxMismatches, at, k int, opts FuzzOptions, serr error) (*BatchReport, error) {
	mms = f.runCompareBatch(at, k, opts, mms)
	depth := f.pipe.Depth()
	if maxMismatches > 0 && len(mms) >= maxMismatches {
		if capM := mms[maxMismatches-1]; capM.Index+depth-1 < at+k {
			report.Mismatches = mms[:maxMismatches]
			report.Checked = capM.Index + 1
			report.Ticks = capM.Index + depth
			return report, nil
		}
	}
	return nil, serr
}

// finishBatched assembles the final report from the accumulated mismatches,
// replicating the streaming engine's stopping rules. abortTick < 0 means
// the stream ran to completion (n packets over n+depth-1 ticks, modulo the
// counterexample cap); otherwise the run aborted at abortTick with abortErr
// as its finding, and only packets completed strictly before that tick
// count as checked — comparisons past it, which the streaming run would
// never have reached, are dropped.
func (f *Fuzzer) finishBatched(report *BatchReport, mms []Mismatch, maxMismatches, n, abortTick int, abortErr error) (*BatchReport, error) {
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
