package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"druzhba/internal/obs"
)

// task addresses one shard of one job. The shard's global packet range is
// implied by (shard, Options.ShardSize); merge derives counterexample
// packet indices from the same arithmetic.
type task struct {
	job   int
	shard int
	n     int // packets in this shard
}

// Run executes the campaign described by jobs under opts. The context
// cancels the whole campaign: already-running shards finish, unstarted
// shards are skipped, and the partial report is returned together with the
// context's error. A nil error means the campaign ran to completion (or
// stopped early under Options.FailFast, which Report.StoppedEarly records).
func Run(ctx context.Context, jobs []Job, opts Options) (*Report, error) {
	if len(jobs) == 0 {
		return nil, errors.New("campaign: no jobs")
	}
	o := opts.withDefaults()
	seen := make(map[string]bool, len(jobs))
	for i := range jobs {
		if err := jobs[i].validate(); err != nil {
			return nil, err
		}
		if seen[jobs[i].Name] {
			return nil, errors.New("campaign: duplicate job name " + jobs[i].Name)
		}
		seen[jobs[i].Name] = true
	}
	start := o.Now()

	// Observability is opt-in per run: with neither metrics nor tracing
	// the engine makes no extra clock reads at all. clocks records each
	// job's first shard start; all reads flow through the o.Now seam.
	obsOn := o.Metrics != nil || o.Trace != nil
	var clocks *jobClocks
	if obsOn {
		clocks = &jobClocks{start: make([]time.Time, len(jobs))}
	}
	span := o.Trace.Begin("campaign", "run")

	// Build every target once, up front. A failed build is a test finding
	// (configuration incompatible with the architecture model — the
	// paper's §5.2 first failure class), not a harness error. Cancellation
	// mid-way leaves the remaining jobs unbuilt; merge reports them as
	// aborted.
	masters := make([]Instance, len(jobs))
	buildErrs := make([]error, len(jobs))
	for i := range jobs {
		if ctx.Err() != nil {
			break
		}
		masters[i], buildErrs[i] = jobs[i].Target.Build()
	}

	// Job fingerprints gate the shard cache and address remote execution:
	// only targets that hash their configuration stably can have shards
	// replayed, and executors forward the fingerprint-derived key so
	// remote workers share the engine's cache key space.
	fps := make([]string, len(jobs))
	if o.Cache != nil || o.Executor != nil {
		for j := range jobs {
			if f, ok := jobs[j].Target.(Fingerprinter); ok {
				fps[j] = f.Fingerprint()
			}
		}
	}

	// Shard plan. results[j][s] is written by exactly one worker. Targets
	// may override the campaign shard size for their own jobs (ShardSizer):
	// verification targets shard at one proof cell per shard, so the size
	// is part of the same per-job arithmetic merge uses for packet indices.
	sizes := make([]int, len(jobs))
	for j := range jobs {
		sizes[j] = o.ShardSize
		if ss, ok := jobs[j].Target.(ShardSizer); ok {
			sizes[j] = ss.ShardSize(o.ShardSize)
		}
	}
	results := make([][]*ShardResult, len(jobs))
	pending := make([]int, len(jobs))
	var tasks []task
	for j := range jobs {
		if masters[j] == nil {
			continue // build failed or skipped by cancellation
		}
		n := jobs[j].Packets
		shards := (n + sizes[j] - 1) / sizes[j]
		results[j] = make([]*ShardResult, shards)
		pending[j] = shards
		for s := 0; s < shards; s++ {
			size := sizes[j]
			if rem := n - s*sizes[j]; rem < size {
				size = rem
			}
			tasks = append(tasks, task{job: j, shard: s, n: size})
		}
	}

	// The emitter merges each job the moment its last shard lands and
	// hands rows to OnJobReport in matrix order; jobs with no shards
	// (build errors, cancelled builds) are complete already.
	em := &emitter{jobs: jobs, buildErrs: buildErrs, results: results, pending: pending, o: o, sizes: sizes, reports: make([]*JobReport, len(jobs)), clocks: clocks}
	em.flush()

	remaining := int64(len(tasks))
	o.Metrics.queueDepth(remaining)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stopped sync.Once
	stoppedEarly := false
	timers := jobTimers{deadlines: make([]time.Time, len(jobs)), now: o.Now}
	var hits, misses int64

	taskCh := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker-local runner, built lazily per job: a private clone of
			// the job's machinery (ring buffers, spec instances) reused
			// across every shard of the job this worker runs. Tasks arrive
			// job-major off one channel, so each worker sees nondecreasing
			// job indices and a single cached runner suffices — peak memory
			// stays one clone per worker, not one per (worker, job). Shard
			// results stay pure functions of (job, shard), so reuse cannot
			// break report determinism. Fully cached jobs never build a
			// runner at all.
			var ws *workerState
			wsJob := -1
			for t := range taskCh {
				if runCtx.Err() != nil {
					continue // drain without running; emitter.finish reports the jobs
				}
				if clocks != nil {
					clocks.begin(t.job, o.Now)
				}
				seed := deriveSeed(jobs[t.job].Seed, t.shard)
				key := ""
				if fps[t.job] != "" {
					key = ShardKey(fps[t.job], seed, t.n)
				}
				var res *ShardResult
				cached := false
				if o.Cache != nil && key != "" {
					if c, ok := o.Cache.Get(key); ok {
						atomic.AddInt64(&hits, 1)
						o.Metrics.cacheProbe(true)
						res = c
						cached = true
					}
				}
				var shardStart time.Time
				if obsOn && res == nil {
					shardStart = o.Now()
				}
				if res == nil {
					var deadline time.Time
					if o.JobTimeout > 0 {
						deadline = timers.deadline(t.job, o.JobTimeout)
					}
					if o.JobTimeout > 0 && !deadline.After(o.Now()) {
						// The job's budget is spent: fail the shard without
						// cloning a runner that would never execute. The
						// shard never ran, so it counts as neither hit nor
						// miss.
						res = &ShardResult{Err: timeoutErr(o.JobTimeout)}
					} else {
						if o.Cache != nil && key != "" {
							atomic.AddInt64(&misses, 1)
							o.Metrics.cacheProbe(false)
						}
						if o.Executor != nil {
							res = runShardRemote(runCtx, o.Executor, ShardTask{Job: &jobs[t.job], Shard: t.shard, Seed: seed, N: t.n, Fingerprint: fps[t.job], Key: key}, deadline, o.JobTimeout)
							if errors.Is(res.Err, ErrNoWorkers) {
								res = nil // degrade gracefully to local execution
							}
						}
						if res == nil {
							if t.job != wsJob || ws == nil {
								ws = newWorkerState(masters[t.job])
								wsJob = t.job
							}
							if o.JobTimeout > 0 {
								var alive bool
								res, alive = runShardTimed(runCtx, &jobs[t.job], ws, t, deadline, o.JobTimeout, o.Now)
								if !alive {
									ws = nil // runner abandoned mid-shard; never reuse it
								}
							} else {
								res = runShard(runCtx, &jobs[t.job], ws, t)
							}
						}
					}
					if o.Cache != nil && key != "" && res.Err == nil {
						o.Cache.Put(key, res)
					}
				}
				results[t.job][t.shard] = res
				if obsOn {
					outcome := "executed"
					switch {
					case cached:
						outcome = "cached"
					case res.Err != nil:
						outcome = "error"
					}
					durSec := -1.0
					if !shardStart.IsZero() {
						durSec = o.Now().Sub(shardStart).Seconds()
					}
					o.Metrics.shardDone(outcome, durSec)
					if !cached {
						o.Metrics.cellsSolved(res.Cells)
					}
					o.Metrics.queueDepth(atomic.AddInt64(&remaining, -1))
					if durSec >= 0 {
						o.Trace.Event("shard", jobs[t.job].Name,
							obs.KV{K: "shard", V: t.shard}, obs.KV{K: "outcome", V: outcome},
							obs.KV{K: "checked", V: res.Checked}, obs.KV{K: "dur_us", V: int64(durSec * 1e6)})
					} else {
						o.Trace.Event("shard", jobs[t.job].Name,
							obs.KV{K: "shard", V: t.shard}, obs.KV{K: "outcome", V: outcome},
							obs.KV{K: "checked", V: res.Checked})
					}
				}
				if o.FailFast && res.failed() {
					stopped.Do(func() { stoppedEarly = true })
					cancel()
				}
				em.shardDone(t.job)
			}
		}()
	}
feed:
	for _, t := range tasks {
		select {
		case taskCh <- t:
		case <-runCtx.Done():
			break feed
		}
	}
	close(taskCh)
	wg.Wait()
	em.finish()

	report := em.assemble()
	report.StoppedEarly = stoppedEarly || ctx.Err() != nil
	if o.Cache != nil {
		report.Cache = &CacheStats{Hits: hits, Misses: misses}
	}
	// One elapsed measurement derives both timing figures, so the reported
	// throughput corresponds exactly to the reported elapsed time.
	elapsed := o.Now().Sub(start)
	report.Timing = &Timing{
		Workers:    o.Workers,
		ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
		PHVsPerSec: float64(report.TotalChecked) / elapsed.Seconds(),
	}
	span.End(obs.KV{K: "jobs", V: len(jobs)}, obs.KV{K: "checked", V: report.TotalChecked}, obs.KV{K: "passed", V: report.Passed})
	return report, ctx.Err()
}

// jobClocks records each job's first shard start under the engine's
// clock seam, feeding the job-duration histogram and trace spans. It
// exists only when observability is on, so an unmetered run reads no
// extra clocks.
type jobClocks struct {
	mu    sync.Mutex
	start []time.Time
}

func (jc *jobClocks) begin(j int, now func() time.Time) {
	jc.mu.Lock()
	if jc.start[j].IsZero() {
		jc.start[j] = now()
	}
	jc.mu.Unlock()
}

func (jc *jobClocks) get(j int) time.Time {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return jc.start[j]
}

// workerState is one worker's reusable runner for one job. Building it can
// fail (spec factories may error); the failure is replayed as the result
// of every shard the worker picks up for that job.
type workerState struct {
	runner Runner
	err    error
}

func newWorkerState(master Instance) *workerState {
	runner, err := master.NewRunner()
	if err != nil {
		return &workerState{err: err}
	}
	return &workerState{runner: runner}
}

// runShard executes one shard on the worker's reusable runner with the
// shard's deterministic traffic seed. Context-aware runners receive ctx so
// cancellation (campaign abort, job deadline) interrupts them mid-shard;
// plain runners just run to completion.
func runShard(ctx context.Context, job *Job, ws *workerState, t task) *ShardResult {
	if ws.err != nil {
		return &ShardResult{Err: ws.err}
	}
	seed := deriveSeed(job.Seed, t.shard)
	if cr, ok := ws.runner.(ContextRunner); ok {
		res := cr.RunShardContext(ctx, seed, t.n)
		return &res
	}
	res := ws.runner.RunShard(seed, t.n)
	return &res
}

// jobTimers fixes each job's wall-clock deadline at the moment its first
// shard begins executing (cache replays don't start the clock). Reads go
// through the engine's clock seam.
type jobTimers struct {
	mu        sync.Mutex
	deadlines []time.Time
	now       func() time.Time
}

func (jt *jobTimers) deadline(j int, budget time.Duration) time.Time {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	if jt.deadlines[j].IsZero() {
		jt.deadlines[j] = jt.now().Add(budget)
	}
	return jt.deadlines[j]
}

// timeoutErr is the deterministic error a job's shards fail with once its
// wall-clock budget is spent, so merged reports differ across runs only in
// which shards happened to be in flight at the deadline.
func timeoutErr(budget time.Duration) error {
	return fmt.Errorf("job wall-clock budget %v exceeded", budget)
}

// runShardTimed is runShard raced against the job's deadline. The second
// return value reports whether the runner is still usable: a shard that
// outlives the deadline is abandoned and its runner must not be reused.
// The runner executes under a context bounded by the deadline, so
// context-aware runners (SAT proofs) stop shortly after abandonment
// instead of leaking their goroutine indefinitely; plain runners leak
// until they return, as before.
func runShardTimed(ctx context.Context, job *Job, ws *workerState, t task, deadline time.Time, budget time.Duration, now func() time.Time) (*ShardResult, bool) {
	remaining := deadline.Sub(now())
	if remaining <= 0 {
		return &ShardResult{Err: timeoutErr(budget)}, true
	}
	shardCtx, cancel := context.WithDeadline(ctx, deadline)
	done := make(chan *ShardResult, 1)
	go func() {
		defer cancel()
		done <- runShard(shardCtx, job, ws, t)
	}()
	timer := time.NewTimer(remaining)
	defer timer.Stop()
	select {
	case res := <-done:
		return res, true
	case <-timer.C:
		return &ShardResult{Err: timeoutErr(budget)}, false
	}
}

// emitter tracks per-job shard completion and merges each job exactly once,
// in matrix order. The mutex both serializes bookkeeping and publishes
// workers' result writes to whichever goroutine performs the merge.
type emitter struct {
	mu        sync.Mutex
	jobs      []Job
	buildErrs []error
	results   [][]*ShardResult
	pending   []int
	o         Options
	sizes     []int // per-job shard size (merge's packet-index arithmetic)
	reports   []*JobReport
	clocks    *jobClocks // nil when observability is off
	cursor    int
}

// shardDone records one completed shard and emits every newly complete job
// at the cursor.
func (e *emitter) shardDone(j int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending[j]--
	e.advance()
}

// flush emits jobs that are complete before any shard runs (build errors,
// zero-shard plans).
func (e *emitter) flush() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.advance()
}

// finish force-completes every remaining job — shards skipped by
// cancellation merge as aborted. Called after the worker pool drains, so
// every job is emitted exactly once.
func (e *emitter) finish() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for j := range e.pending {
		e.pending[j] = 0
	}
	e.advance()
}

func (e *emitter) advance() {
	for e.cursor < len(e.jobs) && e.pending[e.cursor] == 0 {
		j := e.cursor
		jr := mergeJob(&e.jobs[j], e.buildErrs[j], e.results[j], e.o, e.sizes[j])
		e.reports[j] = &jr
		e.cursor++
		if e.clocks != nil {
			durSec := -1.0
			if st := e.clocks.get(j); !st.IsZero() {
				durSec = e.o.Now().Sub(st).Seconds()
			}
			e.o.Metrics.jobDone(jr.Status, durSec)
			e.o.Trace.Event("job", jr.Name, obs.KV{K: "status", V: jr.Status}, obs.KV{K: "checked", V: jr.Checked})
		}
		if e.o.OnJobReport != nil {
			e.o.OnJobReport(jr)
		}
	}
}

// assemble folds the per-job reports into the campaign report; the rows are
// the same values OnJobReport streamed.
func (e *emitter) assemble() *Report {
	rep := &Report{Passed: true}
	for _, jr := range e.reports {
		rep.Jobs = append(rep.Jobs, *jr)
		if !jr.Passed() {
			rep.Passed = false
		}
		rep.TotalChecked += int64(jr.Checked)
	}
	return rep
}
