package campaign

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"druzhba/internal/obs"
)

// jobState is everything the engine knows about one job of a running
// campaign. The plan half is fixed before the pool starts; the rest is
// written under emitter.mu, which also publishes it to the merging
// goroutine.
type jobState struct {
	job    *Job
	fp     string      // target fingerprint; "" = its shards are neither cached nor keyed
	keys   *shardKeyer // derives the job's shard keys from the fingerprint; nil with fp ""
	size   int         // packets per shard (the target may override Options.ShardSize)
	shards int         // the job's shard count
	exec   *JobExec    // builds on the first miss; dropped at merge with its instance and runners

	start        time.Time      // first shard that had to execute; zero while every shard replayed
	results      []*ShardResult // results[s] is written by exactly one worker; nil = skipped
	pending      int            // shards not yet landed
	hits, misses int64          // keyed shards the cache replayed / did not hold
	buildErr     *BuildError    // the target failed to build: the job's finding

	// row starts as the job's plan (labels, seed, packets, shard count) and
	// becomes its report row at merge.
	row JobReport
}

// plan resolves once what a job's shards share: its labels from the
// optional Target interfaces, its shard size, its fingerprint and the
// digest its shard keys end with. shards is the job's Shards count.
func plan(job *Job, o *Options, shards int) jobState {
	js := jobState{job: job, size: job.shardSize(o.ShardSize), shards: shards, pending: shards,
		results: make([]*ShardResult, shards), exec: NewJobExec(job.Target, o.Metrics)}
	// Fingerprints gate the shard cache and address remote execution:
	// executors forward the fingerprint-derived key so remote workers share
	// the engine's cache key space. Hashed only when something reads them.
	if f, ok := job.Target.(Fingerprinter); ok && (o.Cache != nil || o.Executor != nil) {
		if js.fp = f.Fingerprint(); js.fp != "" {
			keys := newShardKeyer(buildSalt(), js.fp)
			js.keys = &keys
		}
	}
	js.row = JobReport{Name: job.Name, Mode: ModeFuzz, Arch: job.Target.Arch(), Engine: job.Target.Engine(),
		Seed: job.Seed, Packets: job.Packets, Shards: shards}
	if m, ok := job.Target.(Moder); ok {
		js.row.Mode = m.Mode()
	}
	if b, ok := job.Target.(BenchmarkNamer); ok {
		js.row.Benchmark = b.BenchmarkName()
	}
	return js
}

// Run executes the campaign described by jobs under opts. The context
// cancels the whole campaign: already-running shards finish, unstarted
// shards are skipped, and the partial report is returned together with the
// context's error. A nil error means the campaign ran to completion (or
// stopped early under Options.FailFast, which Report.StoppedEarly records).
//
// A job's target is built by the first of its shards the cache does not
// hold: a job whose every shard replays is never built and never clones a
// runner. A build failure is a test finding (configuration incompatible
// with the architecture model, the paper's §5.2 first failure class), not a
// harness error: it is that job's row and does not trip FailFast.
func Run(ctx context.Context, jobs []Job, opts Options) (*Report, error) {
	if len(jobs) == 0 {
		return nil, errors.New("campaign: no jobs")
	}
	o := opts.withDefaults()
	seen := make(map[string]bool, len(jobs))
	shards := make([]int, len(jobs))
	for i := range jobs {
		if err := jobs[i].validate(); err != nil {
			return nil, err
		}
		var err error
		if shards[i], err = jobs[i].Shards(o.ShardSize); err != nil {
			return nil, err
		}
		if seen[jobs[i].Name] {
			return nil, errors.New("campaign: duplicate job name " + jobs[i].Name)
		}
		seen[jobs[i].Name] = true
	}
	start := o.Now()
	span := o.Trace.Begin("campaign", "run")

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Observability is opt-in per run: with neither metrics nor tracing
	// the engine makes no extra clock reads at all.
	em := &emitter{o: &o, obsOn: o.Metrics != nil || o.Trace != nil, cancel: cancel,
		states: make([]jobState, len(jobs)), report: Report{Passed: true}}
	if o.Cache != nil {
		em.report.Cache = &CacheStats{}
	}
	for j := range jobs {
		em.states[j] = plan(&jobs[j], &o, shards[j])
		em.remaining += int64(em.states[j].pending)
	}
	o.Metrics.queueDepth(em.remaining)

	// Workers claim shards from one cursor in job-major order — every shard
	// of job 0, then of job 1, … — so the pool works on few adjacent jobs at
	// a time and peak memory stays about one clone per worker, not one per
	// (worker, job). Shard results are pure functions of (job, shard), so
	// which worker claims a shard cannot change a report.
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			em.claim(runCtx)
		}()
	}
	wg.Wait()
	em.mu.Lock()
	em.advance(true)
	em.mu.Unlock()

	report := &em.report
	report.StoppedEarly = report.StoppedEarly || ctx.Err() != nil
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

// claim runs shards on one worker until every shard is claimed or ctx is
// done; a shard left unclaimed then merges as aborted when the pool has
// drained. Claim i of the shared cursor is the i-th shard in job-major
// order. A worker's claims only grow, so it finds a claim's job by walking
// forward from its last one; the shard counts it walks are plan data, fixed
// before the pool starts. Claiming allocates nothing; what a shard costs is
// runShard's (a replayed one: its key, TestReplayedShardAllocations).
//
//dvet:hotpath allocs=0
func (e *emitter) claim(ctx context.Context) {
	done := ctx.Done()
	job, first := 0, 0 // the job of the last claim and the claim index of its shard 0
	for {
		select {
		case <-done:
			return
		default:
		}
		i := int(e.next.Add(1)) - 1
		for job < len(e.states) && i >= first+e.states[job].shards {
			first += e.states[job].shards
			job++
		}
		if job == len(e.states) {
			return
		}
		e.runShard(ctx, job, i-first)
	}
}

// runShard takes one shard from plan to landed result: replay it from the
// cache, or execute it — remotely when an executor has workers, else on the
// job's own JobExec — under the job's deadline, and store a clean result.
// Its packet range and seed follow from (shard, the job's shard size), the
// arithmetic merge uses too.
func (e *emitter) runShard(ctx context.Context, job, shard int) {
	o, js := e.o, &e.states[job]
	n := min(js.size, js.job.Packets-shard*js.size)
	seed := deriveSeed(js.job.Seed, shard)
	key := ""
	if js.fp != "" {
		key = js.keys.key(seed, n)
	}
	res, cached := CacheGet(o.Cache, o.Metrics, key)
	var shardStart time.Time
	if !cached {
		if e.obsOn {
			shardStart = o.Now()
		}
		// exec is read here, on the worker: a shard abandoned at the
		// deadline may outlive the job's merge, which drops js.exec.
		exec := js.exec
		res = e.underDeadline(ctx, js, func(ctx context.Context) *ShardResult {
			if o.Executor != nil {
				res := o.Executor.ExecuteShard(ctx, ShardTask{Job: js.job, Shard: shard, Seed: seed, N: n, Fingerprint: js.fp, Key: key})
				if res == nil {
					return &ShardResult{Err: errors.New("campaign: executor returned no result")}
				}
				if !errors.Is(res.Err, ErrNoWorkers) {
					return res
				}
				// No worker to lease to: degrade gracefully to local execution.
			}
			return exec.Run(ctx, seed, n)
		})
		CachePut(o.Cache, key, res)
	}
	if e.obsOn {
		outcome := "executed"
		switch {
		case cached:
			outcome = "cached"
		case res.Err != nil:
			outcome = "error"
		}
		kvs := []obs.KV{{K: "shard", V: shard}, {K: "outcome", V: outcome}, {K: "checked", V: res.Checked}}
		durSec := -1.0
		if !cached {
			durSec = o.Now().Sub(shardStart).Seconds()
			kvs = append(kvs, obs.KV{K: "dur_us", V: int64(durSec * 1e6)})
			o.Metrics.cellsSolved(res.Cells)
		}
		o.Metrics.shardDone(outcome, durSec)
		o.Trace.Event("shard", js.job.Name, kvs...)
	}
	e.shardDone(js, shard, res, cached, o.Cache != nil && key != "")
}

// underDeadline runs one shard's execution — local runner or remote lease —
// against its job's wall-clock budget, which starts at the job's first
// executing shard (cache replays do not start the clock; the clock is read
// only when a budget or an instrument consumes it). A shard whose budget is
// already spent fails without running; one still running at the deadline is
// abandoned, and one that came back failed because the deadline cancelled
// it is rewritten, all to the same deterministic error, so merged reports
// differ across runs only in which shards were in flight at the deadline.
// run executes under a context bounded by the deadline, so context-aware
// runners and lease dispatchers stop shortly after abandonment; a plain
// runner's goroutine leaks until it returns.
func (e *emitter) underDeadline(ctx context.Context, js *jobState, run func(context.Context) *ShardResult) *ShardResult {
	budget := e.o.JobTimeout
	var deadline time.Time
	if budget > 0 || e.obsOn {
		e.mu.Lock()
		if js.start.IsZero() {
			js.start = e.o.Now()
		}
		deadline = js.start.Add(budget)
		e.mu.Unlock()
	}
	if budget <= 0 {
		return run(ctx)
	}
	timeout := &ShardResult{Err: errors.New("job wall-clock budget " + budget.String() + " exceeded")}
	remaining := deadline.Sub(e.o.Now())
	if remaining <= 0 {
		return timeout
	}
	shardCtx, cancel := context.WithDeadline(ctx, deadline)
	done := make(chan *ShardResult, 1)
	go func() {
		defer cancel()
		done <- run(shardCtx)
	}()
	select {
	case res := <-done:
		if res.Err != nil && errors.Is(shardCtx.Err(), context.DeadlineExceeded) && ctx.Err() == nil {
			return timeout
		}
		return res
	case <-time.After(remaining):
		return timeout
	}
}

// emitter owns the running campaign's per-job state: it lands shard
// results, merges each job exactly once the moment its last shard lands,
// and hands rows to OnJobReport in matrix order. The mutex both serializes
// the bookkeeping and publishes workers' result writes to whichever
// goroutine performs the merge.
type emitter struct {
	o      *Options
	obsOn  bool
	cancel context.CancelFunc // stops the campaign when FailFast trips
	next   atomic.Int64       // claims handed out, job-major; see claim

	mu        sync.Mutex
	states    []jobState
	cursor    int    // jobs before it are merged into report and emitted
	remaining int64  // shards not yet landed, for the queue-depth gauge
	report    Report // rows are the values OnJobReport streamed
}

// shardDone lands one shard and emits every newly complete job at the
// cursor. A failing shard stops a FailFast campaign; a target that could not
// be built is its job's finding, not a failed shard, and does not.
func (e *emitter) shardDone(js *jobState, shard int, res *ShardResult, cached, keyed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	js.results[shard] = res
	js.pending--
	if cached {
		js.hits++
	} else if keyed {
		js.misses++
	}
	e.remaining--
	if e.obsOn {
		e.o.Metrics.queueDepth(e.remaining)
	}
	if !errors.As(res.Err, &js.buildErr) && e.o.FailFast && (res.Err != nil || len(res.Findings) > 0) {
		e.report.StoppedEarly = true
		e.cancel()
	}
	e.advance(false)
}

// advance merges and emits every complete job at the cursor — once the pool
// has drained, every remaining job: shards skipped by cancellation merge as
// aborted, so each job is emitted exactly once.
func (e *emitter) advance(drained bool) {
	for e.cursor < len(e.states) && (drained || e.states[e.cursor].pending == 0) {
		js := &e.states[e.cursor]
		e.cursor++
		js.merge(e.o.MaxCounterexamples)
		js.exec, js.results = nil, nil
		e.report.Jobs = append(e.report.Jobs, js.row)
		e.report.Passed = e.report.Passed && js.row.Passed()
		e.report.TotalChecked += int64(js.row.Checked)
		if e.report.Cache != nil {
			e.report.Cache.Hits += js.hits
			e.report.Cache.Misses += js.misses
		}
		if e.obsOn {
			durSec := -1.0
			if !js.start.IsZero() {
				durSec = e.o.Now().Sub(js.start).Seconds()
			}
			e.o.Metrics.jobDone(js.row.Status, durSec)
			e.o.Trace.Event("job", js.row.Name, obs.KV{K: "status", V: js.row.Status}, obs.KV{K: "checked", V: js.row.Checked})
		}
		if e.o.OnJobReport != nil {
			e.o.OnJobReport(js.row)
		}
	}
}
