package campaign

import (
	"context"
	"sync"

	"druzhba/internal/obs"
)

// JobExec is the one way a shard of a job gets executed in this process:
// the engine holds one per job of a running campaign, a lease worker
// (package farmd) one per leased job, and both call Run. It builds the
// job's target on first use and keeps the runners cloned from the instance
// for reuse — at most as many as Run has concurrent callers. Safe for
// concurrent use.
type JobExec struct {
	target          Target
	builds, runners *obs.Counter // nil = unmetered

	build sync.Once
	inst  Instance
	err   error // the target's build failure; every Run reports it

	mu   sync.Mutex
	idle []Runner // runners whose last shard completed cleanly
}

// NewJobExec returns the executor of one job's target; nothing is built
// until the first Run. m (nil = unmetered) counts the builds and runner
// clones made here.
func NewJobExec(t Target, m *Metrics) *JobExec {
	e := &JobExec{target: t}
	if m != nil {
		e.builds, e.runners = m.TargetBuilds, m.RunnersBuilt
	}
	return e
}

// BuildError is the error of a shard that could not run because its job's
// target failed to build. The engine reports it as the job's finding — the
// bare build error on a row with no shards — rather than as a failed shard.
type BuildError struct{ Err error }

func (e *BuildError) Error() string { return e.Err.Error() }
func (e *BuildError) Unwrap() error { return e.Err }

// Run executes the shard (seed, n): it builds the target if no earlier
// shard has, borrows an idle runner or clones one, and runs the shard on
// it, passing ctx to the runners that can stop mid-shard. The runner is
// kept for the next shard only if this one completed without error and ctx
// is still live — a runner that failed, was cancelled mid-proof or was
// abandoned at its job's deadline is dropped, so its state cannot leak into
// another shard. A build failure is returned as a *BuildError by every
// shard of the job; a NewRunner failure as the result of the shard that
// needed the runner.
func (e *JobExec) Run(ctx context.Context, seed int64, n int) *ShardResult {
	e.build.Do(func() {
		e.builds.Inc()
		e.inst, e.err = e.target.Build()
	})
	if e.err != nil {
		return &ShardResult{Err: &BuildError{Err: e.err}}
	}
	var runner Runner
	e.mu.Lock()
	if last := len(e.idle) - 1; last >= 0 {
		runner, e.idle[last], e.idle = e.idle[last], nil, e.idle[:last]
	}
	e.mu.Unlock()
	if runner == nil {
		e.runners.Inc()
		var err error
		if runner, err = e.inst.NewRunner(); err != nil {
			return &ShardResult{Err: err}
		}
	}
	var res ShardResult
	if cr, ok := runner.(ContextRunner); ok {
		res = cr.RunShardContext(ctx, seed, n)
	} else {
		res = runner.RunShard(seed, n)
	}
	if res.Err == nil && ctx.Err() == nil {
		e.mu.Lock()
		e.idle = append(e.idle, runner)
		e.mu.Unlock()
	}
	return &res
}
