package campaign

import "druzhba/internal/obs"

// Metrics is the engine's instrumentation set: shard and job durations,
// cache hit ratios and live queue depth, at shard granularity. It is
// deliberately not part of report content — every field updates through
// obs atomics that fingerprints, shard keys and serialized rows never
// read, so an instrumented campaign's report is byte-identical to an
// unmetered one (pinned by test). A nil *Metrics (the default) disables
// everything at the cost of one branch per shard.
type Metrics struct {
	// ShardSeconds observes each executed shard's duration (cache
	// replays are counted, not timed).
	ShardSeconds *obs.Histogram

	// JobSeconds observes each job's duration from its first executing
	// shard starting to its merge (fully cached jobs are counted under
	// Jobs but not timed).
	JobSeconds *obs.Histogram

	// Shards counts shard completions by outcome: cached | executed |
	// error.
	Shards *obs.CounterVec

	// Jobs counts merged job rows by report status (pass, fail, error,
	// aborted, unknown).
	Jobs *obs.CounterVec

	// CacheHits / CacheMisses mirror the report's CacheStats counters
	// cumulatively across campaigns.
	CacheHits   *obs.Counter
	CacheMisses *obs.Counter

	// TargetBuilds and RunnersBuilt count Target.Build and
	// Instance.NewRunner calls made by JobExec.Run, the only caller of
	// either: both stay flat across a campaign or lease the cache fully
	// serves.
	TargetBuilds *obs.Counter
	RunnersBuilt *obs.Counter

	// SatConflicts, SatDecisions, SatPropagations and SatRestarts sum the
	// solver effort of the verification cells executed here (cache replays
	// and remotely executed cells carry no search counters): with
	// ShardSeconds they say whether a slow proof is a long search or a
	// slow one.
	SatConflicts, SatDecisions, SatPropagations, SatRestarts *obs.Counter

	// QueueDepth tracks the running campaign's not-yet-completed shard
	// count.
	QueueDepth *obs.Gauge

	// Interned outcome series so the per-shard path does no map lookups.
	shardCached, shardExecuted, shardError *obs.Counter
}

// NewMetrics registers the engine's metric families on r. Registration
// is idempotent, so every campaign run in one process shares the same
// cumulative series.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{
		ShardSeconds:    r.Histogram("druzhba_campaign_shard_seconds", "executed shard durations in seconds", nil),
		JobSeconds:      r.Histogram("druzhba_campaign_job_seconds", "job durations from first shard start to merge, in seconds", nil),
		Shards:          r.CounterVec("druzhba_campaign_shards_total", "shard completions by outcome", "outcome"),
		Jobs:            r.CounterVec("druzhba_campaign_jobs_total", "merged job rows by report status", "status"),
		CacheHits:       r.Counter("druzhba_campaign_cache_hits_total", "shards replayed from the shard cache"),
		CacheMisses:     r.Counter("druzhba_campaign_cache_misses_total", "shards executed with caching on"),
		TargetBuilds:    r.Counter("druzhba_campaign_target_builds_total", "targets built, each on its job's first cache miss"),
		RunnersBuilt:    r.Counter("druzhba_campaign_runners_built_total", "runners cloned from built targets"),
		SatConflicts:    r.Counter("druzhba_sat_conflicts_total", "SAT conflicts in verification cells executed here"),
		SatDecisions:    r.Counter("druzhba_sat_decisions_total", "SAT decisions in verification cells executed here"),
		SatPropagations: r.Counter("druzhba_sat_propagations_total", "SAT unit propagations in verification cells executed here"),
		SatRestarts:     r.Counter("druzhba_sat_restarts_total", "SAT restarts in verification cells executed here"),
		QueueDepth:      r.Gauge("druzhba_campaign_queue_depth", "shards not yet completed in the running campaign"),
	}
	m.shardCached = m.Shards.With("cached")
	m.shardExecuted = m.Shards.With("executed")
	m.shardError = m.Shards.With("error")
	return m
}

// shardDone records one completed shard. durSec < 0 means the shard was
// not executed here (cache replay, deadline pre-failure) and only the
// outcome counter moves.
func (m *Metrics) shardDone(outcome string, durSec float64) {
	if m == nil {
		return
	}
	switch outcome {
	case "cached":
		m.shardCached.Inc()
	case "error":
		m.shardError.Inc()
	default:
		m.shardExecuted.Inc()
	}
	if durSec >= 0 {
		m.ShardSeconds.Observe(durSec)
	}
}

// cellsSolved adds the search effort of the cells a shard just decided.
func (m *Metrics) cellsSolved(cells []VerifyCell) {
	if m == nil {
		return
	}
	for i := range cells {
		st := &cells[i].Search
		m.SatConflicts.Add(float64(st.Conflicts))
		m.SatDecisions.Add(float64(st.Decisions))
		m.SatPropagations.Add(float64(st.Propagations))
		m.SatRestarts.Add(float64(st.Restarts))
	}
}

// jobDone records one merged job row. durSec < 0 means no shard of the
// job ever started a clock here.
func (m *Metrics) jobDone(status string, durSec float64) {
	if m == nil {
		return
	}
	m.Jobs.With(status).Inc()
	if durSec >= 0 {
		m.JobSeconds.Observe(durSec)
	}
}

// CacheStats reads the cumulative probe counters back: every shard this
// process replayed from, or missed in, a shard cache — campaigns and leases
// alike.
func (m *Metrics) CacheStats() CacheStats {
	if m == nil {
		return CacheStats{}
	}
	return CacheStats{Hits: int64(m.CacheHits.Value()), Misses: int64(m.CacheMisses.Value())}
}

// queueDepth publishes the number of shards still pending.
func (m *Metrics) queueDepth(n int64) {
	if m == nil {
		return
	}
	m.QueueDepth.Set(float64(n))
}
