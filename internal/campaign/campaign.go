// Package campaign is dfarm's parallel fuzzing-campaign engine: the
// orchestration layer above the per-trace Fig. 5 workflow of package sim
// and the dRMT differential loop of package drmt.
//
// A campaign is a matrix of jobs, each pairing a Target — an architecture
// under test: an RMT pipeline fuzzed against a high-level specification,
// or a dRMT ISA machine fuzzed against the interpreted mini-P4 semantics —
// with a traffic seed and a packet budget. The engine
//
//   - shards each job's N packets into fixed-size chunks whose traffic
//     seeds are derived deterministically from the job seed and the shard
//     index,
//   - builds a job's target once, on the first of its shards a cache does
//     not already hold — never for a job whose every shard replays,
//   - executes shards on a bounded worker pool, each shard on a private
//     runner (cloned machines, reusable ring buffers) so no mutable state
//     is ever shared,
//   - merges shard results in (job, shard) order into a report that is
//     bit-identical regardless of the worker count.
//
// Because shard traffic depends only on (job seed, shard index) — never on
// scheduling — a campaign's deterministic report can be diffed across
// machines, worker counts and runs, which is what makes it usable as a
// compiler-testing artifact.
package campaign

import (
	"fmt"
	"runtime"
	"time"

	"druzhba/internal/obs"
)

// Job is one cell of the campaign matrix: an architecture-specific target
// under test plus the traffic that tests it.
type Job struct {
	// Name identifies the job in reports; it must be unique and non-empty.
	Name string

	// Target is the system under test; the engine builds it at most once,
	// on the job's first shard that has to execute.
	Target Target

	// Seed is the job's base traffic seed; shard s draws its packets from
	// a generator seeded with a value derived from (Seed, s).
	Seed int64

	// Packets is the number of random packets to push through the job.
	Packets int
}

func (j *Job) validate() error {
	if j.Name == "" {
		return fmt.Errorf("campaign: job has no name")
	}
	if j.Target == nil {
		return fmt.Errorf("campaign: job %q has no target", j.Name)
	}
	if v, ok := j.Target.(interface{ validate() error }); ok {
		if err := v.validate(); err != nil {
			return fmt.Errorf("campaign: job %q: %w", j.Name, err)
		}
	}
	if j.Packets < 1 {
		return fmt.Errorf("campaign: job %q asks for %d packets", j.Name, j.Packets)
	}
	// Targets that constrain the jobs they ride in (verify targets pin
	// Packets and Seed to their proof grid) check the pairing here.
	if v, ok := j.Target.(interface{ validateJob(j *Job) error }); ok {
		if err := v.validateJob(j); err != nil {
			return fmt.Errorf("campaign: job %q: %w", j.Name, err)
		}
	}
	return nil
}

// MaxJobShards bounds the shards one job plans. The engine holds a result
// slot per shard from the start of a run, so the bound keeps a job's slots
// within 8 MiB. At DefaultShardSize it still admits 2^32 packets, about
// 86 000 times the paper's 50 000-packet job, and a verify job, one shard
// per proof cell, stays far below it.
const MaxJobShards = 1 << 20

// Shards returns the number of shards the job plans when Options.ShardSize
// is shardSize (0 = DefaultShardSize; a ShardSizer target picks its own), or
// an error naming the job when that is more than MaxJobShards. It counts
// without overflow, whatever Packets is.
func (j *Job) Shards(shardSize int) (int, error) {
	size := j.shardSize(shardSize)
	if size < 1 {
		return 0, fmt.Errorf("campaign: job %q has shard size %d", j.Name, size)
	}
	n := shardCount(j.Packets, size)
	if n > MaxJobShards {
		return 0, fmt.Errorf("campaign: job %q asks for %d shards (%d packets, %d a shard), more than %d", j.Name, n, j.Packets, size, MaxJobShards)
	}
	return n, nil
}

// shardSize is the job's packets per shard when Options.ShardSize is dflt.
func (j *Job) shardSize(dflt int) int {
	if dflt <= 0 {
		dflt = DefaultShardSize
	}
	if ss, ok := j.Target.(ShardSizer); ok {
		return ss.ShardSize(dflt)
	}
	return dflt
}

// shardCount is packets/size rounded up, without the overflow of
// (packets+size-1)/size.
func shardCount(packets, size int) int {
	if packets < 1 {
		return 0
	}
	return packets/size + min(packets%size, 1)
}

// Options configures a campaign run.
type Options struct {
	// Workers is the worker pool size; 0 means GOMAXPROCS. The report is
	// identical for every value of Workers (absent FailFast).
	Workers int

	// ShardSize is the number of packets per shard; 0 means 4096. Shard
	// boundaries are part of the campaign's identity: changing ShardSize
	// changes the generated traffic, changing Workers does not.
	ShardSize int

	// MaxCounterexamples caps the deduplicated counterexamples kept per
	// job; 0 means 8, negative means unbounded.
	MaxCounterexamples int

	// FailFast cancels the whole campaign at the first failing shard
	// (mismatch or simulation error). Reports from a fail-fast run are
	// deterministic only up to the set of shards that completed.
	FailFast bool

	// Cache, when non-nil, is consulted before executing any shard whose
	// job's target implements Fingerprinter with a non-empty fingerprint,
	// and filled with every clean result executed. Cached results replay
	// byte-identically into reports, so caching changes Report.Cache's
	// counters but never a row.
	Cache ShardCache

	// Executor, when non-nil, executes cache-missed shards somewhere other
	// than the engine's own runners (the distributed fabric's lease
	// dispatcher). The engine still plans, merges and caches exactly as it
	// does locally, so a distributed report is byte-identical to a local
	// one; an executor that answers ErrNoWorkers hands the shard back to
	// the local path, which is how a coordinator degrades gracefully when
	// its worker set drains to zero.
	Executor ShardExecutor

	// JobTimeout bounds each job's wall clock (0 = unbounded): the clock
	// starts when the job's first shard begins executing, and shards
	// still running or not yet started at the deadline fail with a
	// timeout error (StatusError), so one pathological job cannot wedge
	// the campaign. A shard abandoned mid-execution leaks its goroutine
	// until it returns; runners abandoned this way are never reused.
	JobTimeout time.Duration

	// Now is the engine's clock seam: every wall-clock read the engine
	// makes (job deadlines, the report's Timing block) goes through it,
	// which is what lets the walltime analyzer guarantee no other
	// per-run input leaks into results. Nil means time.Now. Timing
	// figures derived from it are excluded from report serialization,
	// so reports stay byte-identical across clocks.
	Now func() time.Time

	// Metrics, when non-nil, receives the engine's instrumentation:
	// shard/job durations, cache hit counters and queue depth, at shard
	// granularity. Metrics are observability only — they never feed
	// fingerprints, shard keys or serialized rows, so an instrumented
	// report stays byte-identical to an unmetered one. All timing reads
	// go through Now.
	Metrics *Metrics

	// Trace, when non-nil, journals campaign → job → shard lifecycle
	// events as NDJSON spans (the -trace flag). Like Metrics it is
	// observability only and timestamps through the tracer's own
	// injected clock.
	Trace *obs.Tracer

	// OnJobReport, when non-nil, receives each job's merged report as
	// soon as the job completes. Calls are serialized and arrive in job
	// (matrix) order regardless of shard scheduling, and every submitted
	// job is reported exactly once — cancelled jobs arrive as aborted
	// after the pool drains. The rows passed here are the same values
	// assembled into the final Report, so a streaming consumer renders
	// byte-identical output to a batch consumer. The callback runs on
	// worker goroutines and blocks shard-completion bookkeeping; it
	// should not block indefinitely.
	OnJobReport func(JobReport)
}

// DefaultShardSize is the packets per shard when Options.ShardSize is 0.
const DefaultShardSize = 4096

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ShardSize <= 0 {
		o.ShardSize = DefaultShardSize
	}
	if o.MaxCounterexamples == 0 {
		o.MaxCounterexamples = 8
	}
	if o.Now == nil {
		o.Now = time.Now //dvet:walltime-ok the one approved default for the clock seam
	}
	return o
}

// deriveSeed maps (job seed, shard index) to the shard's traffic seed with
// a splitmix64 finalizer: statistically independent streams per shard, and
// stable across runs, machines and worker counts.
func deriveSeed(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
