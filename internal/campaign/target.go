package campaign

import "context"

// Target is the architecture-generic system under test of one campaign
// job. A JobExec builds the target at most once — on the job's first shard
// that has to execute, never for a job the cache fully serves — clones
// private runners over the instance, and executes shards on those runners;
// nothing above knows whether the machinery underneath is an RMT pipeline
// or a dRMT machine. Implementations must keep Build and the
// runners it yields free of shared mutable state, because runners execute
// concurrently on the worker pool.
type Target interface {
	// Arch labels the job's architecture in reports ("rmt", "drmt").
	Arch() string

	// Engine labels the execution-engine variant under test: the
	// optimization level for RMT pipelines, the execution model for dRMT
	// machines.
	Engine() string

	// Build constructs the job's master instance, at most once per
	// campaign and only when a shard has to execute. A build failure is a
	// test finding (the paper's §5.2 first failure class: configuration
	// incompatible with the hardware model), not a harness error — every
	// shard returns it as a *BuildError and the engine reports the job as
	// StatusError.
	Build() (Instance, error)
}

// Instance is one job's built target, shared read-only across workers.
type Instance interface {
	// NewRunner returns a private runner over a clone of the instance;
	// runners share no mutable state with each other or with the
	// instance. An error is the result of the shard that needed the
	// runner; the next shard asks again.
	NewRunner() (Runner, error)
}

// Runner executes a job's shards one at a time, reusing its internal
// machinery (clones, ring buffers, spec instances) across shards. A JobExec
// lends it to one shard at a time and keeps it only while its shards
// complete without error.
type Runner interface {
	// RunShard resets the runner's mutable state and streams n
	// deterministically seeded packets through the target, comparing
	// each output against the target's behavioral specification. The
	// result must be a pure function of (seed, n) — never of which
	// worker ran the shard or when — so reports stay bit-identical
	// across worker counts. Finding indices are offsets within the
	// shard.
	RunShard(seed int64, n int) ShardResult
}

// Moder is an optional Target interface labeling the job's campaign mode
// in report rows ("fuzz", "verify"). Targets without it report ModeFuzz.
type Moder interface {
	Mode() string
}

// BenchmarkNamer is an optional Target interface naming the Table-1
// benchmark the job exercises, carried into report rows so downstream
// consumers (the verify→fuzz corpus harvest) can associate rows with
// benchmarks without parsing job names.
type BenchmarkNamer interface {
	BenchmarkName() string
}

// ShardSizer is an optional Target interface overriding the campaign-level
// shard size for this target's jobs. Verification targets return 1: each
// shard is one (bits, steps) proof cell, so SAT work spreads across the
// worker pool at cell granularity.
type ShardSizer interface {
	ShardSize(dflt int) int
}

// BatchSizer is a declaration only: no runner implements it and the engine
// never asks for it — each target's fuzzer picks its own kernel (see
// sim.NewFuzzer). It stays because the frozen benchmark/wrap.go forwarder
// compiles against the name, and goes when that forwarder does.
type BatchSizer interface {
	SetBatchSize(n int)
}

// ContextRunner is an optional Runner interface for targets whose shards
// can honor cancellation mid-execution. When a runner implements it, the
// engine passes the campaign context — bounded by the job's wall-clock
// deadline under Options.JobTimeout — so a wedged shard (a hard SAT
// instance, say) returns promptly instead of leaking its goroutine. The
// purity contract of RunShard still applies: for a context that is never
// cancelled, the result must be a pure function of (seed, n).
type ContextRunner interface {
	RunShardContext(ctx context.Context, seed int64, n int) ShardResult
}

// Finding is one diverging packet found in a shard. Index is the packet's
// offset within its shard (merge converts it to the job-global packet
// index); Input, Got and Want are canonical, architecture-specific
// renderings of the diverging packet. The JSON tags fix the on-disk form
// shard caches persist.
type Finding struct {
	Index int    `json:"index"`
	Input string `json:"input"`
	Got   string `json:"got"`
	Want  string `json:"want"`
}

// ShardResult is the outcome of one shard: a pure function of (job, shard
// seed, shard size), independent of which worker ran it and when.
type ShardResult struct {
	Checked  int
	Ticks    int64
	Findings []Finding
	Cells    []VerifyCell // verification cells decided by this shard
	Err      error        // harness or simulation failure
}
