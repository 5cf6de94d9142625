// executor.go is the engine's remote-execution hook: the seam the
// distributed campaign fabric (package fabric) plugs into.
//
// A shard result is a pure function of (target fingerprint, derived shard
// seed, shard size) — the same property that makes results cacheable makes
// them relocatable: any process holding the same benchmark registries can
// execute the shard and return an identical result. Options.Executor
// intercepts shard execution after the cache is consulted and before a
// local runner is built; everything else — the shard plan, the in-order
// emitter, merging, fail-fast, the cache — is unchanged, so a distributed
// campaign's report is byte-identical to a local run by construction.
package campaign

import (
	"context"
	"errors"
)

// ErrNoWorkers is the sentinel a ShardExecutor returns (wrapped, as a
// ShardResult error) when it currently has nowhere to send a shard. The
// engine treats it as an instruction to degrade gracefully: the shard is
// executed locally on the engine's own worker pool, exactly as if no
// executor were configured. It is the mechanism by which a coordinator
// whose worker set drains to zero keeps serving campaigns.
var ErrNoWorkers = errors.New("campaign: no remote workers available")

// ShardTask addresses one shard the engine wants executed remotely:
// everything an executor needs to describe the shard to another process.
type ShardTask struct {
	// Job is the shard's job (name, seed, packet budget, target). The
	// job name plus the matrix request that produced it identify the
	// target to a remote worker holding the same benchmark registries.
	Job *Job

	// Shard is the shard index within the job's plan.
	Shard int

	// Seed is the shard's derived traffic seed — deriveSeed(job seed,
	// shard) — the value a remote runner passes to RunShard verbatim.
	Seed int64

	// N is the shard's packet count.
	N int

	// Fingerprint is the target's content hash ("" when the target is not
	// fingerprintable).
	Fingerprint string

	// Key is the shard's content-addressed cache key ("" when there is no
	// fingerprint). Executors forward it so remote workers read and write
	// the shared cache tier in the engine's key space.
	Key string
}

// ShardExecutor executes shards somewhere other than the engine's own
// runners — the distributed fabric's dispatcher implements it with leases,
// retries and backoff over a fleet of workers. Implementations must be
// safe for concurrent use (the engine calls ExecuteShard from every pool
// worker) and must honor ctx, which is bounded by the job's wall-clock
// deadline under Options.JobTimeout and cancelled when the campaign
// aborts. The purity contract of Runner.RunShard carries over: for a
// context that is never cancelled, the result must be a pure function of
// the task — never of which worker executed it, how many retries it took,
// or when it ran.
type ShardExecutor interface {
	ExecuteShard(ctx context.Context, t ShardTask) *ShardResult
}
