// dcoord is the distributed campaign coordinator: the fabric's control
// plane. It accepts the same JSON campaign matrices as dfarmd, but instead
// of executing every shard itself it leases shards out to a fleet of
// registered dfarmd workers (dfarmd -coord), with deadlines, capped
// exponential backoff, cooldown for unreachable workers and poison
// quarantine for shards that fail on distinct workers — and it degrades
// gracefully to local execution whenever the fleet drains to zero. Because
// shard results are pure functions of their lease, the streamed report is
// byte-identical to a single-process run of the same matrix no matter
// which workers died, which leases were retried, or whether the fabric
// fell back to local execution.
//
// Campaign streams are resumable: the response carries a Campaign-Id
// header, every row is journaled (-journal-dir), and a client that
// reconnects with a Last-Row header replays from where it left off while
// the campaign keeps running server-side. The journal doubles as the job
// queue's persistence — a restarted coordinator re-runs unfinished
// campaigns (cheaply, through the warm shard cache) and replays completed
// ones from disk.
//
//	dcoord -addr :8850 -journal-dir /var/lib/dcoord -cache-dir /var/cache/dcoord -auth-token s3cret
//	dfarmd -addr :8845 -coord http://localhost:8850 -advertise http://localhost:8845 -auth-token s3cret
//	dfarm  -server http://localhost:8850 -auth-token s3cret -run lru -packets 50000
//
// Endpoints:
//
//	POST /v1/campaigns    submit a matrix, stream NDJSON rows (resumable)
//	POST /v1/workers      worker heartbeat
//	GET  /v1/workers      fleet snapshot
//	GET  /v1/shards/{key} shared shard store read (workers' remote tier)
//	PUT  /v1/shards/{key} shared shard store write
//	GET  /v1/stats        campaigns/rows/workers/dispatch counters, per-worker
//	                      lease-latency quantiles and poison forensics
//	GET  /metrics         Prometheus-text metrics (lease latency histograms,
//	                      retries, backoff, poison quarantines, fleet gauges)
//	GET  /healthz         liveness probe
//
// -trace journals campaign/job/shard/lease lifecycle events as NDJSON;
// -pprof mounts net/http/pprof on a separate listener, never the serving
// mux.
//
// On SIGINT/SIGTERM the coordinator stops accepting campaigns, drains
// subscriber streams for -drain-timeout, stops producers (their campaigns
// stay journaled for the next process) and flushes the disk cache tier.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"druzhba/internal/cli"
	"druzhba/internal/fabric"
	"druzhba/internal/farmd"
)

func main() {
	fs := flag.NewFlagSet("dcoord", flag.ExitOnError)
	addr := fs.String("addr", ":8850", "listen address")
	journalDir := fs.String("journal-dir", "", "campaign journal directory for resumable streams and restart recovery (empty = in-memory only)")
	cacheDir := fs.String("cache-dir", "", "persistent shard-cache directory for the fleet's shared store (empty = in-memory only)")
	cacheEntries := fs.Int("cache-entries", 4096, "in-memory LRU capacity in shard results (0 = default)")
	cacheMaxMB := fs.Int64("cache-max-mb", 4096, "on-disk cache size cap in MiB (0 = unbounded)")
	noCache := fs.Bool("no-cache", false, "disable the shared shard store entirely")
	workers := fs.Int("workers", 0, "local engine pool size per campaign — lease parallelism, and local-fallback capacity (0 = GOMAXPROCS)")
	maxConcurrent := fs.Int("max-concurrent", 2, "campaigns executing at once; excess submissions queue")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job wall-clock budget (0 = unbounded)")
	rowTimeout := fs.Duration("row-timeout", 0, "per-row stream write deadline; a stalled subscriber loses only its stream, the campaign keeps running (0 = 30s, negative = unbounded)")
	authToken := fs.String("auth-token", "", "shared fleet secret; requires Authorization: Bearer on mutating endpoints and is forwarded on leases")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown window for subscriber streams")
	workerTTL := fs.Duration("worker-ttl", 15*time.Second, "drop workers that have not heartbeated within this window")
	maxAttempts := fs.Int("max-attempts", 8, "total lease attempts per shard before poison quarantine")
	poisonAfter := fs.Int("poison-after", 3, "distinct failed workers per shard before poison quarantine")
	leaseTimeout := fs.Duration("lease-timeout", 10*time.Minute, "per-attempt shard execution budget on a worker")
	cooldown := fs.Duration("cooldown", 5*time.Second, "bench an unreachable worker for this long after a transport failure")
	tracePath := fs.String("trace", "", "journal campaign/job/shard/lease lifecycle events as NDJSON to this file (empty = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra listener, e.g. 127.0.0.1:6060 (empty = off; never mounted on the serving mux)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() > 0 {
		cli.Fatalf("dcoord: unexpected argument %q (all options are flags)", fs.Arg(0))
	}

	rt, err := farmd.NewRuntime("dcoord", farmd.RuntimeFlags{
		TracePath: *tracePath, PprofAddr: *pprofAddr,
		NoCache: *noCache, CacheEntries: *cacheEntries, CacheDir: *cacheDir, CacheMaxMB: *cacheMaxMB,
	})
	if err != nil {
		cli.Fatalf("dcoord: %v", err)
	}
	defer rt.Close()

	coord, err := fabric.NewCoordinator(fabric.CoordConfig{
		Cache:           rt.Cache,
		JournalDir:      *journalDir,
		Workers:         *workers,
		MaxConcurrent:   *maxConcurrent,
		JobTimeout:      *jobTimeout,
		RowWriteTimeout: *rowTimeout,
		AuthToken:       *authToken,
		WorkerTTL:       *workerTTL,
		Metrics:         rt.Metrics,
		Trace:           rt.Trace,
		Dispatch: fabric.DispatchConfig{
			MaxAttempts:  *maxAttempts,
			PoisonAfter:  *poisonAfter,
			LeaseTimeout: *leaseTimeout,
			Cooldown:     *cooldown,
			JitterSeed:   time.Now().UnixNano(),
		},
	})
	if err != nil {
		cli.Fatalf("dcoord: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "dcoord: listening on %s (journal-dir=%q, cache-dir=%q)\n", *addr, *journalDir, *cacheDir)
	if err := fabric.Serve(ctx, *addr, coord, *drainTimeout); err != nil {
		cli.Fatalf("dcoord: %v", err)
	}
}
