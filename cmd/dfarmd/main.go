// dfarmd is the long-running campaign service: dfarm's engine behind an
// HTTP daemon with a content-addressed persistent shard-result cache.
// Clients (dfarm -server, or anything speaking the JSON protocol) POST job
// matrices to /v1/campaigns and receive one NDJSON row per job as jobs
// complete, in matrix order, followed by a summary row carrying the
// verdict, cache counters and timing.
//
// Shard results are pure functions of (target fingerprint, shard seed,
// shard size), so the daemon caches every clean result — in a bounded
// in-memory LRU, optionally tiered over an on-disk directory that survives
// restarts — and replays it on resubmission: submitting an unchanged
// matrix twice executes zero shards the second time while streaming
// byte-identical job rows.
//
// With -coord, the daemon joins a distributed campaign fabric as a worker:
// it heartbeats to the dcoord coordinator (which leases it shards over
// POST /v1/leases) and stacks the coordinator's shared shard store under
// its local cache tiers, so work any fleet member has done is a cache hit
// here. -advertise is the base URL the coordinator should dial back
// (defaults to http://<hostname><addr-port>).
//
//	dfarmd -addr :8844 -cache-dir /var/cache/dfarmd
//	dfarmd -addr :8845 -coord http://coord:8850 -advertise http://worker1:8845 -auth-token s3cret
//	dfarm -server http://localhost:8844 -run lru -packets 50000
//
// Endpoints:
//
//	POST /v1/campaigns   submit a matrix (JSON), stream NDJSON rows
//	POST /v1/leases      execute one shard lease (fabric coordinators)
//	GET  /v1/benchmarks  embedded benchmark registries by architecture
//	GET  /v1/stats       cumulative campaigns/jobs/leases/cache counters
//	GET  /metrics        Prometheus-text metrics (lease latency, cache tiers)
//	GET  /healthz        liveness probe
//
// -trace journals campaign/lease lifecycle events as NDJSON; -pprof
// mounts net/http/pprof on a separate listener, never the serving mux.
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight
// streams for -drain-timeout, flushes the disk cache tier and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"druzhba/internal/cli"
	"druzhba/internal/fabric"
	"druzhba/internal/farmd"
)

func main() {
	fs := flag.NewFlagSet("dfarmd", flag.ExitOnError)
	addr := fs.String("addr", ":8844", "listen address")
	cacheDir := fs.String("cache-dir", "", "persistent shard-cache directory (empty = in-memory only)")
	cacheEntries := fs.Int("cache-entries", 4096, "in-memory LRU capacity in shard results (0 = default)")
	cacheMaxMB := fs.Int64("cache-max-mb", 4096, "on-disk cache size cap in MiB; least recently used entries are evicted past it (0 = unbounded)")
	noCache := fs.Bool("no-cache", false, "disable the shard-result cache entirely")
	workers := fs.Int("workers", 0, "worker pool size per campaign (0 = GOMAXPROCS)")
	maxConcurrent := fs.Int("max-concurrent", 2, "campaigns executing at once; excess submissions queue")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job wall-clock budget (0 = unbounded)")
	rowTimeout := fs.Duration("row-timeout", 0, "per-row stream write deadline; a client stalled past it has its campaign cancelled (0 = 30s, negative = unbounded)")
	authToken := fs.String("auth-token", "", "shared fleet secret; requires Authorization: Bearer on mutating endpoints")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Second, "graceful-shutdown window for in-flight streams")
	coord := fs.String("coord", "", "join this dcoord coordinator's fabric as a worker (base URL)")
	advertise := fs.String("advertise", "", "base URL the coordinator dials this worker back on (default derived from -addr and the hostname)")
	heartbeat := fs.Duration("heartbeat", 5*time.Second, "coordinator heartbeat interval with -coord")
	tracePath := fs.String("trace", "", "journal campaign/lease lifecycle events as NDJSON to this file (empty = off)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this extra listener, e.g. 127.0.0.1:6060 (empty = off; never mounted on the serving mux)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if fs.NArg() > 0 {
		cli.Fatalf("dfarmd: unexpected argument %q (all options are flags)", fs.Arg(0))
	}

	rt, err := farmd.NewRuntime("dfarmd", farmd.RuntimeFlags{
		TracePath: *tracePath, PprofAddr: *pprofAddr,
		NoCache: *noCache, CacheEntries: *cacheEntries, CacheDir: *cacheDir, CacheMaxMB: *cacheMaxMB,
	})
	if err != nil {
		cli.Fatalf("dfarmd: %v", err)
	}
	defer rt.Close()
	cache := rt.Cache
	if cache != nil && *coord != "" {
		// The fleet's shared store is the outermost (slowest) tier:
		// local misses consult the coordinator, local executions
		// publish back, so the whole fleet pools its shard work.
		remote := farmd.NewRemoteCache(*coord, *authToken, nil)
		cache = farmd.NewTiered(cache, farmd.InstrumentCache(remote, farmd.TierRemote, rt.Metrics))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coord != "" {
		self := *advertise
		if self == "" {
			host, err := os.Hostname()
			if err != nil {
				host = "localhost"
			}
			_, port, err := net.SplitHostPort(*addr)
			if err != nil {
				cli.Fatalf("dfarmd: cannot derive -advertise from -addr %q: %v", *addr, err)
			}
			self = fmt.Sprintf("http://%s:%s", host, port)
		}
		go fabric.Heartbeat(ctx, *coord, self, *authToken, *heartbeat, nil)
		fmt.Fprintf(os.Stderr, "dfarmd: joining fabric at %s as %s\n", *coord, self)
	}

	fmt.Fprintf(os.Stderr, "dfarmd: listening on %s (cache-dir=%q, max-concurrent=%d)\n", *addr, *cacheDir, *maxConcurrent)
	err = farmd.Serve(ctx, *addr, farmd.Config{
		Cache:           cache,
		Workers:         *workers,
		MaxConcurrent:   *maxConcurrent,
		JobTimeout:      *jobTimeout,
		RowWriteTimeout: *rowTimeout,
		AuthToken:       *authToken,
		Metrics:         rt.Metrics,
		Trace:           rt.Trace,
	}, *drainTimeout)
	if err != nil {
		cli.Fatalf("dfarmd: %v", err)
	}
}
