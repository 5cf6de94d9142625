package farmd

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/drmt"
	"druzhba/internal/obs"
	"druzhba/internal/spec"
)

// Stats is the server's /v1/stats document: a read-only view of the
// instruments on Config.Metrics, so every field equals its /metrics series.
// LeaseErrors and the remote-cache pair are additive extensions — existing
// consumers of the original counters are unaffected.
type Stats struct {
	Campaigns   int64 `json:"campaigns"`    // campaigns completed
	Jobs        int64 `json:"jobs"`         // job rows streamed
	Leases      int64 `json:"leases"`       // shard leases executed
	CacheHits   int64 `json:"cache_hits"`   // shards replayed from cache
	CacheMisses int64 `json:"cache_misses"` // shards executed with caching on

	LeaseErrors  int64 `json:"lease_errors"`        // leases whose shard errored
	RemoteHits   int64 `json:"remote_cache_hits"`   // remote-tier cache hits
	RemoteMisses int64 `json:"remote_cache_misses"` // remote-tier cache misses
}

// Server is the dfarmd HTTP service: the fleet serving core plus a lease
// executor. POST /v1/campaigns streams campaign rows as NDJSON, POST
// /v1/leases executes one shard lease for a fabric coordinator, GET
// /v1/benchmarks lists the embedded benchmark registries; /v1/stats,
// /metrics and /healthz come with the core.
type Server struct {
	core      *Service
	leaseSem  chan struct{}
	instances *instanceCache

	// The server's own lease/campaign instruments, and the cache series
	// other layers own that /v1/stats reports.
	mCampaigns, mJobs          *obs.Counter
	mLeases, mLeaseErrors      *obs.Counter
	mLeaseSeconds              *obs.Histogram
	mRemoteHits, mRemoteMisses *obs.Counter
}

// NewServer builds a campaign server over cfg.
func NewServer(cfg Config) *Server {
	leaseSlots := cfg.Workers
	if leaseSlots <= 0 {
		leaseSlots = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		leaseSem:  make(chan struct{}, leaseSlots),
		instances: newInstanceCache(16),
	}
	s.core = NewService(cfg, func() any { return s.Stats() })
	reg := s.core.Metrics()
	s.mCampaigns = reg.Counter("druzhba_farmd_campaigns_total", "campaigns run to completion")
	s.mJobs = reg.Counter("druzhba_farmd_jobs_total", "job rows streamed")
	s.mLeases = reg.Counter("druzhba_farmd_leases_total", "shard leases executed")
	s.mLeaseErrors = reg.Counter("druzhba_farmd_lease_errors_total", "leases whose shard errored")
	s.mLeaseSeconds = reg.Histogram("druzhba_farmd_lease_seconds", "shard lease service time, cache probe included", nil)
	gets := cacheGets(reg)
	s.mRemoteHits, s.mRemoteMisses = gets.With(TierRemote, "hit"), gets.With(TierRemote, "miss")
	s.core.HandleAuth("POST /v1/campaigns", s.handleCampaigns)
	s.core.HandleAuth("POST /v1/leases", s.handleLease)
	s.core.Handle("GET /v1/benchmarks", s.handleBenchmarks)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.core.ServeHTTP(w, r) }

// Stats reads the cumulative serving counters off the metrics registry.
func (s *Server) Stats() Stats {
	probes := s.core.base.Metrics.CacheStats()
	return Stats{
		Campaigns:    int64(s.mCampaigns.Value()),
		Jobs:         int64(s.mJobs.Value()),
		Leases:       int64(s.mLeases.Value()),
		CacheHits:    probes.Hits,
		CacheMisses:  probes.Misses,
		LeaseErrors:  int64(s.mLeaseErrors.Value()),
		RemoteHits:   int64(s.mRemoteHits.Value()),
		RemoteMisses: int64(s.mRemoteMisses.Value()),
	}
}

// handleCampaigns expands the submitted matrix, runs it on the campaign
// engine and streams rows. Job-matrix errors surface as HTTP 4xx before
// the stream opens; once the first byte is written the stream terminates
// with either a summary row or an error row.
func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeMatrix(w, r)
	if !ok {
		return
	}
	exp, ok := ExpandMatrix(w, req)
	if !ok {
		return
	}
	// A client that disconnects while queued never starts its campaign.
	release, ok := s.core.Acquire(r.Context())
	if !ok {
		return
	}
	defer release()

	// The stream owns the connection from here on: rows are flushed as
	// jobs complete, and a client disconnect — or a row it stalls on past
	// the write deadline — cancels the campaign, freeing the engine's
	// workers and the execution slot.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	enc := json.NewEncoder(s.core.OpenRows(w))
	writeRow := func(row Row) {
		if err := enc.Encode(row); err != nil {
			cancel()
		}
	}
	opts := s.core.Options(req)
	opts.OnJobReport = func(jr campaign.JobReport) {
		s.mJobs.Inc()
		writeRow(Row{Job: &jr})
	}
	rep, runErr := RunMatrixPhases(ctx, req, exp, func(string, *campaign.Report) campaign.Options { return opts })
	if rep != nil {
		s.mCampaigns.Inc()
	}
	writeRow(TerminalRow(rep, runErr))
}

// handleLease executes one shard lease and answers with its wire result.
// The status code is the dispatch protocol: 200 carries a result (possibly
// an application failure in its Error field — the shard ran, or its target
// failed to build, and failed deterministically), 4xx means the lease
// itself is unusable on this worker (bad body, protocol skew, job not in
// the matrix, more packets than the job has, a key that is not an
// engine-issued digest — it names files in the disk tier), and a transport
// failure with no status at all is what the coordinator reads as worker
// death. Results are cached under the coordinator-issued key — the worker
// never recomputes keys, because cache keys are salted per binary and a
// worker-computed key would land in a different key space than the
// coordinator's.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var lease ShardLease
	if err := DecodeBody(w, r, MaxLeaseBytes, &lease); err != nil {
		HTTPError(w, http.StatusBadRequest, "bad shard lease: %v", err)
		return
	}
	if lease.Proto != LeaseProto {
		HTTPError(w, http.StatusConflict, "lease protocol %d, worker speaks %d", lease.Proto, LeaseProto)
		return
	}
	if lease.Request == nil {
		HTTPError(w, http.StatusBadRequest, "lease has no matrix request")
		return
	}
	if lease.N < 1 {
		HTTPError(w, http.StatusBadRequest, "lease asks for %d packets", lease.N)
		return
	}
	if lease.Key != "" && !ValidShardKey(lease.Key) {
		HTTPError(w, http.StatusBadRequest, "bad shard key")
		return
	}

	// Bound concurrent lease execution by the worker pool size so a
	// coordinator fanning out cannot oversubscribe the host.
	select {
	case s.leaseSem <- struct{}{}:
		defer func() { <-s.leaseSem }()
	case <-r.Context().Done():
		return
	}

	cfg, cm := &s.core.cfg, s.core.base.Metrics
	start := cfg.Now()
	writeResult := func(res *campaign.ShardResult) {
		s.mLeases.Inc()
		durSec := cfg.Now().Sub(start).Seconds()
		s.mLeaseSeconds.Observe(durSec)
		errored := res.Err != nil
		if errored {
			s.mLeaseErrors.Inc()
		}
		cfg.Trace.Event("lease", "served",
			obs.KV{K: "key", V: lease.Key},
			obs.KV{K: "n", V: lease.N},
			obs.KV{K: "errored", V: errored},
			obs.KV{K: "dur_us", V: int64(durSec * 1e6)})
		WriteJSON(w, http.StatusOK, WireResult(res))
	}

	// The local cache stack (memory, disk, and — when the daemon points
	// back at a coordinator — the shared remote tier) may already hold
	// this shard from an earlier lease or a previous campaign.
	if res, ok := campaign.CacheGet(cfg.Cache, cm, lease.Key); ok {
		writeResult(res)
		return
	}

	ent, err := s.instances.get(&lease, cm)
	if err != nil {
		HTTPError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// A lease is one shard of its job, so it cannot hold more packets than
	// the job has; a single default-size shard is served regardless (a
	// probe may lease one from a smaller job), which still bounds how long
	// one lease can hold its slot.
	if lease.N > max(ent.packets, campaign.DefaultShardSize) {
		HTTPError(w, http.StatusUnprocessableEntity, "lease asks for %d packets of job %q, which has %d", lease.N, lease.Job, ent.packets)
		return
	}
	// The shard runs exactly as the coordinator's own engine would run it:
	// built on this job's first miss, on a reused runner, a failure —
	// build failures included — returned as the shard's deterministic
	// result.
	res := ent.exec.Run(r.Context(), lease.Seed, lease.N)
	campaign.CachePut(cfg.Cache, lease.Key, res)
	if r.Context().Err() != nil {
		// The coordinator gave up on this lease (deadline, campaign
		// abort); the connection is dead, so skip the write the
		// dispatcher will never read. A cancelled context-aware run
		// carried ctx.Err() as its result error, so it was not cached
		// above either.
		return
	}
	writeResult(res)
}

// handleBenchmarks lists the embedded benchmark registries by architecture.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]string{
		"rmt":  spec.Names(),
		"drmt": drmt.BenchmarkNames(),
	})
}

// Serve runs a campaign server on addr until ctx is cancelled, then shuts
// down gracefully: in-flight streams get drain to finish, and the disk
// cache tier (when the cache implements Flusher) is flushed before the
// process exits. drain <= 0 means 5s.
func Serve(ctx context.Context, addr string, cfg Config, drain time.Duration) error {
	var flush func() error
	if f, ok := cfg.Cache.(Flusher); ok {
		flush = f.Flush
	}
	return ListenAndServe(ctx, addr, NewServer(cfg), drain, flush)
}
