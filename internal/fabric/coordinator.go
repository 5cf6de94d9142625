// Package fabric is the distributed campaign fabric: a coordinator that
// splits campaign matrices into shard leases, dispatches them to a fleet
// of dfarmd workers with retry, backoff and poison quarantine, journals
// every row for resumable streams and restart recovery, and serves the
// fleet's shared content-addressed shard store.
//
// The fabric's load-bearing invariant is inherited from the engine: a
// shard result is a pure function of (target fingerprint, derived seed,
// shard size), so leases can be retried, re-issued after worker death and
// executed anywhere — including falling all the way back to the
// coordinator's local worker pool — without ever changing a report row. A
// distributed campaign's report is byte-identical to a single-process run
// of the same matrix, regardless of which faults fired in between.
package fabric

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/farmd"
	"druzhba/internal/obs"
)

// CoordConfig configures a Coordinator.
type CoordConfig struct {
	// Cache is the fleet's shared shard store: consulted by the
	// coordinator's engine, served to workers over /v1/shards (nil = no
	// shared cache).
	Cache campaign.ShardCache

	// JournalDir persists campaign requests and row streams for resumable
	// clients and restart recovery ("" = in-memory only: streams resume
	// while the coordinator lives, nothing survives a restart).
	JournalDir string

	// Workers is the engine pool size per campaign (0 = GOMAXPROCS). With
	// remote workers leased the pool mostly waits on the network; it is
	// also the local-fallback execution capacity.
	Workers int

	// MaxConcurrent bounds campaigns executing at once (0 = 2).
	MaxConcurrent int

	// JobTimeout is the default per-job wall-clock budget applied when a
	// request does not set one (0 = unbounded).
	JobTimeout time.Duration

	// RowWriteTimeout bounds each subscriber row write (0 = 30s, negative
	// = unbounded). A stalled subscriber only loses its own stream — the
	// campaign keeps running and the client can resume.
	RowWriteTimeout time.Duration

	// AuthToken, when non-empty, gates campaign submission, worker
	// registration and the shard store behind "Authorization: Bearer".
	// It is also the default lease token sent to workers.
	AuthToken string

	// WorkerTTL expires workers that stop heartbeating (0 = 15s).
	WorkerTTL time.Duration

	// Dispatch tunes lease retry, backoff, poisoning and transport.
	Dispatch DispatchConfig

	// Metrics is the registry GET /metrics serves; the coordinator
	// registers its campaign, dispatcher and shard-store instruments on
	// it (nil = a fresh private registry, so /metrics always works).
	Metrics *obs.Registry

	// Trace journals campaign/job/shard/lease lifecycle events as
	// NDJSON (nil = no tracing). Observability only: an instrumented
	// campaign's report is byte-identical to an untraced one.
	Trace *obs.Tracer
}

// CampaignID derives a campaign's identity from its request content: the
// same matrix is the same campaign, so a resubmission attaches to the
// running (or journaled) stream instead of re-executing, and a
// reconnecting client needs no session state beyond the request it already
// holds.
func CampaignID(req *farmd.MatrixRequest) (string, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:24], nil
}

// campaignState is one campaign's in-memory stream: the rows produced so
// far and a condition variable subscribers wait on. The producer appends
// under mu and broadcasts; subscribers copy out rows beyond their index.
type campaignState struct {
	id string

	mu   sync.Mutex
	cond *sync.Cond
	rows [][]byte
	done bool
}

func newCampaignState(id string) *campaignState {
	st := &campaignState{id: id}
	st.cond = sync.NewCond(&st.mu)
	return st
}

func (st *campaignState) append(row []byte) {
	st.mu.Lock()
	st.rows = append(st.rows, row)
	st.cond.Broadcast()
	st.mu.Unlock()
}

func (st *campaignState) finish() {
	st.mu.Lock()
	st.done = true
	st.cond.Broadcast()
	st.mu.Unlock()
}

// LeaseLatencySummary summarizes one worker's lease-latency histogram
// for /v1/stats: observation count plus interpolated quantiles in
// milliseconds.
type LeaseLatencySummary struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// CoordStats is the coordinator's /v1/stats document: a read-only view of
// the instruments on CoordConfig.Metrics (plus the poison ledger, which has
// no series). LeaseLatency and Poison are additive extensions — existing
// consumers of the original counters are unaffected.
type CoordStats struct {
	Campaigns    int64         `json:"campaigns"`      // campaigns completed
	Rows         int64         `json:"rows"`           // rows journaled/streamed
	WorkersAlive int           `json:"workers_alive"`  // heartbeating workers
	ShardHits    int64         `json:"shard_hits"`     // shared-store GET hits
	ShardMisses  int64         `json:"shard_misses"`   // shared-store GET misses
	ShardPuts    int64         `json:"shard_puts"`     // shared-store PUTs accepted
	Dispatch     DispatchStats `json:"dispatch"`       // lease dispatcher counters
	LocalShards  int64         `json:"local_fallback"` // dispatcher fallbacks (duplicated for convenience)

	// LeaseLatency summarizes per-worker lease round trips (JSON object
	// keys sort deterministically under encoding/json).
	LeaseLatency map[string]LeaseLatencySummary `json:"lease_latency"`

	// Poison is the recent poison-quarantine forensics ledger: which
	// workers failed each shard, with the full attempt timeline.
	Poison []PoisonRecord `json:"poison"`
}

// Coordinator is the dcoord HTTP service: the fleet serving core plus a
// dispatcher executor, a journal, a worker registry and a shard store. It
// accepts campaign matrices, executes them on the campaign engine with
// shards leased out to the registered dfarmd fleet (falling back to local
// execution when the fleet drains), journals every row, and serves
// resumable NDJSON streams plus the fleet's shared shard store.
//
// Endpoints:
//
//	POST /v1/campaigns    submit a matrix, stream NDJSON rows (resumable
//	                      via the Last-Row request header; the response's
//	                      Campaign-Id header advertises resumability)
//	POST /v1/workers      worker heartbeat {"url": "..."}
//	GET  /v1/workers      fleet snapshot
//	GET  /v1/shards/{key} shared shard store read
//	PUT  /v1/shards/{key} shared shard store write
//	GET  /v1/stats        counters
//	GET  /healthz         liveness probe
type Coordinator struct {
	cfg     CoordConfig
	core    *farmd.Service
	reg     *Registry
	disp    *Dispatcher
	journal *Journal // nil when JournalDir is ""

	root     context.Context // producer lifetime: campaigns outlive clients
	stopRoot context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaignState

	// Observability: fm is the fabric instrument set on the core's
	// registry; the rest are the coordinator's own counters.
	fm                       *Metrics
	mCampaigns, mRows        *obs.Counter
	mStoreHits, mStoreMisses *obs.Counter
	mStorePuts               *obs.Counter
}

// NewCoordinator builds a coordinator and recovers its journal: completed
// campaigns become replayable from disk on demand, unfinished ones —
// campaigns a previous process accepted but never finished — re-run
// immediately, which determinism plus the shard cache makes cheap and
// byte-identical to what the dead process would have produced.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Dispatch.Token == "" {
		cfg.Dispatch.Token = cfg.AuthToken
	}
	if cfg.Dispatch.Trace == nil {
		cfg.Dispatch.Trace = cfg.Trace
	}
	c := &Coordinator{
		cfg:       cfg,
		reg:       NewRegistry(cfg.WorkerTTL),
		campaigns: map[string]*campaignState{},
	}
	c.core = farmd.NewService(farmd.Config{
		Cache:           cfg.Cache,
		Workers:         cfg.Workers,
		MaxConcurrent:   cfg.MaxConcurrent,
		JobTimeout:      cfg.JobTimeout,
		RowWriteTimeout: cfg.RowWriteTimeout,
		AuthToken:       cfg.AuthToken,
		Metrics:         cfg.Metrics,
		Trace:           cfg.Trace,
	}, func() any { return c.Stats() })
	reg := c.core.Metrics()
	c.fm = NewMetrics(reg)
	c.mCampaigns = reg.Counter("druzhba_coord_campaigns_total", "campaigns run to completion")
	c.mRows = reg.Counter("druzhba_coord_rows_total", "rows journaled and streamed")
	c.mStoreHits = reg.Counter("druzhba_coord_shard_store_hits_total", "shared shard store GET hits")
	c.mStoreMisses = reg.Counter("druzhba_coord_shard_store_misses_total", "shared shard store GET misses")
	c.mStorePuts = reg.Counter("druzhba_coord_shard_store_puts_total", "shared shard store PUTs accepted")
	if cfg.Dispatch.Metrics == nil {
		cfg.Dispatch.Metrics = c.fm
	}
	c.disp = NewDispatcher(c.reg, cfg.Dispatch)
	c.root, c.stopRoot = context.WithCancel(context.Background())
	reg.OnCollect(c.fm.CollectFleet(c.reg))

	c.core.HandleAuth("POST /v1/campaigns", c.handleCampaigns)
	c.core.HandleAuth("POST /v1/workers", c.handleWorkerRegister)
	c.core.Handle("GET /v1/workers", c.handleWorkerList)
	c.core.HandleAuth("GET /v1/shards/{key}", c.handleShardGet)
	c.core.HandleAuth("PUT /v1/shards/{key}", c.handleShardPut)

	if cfg.JournalDir != "" {
		j, err := NewJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		c.journal = j
		ids, err := j.Campaigns()
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if j.Done(id) {
				continue // replayed from disk on demand
			}
			req, ok, err := j.LoadRequest(id)
			if err != nil || !ok {
				continue // a torn request file never got a subscriber's ack
			}
			st := newCampaignState(id)
			c.campaigns[id] = st
			go c.runCampaign(st, req, nil)
		}
	}
	return c, nil
}

// Registry exposes the worker registry (tests and embedders).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Dispatcher exposes the lease dispatcher (tests and embedders).
func (c *Coordinator) Dispatcher() *Dispatcher { return c.disp }

// Close cancels every producer. Campaigns interrupted here are
// deliberately left unfinished in the journal, so the next coordinator
// process re-runs them to completion.
func (c *Coordinator) Close() { c.stopRoot() }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.core.ServeHTTP(w, r) }

// lookup returns the campaign state for a request, starting the campaign
// (on exp, the expansion admission built) if it is new. Completed journaled
// campaigns are rehydrated from disk.
func (c *Coordinator) lookup(id string, req *farmd.MatrixRequest, exp *farmd.Expansion) (*campaignState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.campaigns[id]; ok {
		return st, nil
	}
	if c.journal != nil && c.journal.Done(id) {
		rows, err := c.journal.LoadRows(id)
		if err != nil {
			return nil, err
		}
		st := newCampaignState(id)
		st.rows = rows
		st.done = true
		c.campaigns[id] = st
		return st, nil
	}
	st := newCampaignState(id)
	if c.journal != nil {
		if err := c.journal.SaveRequest(id, req); err != nil {
			return nil, err
		}
	}
	c.campaigns[id] = st
	go c.runCampaign(st, req, exp)
	return st, nil
}

// runCampaign is the producer: it executes the matrix under the
// coordinator's root context — a subscriber disconnect never cancels the
// campaign; the journal, not the connection, owns the work — appending
// each row to the in-memory stream and the journal as it is produced. exp is
// req's expansion; a campaign recovered from the journal has none yet.
func (c *Coordinator) runCampaign(st *campaignState, req *farmd.MatrixRequest, exp *farmd.Expansion) {
	defer st.finish()

	// Queue for an execution slot (shutdown drains the queue).
	release, ok := c.core.Acquire(c.root)
	if !ok {
		return
	}
	defer release()

	var writer *RowWriter
	if c.journal != nil {
		w, err := c.journal.OpenRows(st.id)
		if err == nil {
			writer = w
			defer writer.Close()
		}
	}
	emit := func(row farmd.Row) {
		data, err := json.Marshal(row)
		if err != nil {
			return
		}
		c.mRows.Inc()
		if writer != nil {
			writer.Append(data) //nolint:errcheck // stream stays authoritative in memory
		}
		st.append(data)
	}

	optsFor := func(phase string, vrep *campaign.Report) campaign.Options {
		exec := &PhaseExecutor{
			Dispatcher: c.disp,
			Campaign:   st.id,
			Phase:      phase,
			Request:    req,
		}
		if vrep != nil {
			// Only verify rows feed the fuzz corpus; sending the rest
			// would bloat every lease of the phase.
			for _, j := range vrep.Jobs {
				if j.Mode == campaign.ModeVerify {
					exec.VerifyRows = append(exec.VerifyRows, j)
				}
			}
		}
		opts := c.core.Options(req)
		opts.Executor = exec
		opts.OnJobReport = func(jr campaign.JobReport) { emit(farmd.Row{Job: &jr}) }
		return opts
	}

	rep, runErr := farmd.RunMatrixPhases(c.root, req, exp, optsFor)
	if c.root.Err() != nil {
		// Shutdown, not failure: emit no terminal row and leave the
		// journal unfinished so the next process re-runs the campaign.
		return
	}
	emit(farmd.TerminalRow(rep, runErr))
	c.mCampaigns.Inc()
	if writer != nil {
		if err := writer.Close(); err == nil {
			c.journal.MarkDone(st.id) //nolint:errcheck // next run re-executes, still correct
		}
		writer = nil
	}
}

// handleCampaigns subscribes the client to its campaign's row stream,
// starting the campaign if this request is its first arrival. The
// Campaign-Id response header advertises resumability; a client that
// reconnects with Last-Row: n receives the stream from row n — rows it
// already consumed are never re-executed, only replayed from the journal's
// in-memory image.
func (c *Coordinator) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	req, ok := farmd.DecodeMatrix(w, r)
	if !ok {
		return
	}
	exp, ok := farmd.ExpandMatrix(w, req)
	if !ok {
		return
	}
	id, err := CampaignID(req)
	if err != nil {
		farmd.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	lastRow := 0
	if h := r.Header.Get("Last-Row"); h != "" {
		n, err := strconv.Atoi(h)
		if err != nil || n < 0 {
			farmd.HTTPError(w, http.StatusBadRequest, "bad Last-Row header %q", h)
			return
		}
		lastRow = n
	}
	st, err := c.lookup(id, req, exp)
	if err != nil {
		farmd.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	w.Header().Set("Campaign-Id", id)
	rows := c.core.OpenRows(w)

	// Wake the subscriber loop when the client goes away.
	stop := context.AfterFunc(r.Context(), func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	defer stop()

	idx := lastRow
	st.mu.Lock()
	for {
		for idx < len(st.rows) {
			row := st.rows[idx]
			idx++
			st.mu.Unlock()
			if _, err := rows.Write(append(append([]byte{}, row...), '\n')); err != nil {
				return // subscriber gone or stalled; the campaign keeps running
			}
			st.mu.Lock()
		}
		if st.done || r.Context().Err() != nil {
			break
		}
		st.cond.Wait()
	}
	st.mu.Unlock()
}

// handleWorkerRegister records a worker heartbeat.
func (c *Coordinator) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := farmd.DecodeBody(w, r, 1<<12, &body); err != nil || body.URL == "" {
		farmd.HTTPError(w, http.StatusBadRequest, "worker registration needs a url")
		return
	}
	c.reg.Register(body.URL)
	w.WriteHeader(http.StatusNoContent)
}

// handleWorkerList snapshots the fleet.
func (c *Coordinator) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	farmd.WriteJSON(w, http.StatusOK, c.reg.Snapshot())
}

// handleShardGet serves the shared shard store to workers.
func (c *Coordinator) handleShardGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if c.cfg.Cache == nil || !farmd.ValidShardKey(key) {
		farmd.HTTPError(w, http.StatusNotFound, "no such shard")
		return
	}
	res, ok := c.cfg.Cache.Get(key)
	if !ok {
		c.mStoreMisses.Inc()
		farmd.HTTPError(w, http.StatusNotFound, "no such shard")
		return
	}
	c.mStoreHits.Inc()
	farmd.WriteJSON(w, http.StatusOK, farmd.WireResult(res))
}

// handleShardPut accepts a worker's shard result into the shared store.
func (c *Coordinator) handleShardPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if c.cfg.Cache == nil || !farmd.ValidShardKey(key) {
		farmd.HTTPError(w, http.StatusBadRequest, "bad shard key")
		return
	}
	var wire farmd.WireShardResult
	if err := farmd.DecodeBody(w, r, farmd.MaxShardResultBytes, &wire); err != nil {
		farmd.HTTPError(w, http.StatusBadRequest, "bad shard result: %v", err)
		return
	}
	if wire.Error != "" {
		farmd.HTTPError(w, http.StatusBadRequest, "errored results are not cacheable")
		return
	}
	c.cfg.Cache.Put(key, wire.Result())
	c.mStorePuts.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// Stats reads the coordinator's counters and per-worker lease-latency
// summaries off the metrics registry, plus the poison forensics ledger.
func (c *Coordinator) Stats() CoordStats {
	ds := c.disp.Stats()
	lease := map[string]LeaseLatencySummary{}
	for _, s := range c.fm.LeaseLatency.Snapshots() {
		if len(s.Labels) != 1 {
			continue
		}
		lease[s.Labels[0]] = LeaseLatencySummary{
			Count: s.Snap.Count,
			P50MS: s.Snap.Quantile(0.5) * 1000,
			P90MS: s.Snap.Quantile(0.9) * 1000,
			P99MS: s.Snap.Quantile(0.99) * 1000,
		}
	}
	poison := c.disp.PoisonForensics()
	if poison == nil {
		poison = []PoisonRecord{}
	}
	return CoordStats{
		Campaigns:    int64(c.mCampaigns.Value()),
		Rows:         int64(c.mRows.Value()),
		WorkersAlive: c.reg.AliveCount(),
		ShardHits:    int64(c.mStoreHits.Value()),
		ShardMisses:  int64(c.mStoreMisses.Value()),
		ShardPuts:    int64(c.mStorePuts.Value()),
		Dispatch:     ds,
		LocalShards:  ds.Fallback,
		LeaseLatency: lease,
		Poison:       poison,
	}
}

// Serve runs the coordinator on addr until ctx is cancelled, then shuts
// down gracefully: the listener closes, subscribers drain for drain,
// producers stop (their campaigns stay journaled for the next process),
// and the shard store's disk tier flushes.
func Serve(ctx context.Context, addr string, c *Coordinator, drain time.Duration) error {
	flush := func() error {
		c.Close()
		if f, ok := c.cfg.Cache.(farmd.Flusher); ok {
			return f.Flush()
		}
		return nil
	}
	return farmd.ListenAndServe(ctx, addr, c, drain, flush)
}
