package fabric

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/farmd"
	"druzhba/internal/obs"
)

// DispatchConfig tunes the lease dispatcher's failure handling.
type DispatchConfig struct {
	// MaxAttempts bounds total attempts per shard before it is poisoned
	// (0 = 8).
	MaxAttempts int

	// PoisonAfter is the number of distinct workers a shard must fail on
	// before it is poisoned (0 = 3). Failing on distinct workers is the
	// evidence that the shard — not a worker — is the problem.
	PoisonAfter int

	// BaseBackoff is the first retry's backoff (0 = 50ms); backoff
	// doubles per attempt up to MaxBackoff (0 = 2s), with ±50% jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// Cooldown is how long a transport failure benches a worker
	// (0 = 5s); heartbeats clear it early.
	Cooldown time.Duration

	// LeaseTimeout bounds each attempt's round trip (0 = 10m — a lease
	// executes a whole shard, so this is an execution budget, not a
	// network one). The job's own deadline still applies through ctx.
	LeaseTimeout time.Duration

	// Token authenticates leases to workers (the shared fleet secret).
	Token string

	// Client performs lease round trips (nil = http.DefaultClient). It is
	// also the fault-injection seam: the package's tests put a faulting
	// http.RoundTripper (chaos_test.go) under it.
	Client *http.Client

	// JitterSeed seeds the backoff jitter RNG (0 = unjittered backoff);
	// jitter spreads retry storms, it never affects results.
	JitterSeed int64

	// Now is the dispatcher's clock seam: lease latency and forensics
	// timings read it, never the wall clock directly (nil = time.Now).
	// Timings measured through it are observability only — they reach
	// /metrics and /v1/stats, never report rows.
	Now func() time.Time

	// Metrics instruments the dispatcher and is where Stats reads its
	// counters from (nil = a private registry's set).
	Metrics *Metrics

	// Trace journals lease lifecycle events (nil = no tracing).
	Trace *obs.Tracer
}

func (c DispatchConfig) withDefaults() DispatchConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.PoisonAfter <= 0 {
		c.PoisonAfter = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 10 * time.Minute
	}
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Now == nil {
		c.Now = time.Now //dvet:walltime-ok the one approved default for the dispatcher's clock seam
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return c
}

// DispatchStats is the dispatcher's lifetime activity as /v1/stats reports
// it: a snapshot of the Metrics instruments.
type DispatchStats struct {
	Leases   int64 `json:"leases"`   // leases completed with a result
	Retries  int64 `json:"retries"`  // failed attempts that were retried
	Poisoned int64 `json:"poisoned"` // shards quarantined
	Fallback int64 `json:"fallback"` // shards handed back for local execution
}

// Dispatcher sends shard leases to the registry's workers with capped
// exponential backoff, distinguishing two failure classes:
//
//   - transport failures (connection refused, timeout, injected chaos):
//     the worker may be dead — it is benched for Cooldown and the attempt
//     counts toward poisoning;
//   - protocol failures (a non-200 status): the worker is alive but
//     cannot run this lease — no cooldown, the attempt counts toward
//     poisoning.
//
// A 200 response is a result, full stop — including one whose Error field
// carries a deterministic shard failure, because a local run of the same
// shard would have produced exactly that error; retrying it elsewhere
// would produce it again.
//
// A shard that fails on PoisonAfter distinct workers, or MaxAttempts times
// in total, is poisoned: returned as an errored result the engine
// quarantines into the report row, leaving the rest of the campaign
// intact. When no worker is eligible at any attempt, the dispatcher
// returns campaign.ErrNoWorkers and the engine runs the shard on the
// coordinator's own pool — the drain-to-zero degradation path.
type Dispatcher struct {
	reg *Registry
	cfg DispatchConfig

	mu  sync.Mutex
	rng *rand.Rand // jitter only; nil = no jitter

	fmu       sync.Mutex
	forensics []PoisonRecord // most recent quarantines, oldest first
}

// poisonLedgerCap bounds the forensics ledger: enough history to debug
// a bad deploy, bounded so a poison storm cannot grow the coordinator.
const poisonLedgerCap = 32

// Attempt is one entry of a poisoned shard's attempt timeline.
type Attempt struct {
	Attempt   int     `json:"attempt"`
	Worker    string  `json:"worker"`
	Class     string  `json:"class"` // "transport" | "protocol"
	Error     string  `json:"error"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// PoisonRecord is one quarantined shard's forensics: which workers
// failed it and the full attempt timeline. It surfaces on /v1/stats and
// (compactly) in the errored report row's message.
type PoisonRecord struct {
	Campaign string    `json:"campaign,omitempty"`
	Phase    string    `json:"phase,omitempty"`
	Job      string    `json:"job"`
	Shard    int       `json:"shard"`
	Workers  []string  `json:"workers"` // distinct failed workers, sorted
	Attempts []Attempt `json:"attempts"`
}

// timeline renders the attempt history compactly for the report row's
// error message: "1:http://w1/transport 2:http://w2/protocol".
func (p PoisonRecord) timeline() string {
	var b strings.Builder
	for i, a := range p.Attempts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%s/%s", a.Attempt, a.Worker, a.Class)
	}
	return b.String()
}

// recordPoison appends one quarantine to the bounded forensics ledger.
func (d *Dispatcher) recordPoison(rec PoisonRecord) {
	d.fmu.Lock()
	d.forensics = append(d.forensics, rec)
	if len(d.forensics) > poisonLedgerCap {
		d.forensics = d.forensics[len(d.forensics)-poisonLedgerCap:]
	}
	d.fmu.Unlock()
}

// PoisonForensics snapshots the most recent poison quarantines, oldest
// first (/v1/stats' forensics feed).
func (d *Dispatcher) PoisonForensics() []PoisonRecord {
	d.fmu.Lock()
	defer d.fmu.Unlock()
	return append([]PoisonRecord(nil), d.forensics...)
}

// NewDispatcher returns a dispatcher scheduling onto reg.
func NewDispatcher(reg *Registry, cfg DispatchConfig) *Dispatcher {
	d := &Dispatcher{reg: reg, cfg: cfg.withDefaults()}
	if cfg.JitterSeed != 0 {
		d.rng = rand.New(rand.NewSource(cfg.JitterSeed))
	}
	return d
}

// Stats snapshots the dispatcher's counters off its instruments; a lease
// completed with a result is one lease-latency observation.
func (d *Dispatcher) Stats() DispatchStats {
	m := d.cfg.Metrics
	st := DispatchStats{
		Retries:  int64(m.Retries.Value()),
		Poisoned: int64(m.Poisoned.Value()),
		Fallback: int64(m.Fallback.Value()),
	}
	for _, s := range m.LeaseLatency.Snapshots() {
		st.Leases += int64(s.Snap.Count)
	}
	return st
}

// backoff computes the nth retry's jittered delay (attempt counts from 1).
func (d *Dispatcher) backoff(attempt int) time.Duration {
	delay := d.cfg.BaseBackoff << (attempt - 1)
	if delay > d.cfg.MaxBackoff || delay <= 0 {
		delay = d.cfg.MaxBackoff
	}
	if d.rng != nil {
		d.mu.Lock()
		delay = delay/2 + time.Duration(d.rng.Int63n(int64(delay)+1))
		d.mu.Unlock()
	}
	return delay
}

// Execute runs one lease to completion: a result (possibly a deterministic
// shard error), a poison verdict, or campaign.ErrNoWorkers.
func (d *Dispatcher) Execute(ctx context.Context, lease *farmd.ShardLease) *campaign.ShardResult {
	failed := map[string]bool{} // distinct workers this shard failed on
	var attempts []Attempt      // forensics timeline, kept even unmetered
	var lastErr error
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return &campaign.ShardResult{Err: err}
		}
		url := d.reg.Pick(nil)
		if url == "" {
			d.cfg.Metrics.Fallback.Inc()
			d.cfg.Trace.Event("fabric", "fallback", obs.KV{K: "job", V: lease.Job}, obs.KV{K: "shard", V: lease.Shard})
			return &campaign.ShardResult{Err: fmt.Errorf("%w (shard %s/%d)", campaign.ErrNoWorkers, lease.Job, lease.Shard)}
		}
		start := d.cfg.Now()
		res, err, transport := d.tryLease(ctx, url, lease)
		d.reg.Done(url)
		elapsed := d.cfg.Now().Sub(start)
		if err == nil {
			d.cfg.Metrics.lease(url, elapsed.Seconds())
			d.cfg.Trace.Event("fabric", "lease", obs.KV{K: "job", V: lease.Job}, obs.KV{K: "shard", V: lease.Shard},
				obs.KV{K: "worker", V: url}, obs.KV{K: "attempt", V: attempt}, obs.KV{K: "dur_us", V: elapsed.Microseconds()})
			return res
		}
		if ctx.Err() != nil {
			// The deadline, not the worker, killed the attempt; don't
			// charge anyone.
			return &campaign.ShardResult{Err: ctx.Err()}
		}
		lastErr = fmt.Errorf("worker %s: %w", url, err)
		failed[url] = true
		class := "protocol"
		if transport {
			class = "transport"
			d.reg.Fail(url, d.cfg.Cooldown)
		}
		d.cfg.Metrics.LeaseAttempts.With(url, class).Inc()
		attempts = append(attempts, Attempt{
			Attempt: attempt, Worker: url, Class: class,
			Error: err.Error(), ElapsedMS: float64(elapsed.Microseconds()) / 1e3,
		})
		if len(failed) >= d.cfg.PoisonAfter || attempt >= d.cfg.MaxAttempts {
			d.cfg.Metrics.Poisoned.Inc()
			workers := make([]string, 0, len(failed))
			for w := range failed {
				workers = append(workers, w)
			}
			sort.Strings(workers)
			rec := PoisonRecord{
				Campaign: lease.Campaign, Phase: lease.Phase,
				Job: lease.Job, Shard: lease.Shard,
				Workers: workers, Attempts: attempts,
			}
			d.recordPoison(rec)
			d.cfg.Trace.Event("fabric", "poison", obs.KV{K: "job", V: lease.Job}, obs.KV{K: "shard", V: lease.Shard},
				obs.KV{K: "workers", V: workers}, obs.KV{K: "attempts", V: attempt})
			// The timeline names the workers that failed the shard and
			// how, so the errored report row carries its own forensics.
			// Poison rows are already run-dependent (attempt counts,
			// worker URLs), so this stays inside the existing
			// determinism carve-out for errored distributed rows.
			return &campaign.ShardResult{Err: fmt.Errorf(
				"fabric: shard %s/%d poisoned after %d attempts on %d workers [%s]: %w",
				lease.Job, lease.Shard, attempt, len(failed), rec.timeline(), lastErr)}
		}
		delay := d.backoff(attempt)
		d.cfg.Metrics.retry(delay.Seconds())
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return &campaign.ShardResult{Err: ctx.Err()}
		}
	}
}

// tryLease makes one attempt against one worker. transport reports whether
// a returned error was a transport failure (worker possibly dead) as
// opposed to a protocol failure (worker alive, lease rejected).
func (d *Dispatcher) tryLease(ctx context.Context, url string, lease *farmd.ShardLease) (res *campaign.ShardResult, err error, transport bool) {
	actx, cancel := context.WithTimeout(ctx, d.cfg.LeaseTimeout)
	defer cancel()
	wire := farmd.Wire{Client: d.cfg.Client, Token: d.cfg.Token}
	var result farmd.WireShardResult
	err = wire.Call(actx, http.MethodPost, strings.TrimSuffix(url, "/")+"/v1/leases", lease, &result)
	var rejected *farmd.StatusError
	switch {
	case err == nil:
		return result.Result(), nil, false
	case errors.As(err, &rejected):
		return nil, fmt.Errorf("lease rejected: %w", err), false
	default:
		// No answer, or a 200 whose body died mid-flight: the worker may
		// have run the shard, the result never arrived intact.
		return nil, err, true
	}
}

// PhaseExecutor adapts the dispatcher to one campaign phase's
// campaign.ShardExecutor: it completes shard tasks into leases carrying
// the phase's matrix request and, for a both-mode fuzz phase, the verify
// rows whose traces seed the corpus. One dispatcher serves every phase of
// every campaign; the executor is the per-phase view.
type PhaseExecutor struct {
	Dispatcher *Dispatcher
	Campaign   string
	Phase      string
	Request    *farmd.MatrixRequest
	VerifyRows []campaign.JobReport
}

// ExecuteShard implements campaign.ShardExecutor.
func (p *PhaseExecutor) ExecuteShard(ctx context.Context, t campaign.ShardTask) *campaign.ShardResult {
	return p.Dispatcher.Execute(ctx, &farmd.ShardLease{
		Proto:      farmd.LeaseProto,
		Campaign:   p.Campaign,
		Phase:      p.Phase,
		Job:        t.Job.Name,
		Shard:      t.Shard,
		Seed:       t.Seed,
		N:          t.N,
		Key:        t.Key,
		Request:    p.Request,
		VerifyRows: p.VerifyRows,
	})
}
