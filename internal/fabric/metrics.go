package fabric

import "druzhba/internal/obs"

// Metrics is the fabric's instrumentation set: per-worker lease latency
// histograms, attempt outcomes, retry/backoff pressure, poison
// quarantines and fleet liveness. Like campaign.Metrics it is
// observability only — nothing here feeds report content — and it is the
// only copy of the dispatcher's counters: /v1/stats reads them back.
type Metrics struct {
	// LeaseLatency observes each successful lease's round trip per
	// worker; its snapshots feed /v1/stats' quantile summaries.
	LeaseLatency *obs.HistogramVec

	// LeaseAttempts counts every attempt by worker and outcome:
	// ok | transport | protocol.
	LeaseAttempts *obs.CounterVec

	// Retries counts failed attempts that were retried; BackoffWaits and
	// BackoffSeconds accumulate the dispatcher's backoff sleeps.
	Retries        *obs.Counter
	BackoffWaits   *obs.Counter
	BackoffSeconds *obs.Counter

	// Poisoned counts quarantined shards; Fallback counts shards handed
	// back for local execution because no worker was eligible.
	Poisoned *obs.Counter
	Fallback *obs.Counter

	// WorkersAlive and HeartbeatStaleness are rebuilt from the registry
	// on every scrape by the CollectFleet hook.
	WorkersAlive       *obs.Gauge
	HeartbeatStaleness *obs.GaugeVec
}

// NewMetrics registers the fabric's metric families on r (idempotent).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		LeaseLatency:       r.HistogramVec("druzhba_fabric_lease_latency_seconds", "successful shard-lease round trips by worker", nil, "worker"),
		LeaseAttempts:      r.CounterVec("druzhba_fabric_lease_attempts_total", "lease attempts by worker and outcome", "worker", "outcome"),
		Retries:            r.Counter("druzhba_fabric_retries_total", "failed lease attempts that were retried"),
		BackoffWaits:       r.Counter("druzhba_fabric_backoff_waits_total", "backoff sleeps taken between retries"),
		BackoffSeconds:     r.Counter("druzhba_fabric_backoff_seconds_total", "cumulative backoff sleep time in seconds"),
		Poisoned:           r.Counter("druzhba_fabric_poisoned_total", "shards quarantined after failing on distinct workers"),
		Fallback:           r.Counter("druzhba_fabric_fallback_total", "shards handed back for local execution"),
		WorkersAlive:       r.Gauge("druzhba_fabric_workers_alive", "workers within their heartbeat TTL"),
		HeartbeatStaleness: r.GaugeVec("druzhba_fabric_worker_heartbeat_staleness_seconds", "seconds since each registered worker's last heartbeat", "worker"),
	}
}

// CollectFleet returns an obs collect hook that rebuilds the fleet
// gauges (alive count, per-worker heartbeat staleness) from reg at
// scrape time, so departed workers' series disappear instead of
// lingering at their last value.
func (m *Metrics) CollectFleet(reg *Registry) func() {
	return func() {
		if m == nil || reg == nil {
			return
		}
		m.WorkersAlive.Set(float64(reg.AliveCount()))
		m.HeartbeatStaleness.Reset()
		for _, w := range reg.Snapshot() {
			m.HeartbeatStaleness.With(w.URL).Set(float64(w.AgeMS) / 1000)
		}
	}
}

// lease records one successful lease attempt.
func (m *Metrics) lease(worker string, durSec float64) {
	m.LeaseLatency.With(worker).Observe(durSec)
	m.LeaseAttempts.With(worker, "ok").Inc()
}

// retry records one retried attempt and its backoff sleep.
func (m *Metrics) retry(backoffSec float64) {
	m.Retries.Inc()
	m.BackoffWaits.Inc()
	m.BackoffSeconds.Add(backoffSec)
}
