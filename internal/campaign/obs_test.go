package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"druzhba/internal/obs"
	"druzhba/internal/sat"
)

// TestInstrumentedReportByteIdentical pins the observability invariant:
// running the same campaign with metrics and tracing enabled yields a
// report byte-identical to an unmetered run, while the instruments record
// every shard and job.
func TestInstrumentedReportByteIdentical(t *testing.T) {
	jobs := passingJobs(t, 2000, 1)
	jobs = append(jobs, brokenJob(t, "broken", 2000))

	plain, err := Run(context.Background(), jobs, Options{Workers: 4, ShardSize: 512})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var traceBuf bytes.Buffer
	var tick int64
	clock := func() time.Time { return time.UnixMicro(1_754_640_000_000_000 + atomic.AddInt64(&tick, 250)) }
	tracer := obs.NewTracer(&traceBuf, clock)

	metered, err := Run(context.Background(), jobs, Options{
		Workers: 4, ShardSize: 512, Metrics: m, Trace: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	if got, want := deterministicJSON(t, metered), deterministicJSON(t, plain); got != want {
		t.Fatalf("instrumented JSON report differs from plain run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if metered.Text(false) != plain.Text(false) {
		t.Fatal("instrumented text report differs from plain run")
	}

	// The instruments saw the work: every shard executed (no cache
	// configured), every job finished, the queue drained.
	var wantShards uint64
	for _, j := range metered.Jobs {
		wantShards += uint64(j.Shards)
	}
	executed := uint64(m.Shards.With("executed").Value())
	errored := uint64(m.Shards.With("error").Value())
	if executed+errored != wantShards {
		t.Fatalf("shards_total executed=%d error=%d, want total %d", executed, errored, wantShards)
	}
	if got := int(m.Jobs.With(StatusPass).Value() + m.Jobs.With(StatusFail).Value()); got != len(metered.Jobs) {
		t.Fatalf("jobs_total = %d, want %d", got, len(metered.Jobs))
	}
	if depth := m.QueueDepth.Value(); depth != 0 {
		t.Fatalf("queue depth after campaign = %v, want 0", depth)
	}
	if snap := m.ShardSeconds.Snapshot(); snap.Count != uint64(executed+errored) {
		t.Fatalf("shard_seconds count = %d, want %d", snap.Count, executed+errored)
	}
	// No cache: every job's first shard built its target, and each of the
	// 4 workers cloned at most one runner per job.
	if builds, runners := int(m.TargetBuilds.Value()), int(m.RunnersBuilt.Value()); builds != len(jobs) || runners < len(jobs) || runners > 4*len(jobs) {
		t.Fatalf("target builds = %d, runners built = %d for %d jobs on 4 workers", builds, runners, len(jobs))
	}

	// The trace journal is valid NDJSON with the expected lifecycle
	// events: one campaign span, one event per job and per shard.
	var campaignSpans, jobEvents, shardEvents int
	sc := bufio.NewScanner(bytes.NewReader(traceBuf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if _, ok := ev["ts_us"].(float64); !ok {
			t.Fatalf("trace line %q has no ts_us", sc.Text())
		}
		switch ev["scope"] {
		case "campaign":
			campaignSpans++
		case "job":
			jobEvents++
		case "shard":
			shardEvents++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if campaignSpans != 1 {
		t.Fatalf("campaign spans = %d, want 1", campaignSpans)
	}
	if jobEvents != len(metered.Jobs) {
		t.Fatalf("job trace events = %d, want %d", jobEvents, len(metered.Jobs))
	}
	if int(wantShards) != shardEvents {
		t.Fatalf("shard trace events = %d, want %d", shardEvents, wantShards)
	}
}

// TestMetricsCacheCounters pins cache-probe accounting: a warm re-run
// replays every shard from cache and the hit/miss counters say so.
func TestMetricsCacheCounters(t *testing.T) {
	jobs := passingJobs(t, 1500, 3)
	cache := newMapCache()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	opts := Options{Workers: 2, ShardSize: 512, Cache: cache, Metrics: m}

	cold, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	misses := m.CacheMisses.Value()
	if misses == 0 {
		t.Fatal("cold run recorded no cache misses")
	}
	if hits := m.CacheHits.Value(); hits != 0 {
		t.Fatalf("cold run recorded %v cache hits", hits)
	}

	warm, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deterministicJSON(t, warm), deterministicJSON(t, cold); got != want {
		t.Fatal("warm instrumented run differs from cold run")
	}
	if hits := m.CacheHits.Value(); hits != misses {
		t.Fatalf("warm run hits = %v, want %v (every shard replayed)", hits, misses)
	}
	// Cached shards count under the "cached" outcome, not "executed".
	if cached := m.Shards.With("cached").Value(); cached != misses {
		t.Fatalf("shards_total{outcome=cached} = %v, want %v", cached, misses)
	}
}

// TestMetricsNilSafe: every helper an unmetered engine run hits must be
// nil-receiver safe, so disabling observability costs one branch.
func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.shardDone("executed", 0.5)
	m.jobDone(StatusPass, 1)
	CacheGet(newMapCache(), m, "absent")
	if m.CacheStats() != (CacheStats{}) {
		t.Fatal("nil metrics counted a probe")
	}
	m.queueDepth(3)
	m.cellsSolved([]VerifyCell{{}})
}

// TestVerifySearchCountersAreMetadataOnly: a verification cell's search
// counters reach the -timing text and the sat_* counters, and nothing that
// is serialized, so a metered verify report is byte-identical to a plain
// one and to what it was before the counters existed.
func TestVerifySearchCountersAreMetadataOnly(t *testing.T) {
	// One job that searches and one that is decided while it is built.
	jobs := func() []Job {
		return append(verifyJobsFor(t, []string{"rcp"}, []int{4, 5}, []int{2}, 0), commutedMulJob([]int{4, 5}, 0))
	}
	plain, err := Run(context.Background(), jobs(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	metered, err := Run(context.Background(), jobs(), Options{Workers: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := deterministicJSON(t, metered), deterministicJSON(t, plain); got != want {
		t.Fatalf("metered verify report differs from plain run:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	var full bytes.Buffer
	if err := metered.WriteJSON(&full, true); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(full.Bytes(), []byte("ropagations")) || bytes.Contains(full.Bytes(), []byte("gates")) {
		t.Fatalf("search counters leaked into the JSON report:\n%s", full.String())
	}

	var want sat.Stats
	for _, j := range metered.Jobs {
		for _, c := range j.Cells {
			if c.Search.Conflicts != c.Conflicts || c.Search.Propagations == 0 {
				t.Fatalf("%s %d bits: search counters %+v beside conflicts=%d", j.Name, c.Bits, c.Search, c.Conflicts)
			}
			want.Conflicts += c.Search.Conflicts
			want.Decisions += c.Search.Decisions
			want.Propagations += c.Search.Propagations
			want.Restarts += c.Search.Restarts
		}
	}
	got := sat.Stats{
		Conflicts:    int64(m.SatConflicts.Value()),
		Decisions:    int64(m.SatDecisions.Value()),
		Propagations: int64(m.SatPropagations.Value()),
		Restarts:     int64(m.SatRestarts.Value()),
	}
	if got != want {
		t.Fatalf("sat_* counters %+v, cells sum to %+v", got, want)
	}
	if want.Conflicts == 0 {
		t.Fatal("no cell searched: the fixture no longer exercises the counters")
	}
	// a*b ≡ b*a at 5 bits, as pinned in internal/verify's
	// TestCommutedMulNeedsSearch.
	if text := metered.Text(true); !strings.Contains(text, "conflicts=454) solve=") ||
		!strings.Contains(text, " gates=94/72 decisions=563 propagations=12952 restarts=4 learned=453 removed=224\n") {
		t.Fatalf("-timing text does not show the search counters:\n%s", text)
	}
	if text := metered.Text(false); strings.Contains(text, "propagations=") || strings.Contains(text, "gates=") {
		t.Fatal("search counters shown without -timing")
	}
}
