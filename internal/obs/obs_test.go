package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the "le" semantics: an observation
// exactly on a bound lands in that bound's bucket, one past it lands in
// the next, and everything beyond the last bound lands in overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1} { // both <= 1
		h.Observe(v)
	}
	h.Observe(1.0001) // first value past bound 1
	h.Observe(2)      // exactly on bound 2
	h.Observe(4)      // exactly on the last bound
	h.Observe(4.0001) // overflow
	h.Observe(100)    // overflow

	s := h.Snapshot()
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d observations, want %d (snapshot %+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 7 {
		t.Errorf("total count = %d, want 7", s.Count)
	}
	if wantSum := 0.5 + 1 + 1.0001 + 2 + 4 + 4.0001 + 100; s.Sum < wantSum-1e-9 || s.Sum > wantSum+1e-9 {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

// TestHistogramQuantile sanity-checks the interpolated estimate: with
// 100 uniform observations in (0,1], the median estimate must land in
// the bucket that actually holds rank 50.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.25, 0.5, 0.75, 1})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0.25 || q > 0.5 {
		t.Errorf("p50 = %v, want in (0.25, 0.5]", q)
	}
	if q := s.Quantile(0.99); q <= 0.75 || q > 1 {
		t.Errorf("p99 = %v, want in (0.75, 1]", q)
	}
	if q := s.Quantile(0); q < 0 || q > 0.25 {
		t.Errorf("p0 = %v, want in [0, 0.25]", q)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", q)
	}
	// Overflow-only observations clamp to the largest finite bound.
	h2 := newHistogram([]float64{1})
	h2.Observe(50)
	if q := h2.Snapshot().Quantile(0.5); q != 1 {
		t.Errorf("overflow quantile = %v, want clamp to 1", q)
	}
}

// TestConcurrentIncrements hammers every instrument kind from many
// goroutines; run under -race this is the data-race gate, and the
// final values pin that no increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	h := r.Histogram("h_seconds", "test histogram", []float64{0.5})
	vec := r.CounterVec("v_total", "test counter vec", "worker")

	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := vec.With(fmt.Sprintf("w%d", i%4))
			for j := 0; j < per; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 2)) // half in, half overflow
				w.Inc()
			}
		}(i)
	}
	wg.Wait()

	const total = goroutines * per
	if got := c.Value(); got != total {
		t.Errorf("counter = %v, want %d", got, total)
	}
	if got := g.Value(); got != total {
		t.Errorf("gauge = %v, want %d", got, total)
	}
	if s := h.Snapshot(); s.Count != total || s.Counts[0] != total/2 || s.Counts[1] != total/2 {
		t.Errorf("histogram snapshot = %+v, want %d observations split evenly", s, total)
	}
	var vecTotal float64
	for i := 0; i < 4; i++ {
		vecTotal += vec.With(fmt.Sprintf("w%d", i)).Value()
	}
	if vecTotal != total {
		t.Errorf("counter vec total = %v, want %d", vecTotal, total)
	}
}

// TestWritePromDeterministic pins the tentpole's exposition invariant:
// two scrapes are byte-identical regardless of registration or
// label-creation order, and all series render sorted.
func TestWritePromDeterministic(t *testing.T) {
	r := NewRegistry()

	// Register deliberately out of alphabetical order, create labeled
	// series out of sorted order.
	vec := r.CounterVec("zeta_total", "last name first", "worker", "outcome")
	vec.With("w2", "miss").Add(3)
	vec.With("w1", "hit").Inc()
	r.Gauge("alpha_depth", "first name last").Set(7)
	h := r.Histogram("mid_seconds", "histogram in the middle", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var a, b bytes.Buffer
	if err := r.WriteProm(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two scrapes differ:\n--- first ---\n%s--- second ---\n%s", a.String(), b.String())
	}

	out := a.String()
	for _, want := range []string{
		"# TYPE alpha_depth gauge\n",
		"alpha_depth 7\n",
		`mid_seconds_bucket{le="0.1"} 1` + "\n",
		`mid_seconds_bucket{le="1"} 2` + "\n",
		`mid_seconds_bucket{le="+Inf"} 3` + "\n",
		"mid_seconds_sum 5.55\n",
		"mid_seconds_count 3\n",
		`zeta_total{worker="w1",outcome="hit"} 1` + "\n",
		`zeta_total{worker="w2",outcome="miss"} 3` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if ia, iz := strings.Index(out, "alpha_depth"), strings.Index(out, "zeta_total"); ia > iz {
		t.Errorf("families not sorted by name:\n%s", out)
	}
	if i1, i2 := strings.Index(out, `worker="w1"`), strings.Index(out, `worker="w2"`); i1 > i2 {
		t.Errorf("series not sorted by label values:\n%s", out)
	}
}

// TestRegistryIdempotentAndMismatch pins family sharing: the same shape
// returns the same instrument, a different shape panics.
func TestRegistryIdempotentAndMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "shared")
	b := r.Counter("shared_total", "shared")
	if a != b {
		t.Error("re-registering the same counter returned a different instrument")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("shared counter instruments do not share state")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("shared_total", "wrong kind")
}

// TestLabelEscaping pins the text-format escapes for label values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", "escaping", "v").With("a\\b\"c\nd").Inc()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{v="a\\b\"c\nd"} 1` + "\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, buf.String())
	}
}

// TestNilSafety drives every instrument and registry method through nil
// receivers: unmetered components hold nils and must never panic.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	var tr *Tracer
	c.Inc()
	c.Add(2)
	_ = c.Value()
	g.Set(1)
	g.Add(1)
	_ = g.Value()
	h.Observe(1)
	_ = h.Snapshot()
	r.OnCollect(func() {})
	if r.Counter("x", "x") != nil || r.Gauge("x", "x") != nil || r.Histogram("x", "x", nil) != nil {
		t.Error("nil registry returned a live instrument")
	}
	var cv *CounterVec
	var gv *GaugeVec
	var hv *HistogramVec
	if cv.With("a") != nil || gv.With("a") != nil || hv.With("a") != nil {
		t.Error("nil vec returned a live instrument")
	}
	gv.Reset()
	_ = hv.Snapshots()
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Errorf("nil registry WriteProm: %v", err)
	}
	tr.Event("scope", "event")
	tr.Begin("scope", "span").End()
	if NewTracer(nil, nil) != nil {
		t.Error("NewTracer(nil) must return nil (tracing off)")
	}
}

// TestOnCollectHook verifies collect hooks run per scrape and can
// rebuild a gauge family.
func TestOnCollectHook(t *testing.T) {
	r := NewRegistry()
	gv := r.GaugeVec("stale_seconds", "rebuilt per scrape", "worker")
	n := 0
	r.OnCollect(func() {
		n++
		gv.Reset()
		gv.With("w1").Set(float64(n))
	})
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("collect hook ran %d times over 2 scrapes", n)
	}
	if !strings.Contains(buf.String(), `stale_seconds{worker="w1"} 2`) {
		t.Errorf("second scrape missing rebuilt gauge:\n%s", buf.String())
	}
}

// TestHandler scrapes the registry over HTTP.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "handler test").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(buf.String(), "up_total 1\n") {
		t.Errorf("scrape missing counter:\n%s", buf.String())
	}
}

// TestTracerNDJSON pins the journal format: one valid JSON object per
// line, timestamps from the injected clock, attributes in call order,
// span durations from the same clock.
func TestTracerNDJSON(t *testing.T) {
	var buf bytes.Buffer
	clock := time.UnixMicro(1_000_000)
	now := func() time.Time {
		clock = clock.Add(250 * time.Microsecond)
		return clock
	}
	tr := NewTracer(&buf, now)
	tr.Event("campaign", "begin", KV{"jobs", 3}, KV{"name", "x"})
	sp := tr.Begin("campaign", "run") // one clock tick
	sp.End(KV{"checked", int64(600)}) // a second tick: dur_us = 250

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("trace line is not valid JSON: %v: %s", err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d trace lines, want 2", len(lines))
	}
	if lines[0]["scope"] != "campaign" || lines[0]["event"] != "begin" || lines[0]["jobs"] != float64(3) {
		t.Errorf("event line = %v", lines[0])
	}
	if lines[0]["ts_us"] != float64(1_000_250) {
		t.Errorf("event ts_us = %v, want injected clock value 1000250", lines[0]["ts_us"])
	}
	if lines[1]["event"] != "run" || lines[1]["dur_us"] != float64(250) || lines[1]["checked"] != float64(600) {
		t.Errorf("span line = %v", lines[1])
	}

	// Attributes are a slice, not a map: they render in call order.
	var ordered bytes.Buffer
	tr2 := NewTracer(&ordered, func() time.Time { return time.UnixMicro(42) })
	tr2.Event("s", "e", KV{"jobs", 1}, KV{"name", "x"})
	line := ordered.String()
	if ji, ni := strings.Index(line, `"jobs"`), strings.Index(line, `"name"`); ji < 0 || ni < 0 || ji > ni {
		t.Errorf("attributes not in call order: %s", line)
	}
}

// TestServePprof mounts the profiler on a loopback port and fetches an
// index page, proving the separate-listener wiring works end to end.
func TestServePprof(t *testing.T) {
	addr, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}
