// Package obs is the repo's dependency-free observability kit: an
// atomic-counter metrics registry with deterministic Prometheus-text
// exposition, an NDJSON span/event tracer, and a loopback pprof helper.
//
// The design is shaped by the campaign pipeline's invariants:
//
//   - Increment paths are zero-alloc (plain atomics on pre-registered
//     series), so instruments can sit at shard granularity inside the
//     engine without moving any //dvet:hotpath budget. The annotated
//     hot entry points (Counter.Inc/Add, Gauge.Set, Histogram.Observe)
//     are enforced by the allocgate suite like every other hot path.
//   - Exposition is deterministic: families and series render in sorted
//     order and no line carries a timestamp, so /metrics output is
//     byte-stable under test and the walltime analyzer holds for this
//     package too.
//   - Metrics never feed back into results: nothing in this package is
//     consulted by fingerprints, shard keys or report serialization, so
//     instrumenting a component cannot move a report byte.
//
// All methods are nil-receiver safe: an unmetered component holds nil
// instruments and pays a single branch per event.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DurationBuckets is the default histogram layout for operation
// latencies, spanning sub-millisecond cache probes to multi-minute
// shard executions (seconds).
var DurationBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}

// Counter is a monotonically increasing float64 backed by one atomic
// word. The zero value is ready to use; a nil *Counter drops updates.
type Counter struct {
	bits uint64
}

// Inc adds 1.
//
//dvet:hotpath allocs=0
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.Add(1)
}

// Add adds v; negative deltas are dropped (counters are monotone).
//
//dvet:hotpath allocs=0
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := atomic.LoadUint64(&c.bits)
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&c.bits, old, nb) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&c.bits))
}

// Gauge is a settable float64 backed by one atomic word. The zero value
// is ready to use; a nil *Gauge drops updates.
type Gauge struct {
	bits uint64
}

// Set stores v.
//
//dvet:hotpath allocs=0
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&g.bits, old, nb) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram is a fixed-bucket histogram backed by atomics. Bucket i
// counts observations v <= bounds[i] (Prometheus "le" semantics); one
// extra overflow bucket counts the rest. A nil *Histogram drops
// observations.
type Histogram struct {
	bounds  []float64
	counts  []uint64 // len(bounds)+1; last = overflow (+Inf)
	sumBits uint64
}

// newHistogram copies and sorts bounds so callers cannot alias the
// layout after registration.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one observation.
//
//dvet:hotpath allocs=0
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddUint64(&h.counts[i], 1)
	for {
		old := atomic.LoadUint64(&h.sumBits)
		nb := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&h.sumBits, old, nb) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // upper bucket bounds, ascending
	Counts []uint64  // per-bucket (non-cumulative); len(Bounds)+1 with overflow last
	Count  uint64    // total observations
	Sum    float64   // sum of observations
}

// Snapshot copies the histogram's current state. Concurrent observers
// may land between bucket and sum reads; the snapshot is internally
// consistent enough for monitoring, which is all it serves.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(atomic.LoadUint64(&h.sumBits)),
	}
	for i := range h.counts {
		s.Counts[i] = atomic.LoadUint64(&h.counts[i])
		s.Count += s.Counts[i]
	}
	return s
}

// Quantile estimates the qth quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding the target rank, the standard
// fixed-bucket estimate. Observations in the overflow bucket clamp to
// the largest finite bound. An empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		return lo + (s.Bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// family is one registered metric name: its metadata plus every labeled
// series created under it.
type family struct {
	name   string
	help   string
	kind   string // "counter" | "gauge" | "histogram"
	labels []string
	bounds []float64 // histograms only

	mu     sync.Mutex
	series map[string]*child
}

// child is one labeled series of a family.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// seriesKey joins label values into the series map key. \xff cannot
// appear in a well-formed label value, so the join is injective.
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// with returns the series for values, creating it on first use. The
// first use of a new label set allocates; increments after that do not —
// callers on hot paths intern the child once and hold the pointer.
func (f *family) with(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s has labels %v, got %d values", f.name, f.labels, len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	ch, ok := f.series[key]
	if !ok {
		ch = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case "counter":
			ch.c = &Counter{}
		case "gauge":
			ch.g = &Gauge{}
		case "histogram":
			ch.h = newHistogram(f.bounds)
		}
		f.series[key] = ch
	}
	return ch
}

// sortedSeries snapshots the family's series in sorted label order.
func (f *family) sortedSeries() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*child, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	return out
}

// Registry holds metric families and renders them as Prometheus text.
// All registration methods are idempotent: re-registering a name with
// the same shape returns the existing instrument (so two components can
// share a family, e.g. the cache tiers' hit counters), and a shape
// mismatch panics — a programmer error caught at wiring time.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	collects []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// OnCollect registers a hook run at the start of every WriteProm, for
// gauges computed from live state (heartbeat staleness, queue depths).
// Hooks run outside the registry lock and may touch any instrument.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collects = append(r.collects, fn)
	r.mu.Unlock()
}

// family returns the named family, creating it with the given shape or
// panicking on a shape mismatch.
func (r *Registry) family(name, help, kind string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name:   name,
			help:   help,
			kind:   kind,
			labels: append([]string(nil), labels...),
			bounds: append([]float64(nil), bounds...),
			series: map[string]*child{},
		}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with labels %v, was %v", name, labels, f.labels))
		}
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, "counter", nil, nil).with(nil).c
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, "gauge", nil, nil).with(nil).g
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given upper bucket bounds (nil = DurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.family(name, help, "histogram", nil, bounds).with(nil).h
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.family(name, help, "counter", labels, nil)}
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.family(name, help, "gauge", labels, nil)}
}

// HistogramVec registers (or fetches) a labeled histogram family with
// the given upper bucket bounds (nil = DurationBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return &HistogramVec{fam: r.family(name, help, "histogram", labels, bounds)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ fam *family }

// With returns the counter for the given label values, interning it on
// first use. Hold the returned pointer on hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.with(values).c
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ fam *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.with(values).g
}

// Reset drops every series in the family. Collect hooks that rebuild a
// gauge family from live state (worker staleness) reset first so
// departed label sets do not linger.
func (v *GaugeVec) Reset() {
	if v == nil {
		return
	}
	v.fam.mu.Lock()
	clear(v.fam.series)
	v.fam.mu.Unlock()
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ fam *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.with(values).h
}

// LabeledSnapshot pairs one series' label values with its histogram
// snapshot.
type LabeledSnapshot struct {
	Labels []string
	Snap   HistogramSnapshot
}

// Snapshots returns every series' snapshot in sorted label order —
// the summary feed for /v1/stats latency quantiles.
func (v *HistogramVec) Snapshots() []LabeledSnapshot {
	if v == nil {
		return nil
	}
	var out []LabeledSnapshot
	for _, ch := range v.fam.sortedSeries() {
		out = append(out, LabeledSnapshot{Labels: ch.values, Snap: ch.h.Snapshot()})
	}
	return out
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a sample value; integral values render without
// exponent noise so counters read naturally.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promWriter renders exposition lines.
type promWriter struct {
	b strings.Builder
}

// labelString renders {k="v",...} for the series, with extra appended
// last (the histogram "le" label).
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func (p *promWriter) sample(name, labels, value string) {
	p.b.WriteString(name)
	p.b.WriteString(labels)
	p.b.WriteByte(' ')
	p.b.WriteString(value)
	p.b.WriteByte('\n')
}

// WriteProm renders every family in the Prometheus text exposition
// format. Output is deterministic: families sort by name, series by
// label values, and samples carry no timestamp (scrapers stamp at
// ingestion) — two scrapes of unchanged instruments are byte-identical.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.collects...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}

	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	pw := &promWriter{}
	r.mu.Unlock()

	for _, f := range fams {
		series := f.sortedSeries()
		if len(series) == 0 {
			continue
		}
		fmt.Fprintf(&pw.b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&pw.b, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range series {
			switch f.kind {
			case "counter":
				pw.sample(f.name, labelString(f.labels, ch.values, "", ""), formatFloat(ch.c.Value()))
			case "gauge":
				pw.sample(f.name, labelString(f.labels, ch.values, "", ""), formatFloat(ch.g.Value()))
			case "histogram":
				s := ch.h.Snapshot()
				var cum uint64
				for i, b := range s.Bounds {
					cum += s.Counts[i]
					pw.sample(f.name+"_bucket", labelString(f.labels, ch.values, "le", formatFloat(b)), strconv.FormatUint(cum, 10))
				}
				pw.sample(f.name+"_bucket", labelString(f.labels, ch.values, "le", "+Inf"), strconv.FormatUint(s.Count, 10))
				pw.sample(f.name+"_sum", labelString(f.labels, ch.values, "", ""), formatFloat(s.Sum))
				pw.sample(f.name+"_count", labelString(f.labels, ch.values, "", ""), strconv.FormatUint(s.Count, 10))
			}
		}
	}
	_, err := io.WriteString(w, pw.b.String())
	return err
}

// Handler serves WriteProm as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w) //nolint:errcheck // terminal write
	})
}
