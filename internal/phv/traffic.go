package phv

import (
	"fmt"
	"math"
	"math/bits"
)

// TrafficMode selects the distribution a traffic generator draws values
// from. It is defined once here and aliased by both machine models (package
// sim for RMT containers, package drmt for packet fields), so one parsed
// -traffic list serves both architectures.
type TrafficMode string

const (
	// TrafficUniform draws every value uniformly from [0, limit) — the
	// paper's §3.3 / §4.2 regime and the zero value of the type.
	TrafficUniform TrafficMode = "uniform"

	// TrafficBoundary draws every value from the boundary set of the draw
	// range (BoundaryValues). ALU carry, wrap-around and comparison edges
	// live at exactly these values, so boundary traffic is the adversarial
	// counterpart of the uniform regime.
	TrafficBoundary TrafficMode = "boundary"
)

// Check is the one traffic-mode validation: nil for a known mode — the empty
// string counts as TrafficUniform — and otherwise the error every layer
// reports, under its own prefix.
func (m TrafficMode) Check() error {
	if m == "" || m == TrafficUniform || m == TrafficBoundary {
		return nil
	}
	return fmt.Errorf("unknown traffic mode %q (want %s or %s)", m, TrafficUniform, TrafficBoundary)
}

// BoundaryValues is the deduplicated boundary set of the draw range
// [0, limit): zero, one and limit-1 (the all-ones pattern when the limit is
// a full power-of-two width).
func BoundaryValues(limit int64) []Value {
	set := []Value{0}
	for _, v := range []int64{1, limit - 1} {
		if v > 0 && v < limit && v != set[len(set)-1] {
			set = append(set, v)
		}
	}
	return set
}

// Traffic is a traffic plan: everything a stream depends on besides its
// seed, decided once — each column's draw, the Int63n moduli, the boundary
// sets and the seed corpus. A packet is a row of columns — PHV containers on
// RMT, "random unsigned integers" (§3.3), header fields on dRMT, "randomly
// initialized packet field values" (§4.2) — and every column has its own draw
// range. A plan is immutable, so one plan serves any number of generators on
// any goroutines.
type Traffic struct {
	draws  []draw    // per-column rejection threshold and mask
	mods   []modulus // per-column Int63n modulus, zero for a power-of-two limit; nil if every limit is one
	bounds [][]Value // per-column boundary sets; non-nil in boundary mode
	corpus [][]Value // seed packets served before random draws
}

// modulus is a limit n that is not a power of two, with m = ⌊(2⁶⁴−1)/n⌋:
// for every x below 2⁶³ the high word of x·m is ⌊x/n⌋ or one less, so x mod
// n is a wide multiply, a multiply and a subtraction, and at most one
// correction — no division.
type modulus struct{ n, m uint64 }

// NewTraffic returns the plan of packets with one column per entry of bits,
// column i drawing from [0, 2^bits[i]). A positive max lowers every column's
// bound to max where that is smaller; it never raises one, so a drawn value
// always fits its column. Columns of 63 bits and more draw from the full
// non-negative int64 range; a column narrower than 1 bit is an error.
//
// A generator started on a plan serves the corpus entries first, in order,
// before any random draw — the feedback path that turns verification
// counterexample traces into deterministic fuzzer regression traffic. The
// entries are not copied; callers must not mutate them afterwards. A
// corpus-served packet consumes no random numbers, so generators with the
// same seed and the same corpus produce identical streams.
func NewTraffic(bits []int, max int64, mode TrafficMode, corpus [][]Value) (*Traffic, error) {
	if err := mode.Check(); err != nil {
		return nil, fmt.Errorf("phv: %w", err)
	}
	t := &Traffic{draws: make([]draw, len(bits)), corpus: corpus}
	if mode == TrafficBoundary {
		t.bounds = make([][]Value, len(bits))
	}
	for i, b := range bits {
		if b < 1 {
			return nil, fmt.Errorf("phv: traffic column %d has bit width %d, want at least 1", i, b)
		}
		limit := int64(math.MaxInt64)
		if b < 63 {
			limit = int64(1) << uint(b)
		}
		if max > 0 && max < limit {
			limit = max
		}
		if t.bounds != nil {
			t.bounds[i] = BoundaryValues(limit)
			t.draws[i] = int31nDraw(int32(len(t.bounds[i])))
			continue
		}
		var n int64
		if t.draws[i], n = int63nPlan(limit); n != 0 {
			if t.mods == nil {
				t.mods = make([]modulus, len(bits))
			}
			t.mods[i] = modulus{n: uint64(n), m: math.MaxUint64 / uint64(n)}
		}
	}
	return t, nil
}

// TrafficGen is the traffic generator of both machine models: a plan and the
// state of one stream through it. A packet costs exactly one random number
// per column in either mode, so a stream is a function of (seed, plan) alone
// and identical through Fill, Next and Trace. The stream is math/rand's:
// column i of a packet is the value rand.New(rand.NewSource(seed)).Int63n(limit)
// (uniform) or .Intn(len(set)) (boundary) returns at that point of the
// stream, rejection redraws included. That holds by construction — the
// generator is math/rand's own algorithm run in this package (rng.go) with
// each column's Int63n/Intn decided once, in the plan — and by test against
// math/rand itself. A zero TrafficGen draws nothing until Start; a generator
// is deterministic for a given seed and not safe for concurrent use.
type TrafficGen struct {
	src  source
	plan *Traffic
	next int // index of the next packet since the start
}

// NewTrafficGen returns a generator started under seed on a plan of its own,
// NewTraffic(bits, max, mode, nil).
func NewTrafficGen(seed int64, bits []int, max int64, mode TrafficMode) (*TrafficGen, error) {
	t, err := NewTraffic(bits, max, mode, nil)
	if err != nil {
		return nil, err
	}
	g := new(TrafficGen)
	g.Start(t, seed)
	return g, nil
}

// Start (re)starts g on the plan's stream under seed, wherever g was: the
// random source is seeded in place — math/rand's Seed, without its
// divisions — packet indices restart at 0 and the plan's corpus is served
// from its first entry. A generator declared where it is used and started
// there costs no allocation, so a caller that runs many streams keeps one
// plan and starts a generator per stream.
//
//dvet:hotpath allocs=0
func (g *TrafficGen) Start(t *Traffic, seed int64) {
	g.src.seed(seed)
	g.plan, g.next = t, 0
}

// Drawn returns how many packets Fill has written since Start: the index the
// next one gets.
func (g *TrafficGen) Drawn() int { return g.next }

// Columns returns the number of values Fill writes per packet.
func (g *TrafficGen) Columns() int { return len(g.plan.draws) }

// Fill writes the next packet's values, one per column, into the front of
// the caller-owned dst buffer and returns the packet's index in the stream (0
// for the first packet after Start). While corpus entries remain it copies
// the next entry (zero-padding or truncating on length mismatch); afterwards
// it draws exactly one value per column, so streaming and
// trace-materializing consumers of the same seed see the same traffic. Fill
// performs no allocation.
//
//dvet:hotpath allocs=0
func (g *TrafficGen) Fill(dst []Value) int {
	t := g.plan
	draws := t.draws
	dst = dst[:len(draws)]
	index := g.next
	g.next++
	if index < len(t.corpus) {
		n := copy(dst, t.corpus[index])
		for i := n; i < len(dst); i++ {
			dst[i] = 0
		}
		return index
	}
	// A value above its column's rejection threshold is skipped (the column
	// takes the next), a kept one masked. Refilling the round is the outer
	// loop's, so the inner one makes no call and spills nothing per value;
	// unless a value is rejected, the packet takes the next len(draws)-i.
	src := &g.src
	vec, pos := &src.vec, src.pos
	for i := 0; i < len(draws); {
		if pos >= rngLen {
			src.refill()
			pos = 0
		}
		for stop := min(pos+uint(len(draws)-i), rngLen); pos < stop; pos++ {
			v, d := vec[pos]&rngMask, draws[i]
			if v > d.max {
				continue
			}
			dst[i] = v & d.mask
			i++
		}
	}
	src.pos = pos
	for i, m := range t.mods { // Int63n for a limit that is not a power of two
		if m.n != 0 {
			x := uint64(dst[i])
			q, _ := bits.Mul64(x, m.m)
			if x -= q * m.n; x >= m.n {
				x -= m.n
			}
			dst[i] = int64(x)
		}
	}
	for i, set := range t.bounds { // Intn: Int31 (Int63>>32) reduced modulo the set's size
		dst[i] = set[uint32(dst[i]>>32)%uint32(len(set))]
	}
	return index
}

// Next generates one PHV.
func (g *TrafficGen) Next() *PHV {
	p := New(g.Columns())
	g.Fill(p.containers)
	return p
}

// Trace generates a trace of n PHVs.
func (g *TrafficGen) Trace(n int) *Trace {
	t := NewTrace()
	for i := 0; i < n; i++ {
		t.Append(g.Next())
	}
	return t
}
