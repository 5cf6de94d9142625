package phv

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The tests below pin phv's generator to math/rand itself, the reference:
// the raw source over thousands of draws per seed (far past the lag-607
// feedback that streams.golden's 64 draws never reach), and every column
// plan Fill can hold against the Int63n/Intn call it replaces.

// sourceSeeds covers math/rand's seed folding: zero, ±1, ±(2³¹−1) and its
// multiples (which fold to zero, then to 89482311), values at and past 2³¹,
// negative 64-bit values, the fallback seed itself, and 200 derived seeds.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -3 * int32max, int32max * int32max,
		int32max - 1, int32max + 1, 1 << 31, 1<<31 + 12345, 1 << 40, math.MaxInt64,
		-1 << 31, -1 << 40, math.MinInt64, math.MinInt64 + 1, 89482311, -89482311, 42,
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 200; i++ {
		x += 0x9e3779b97f4a7c15 // splitmix64, as campaign shard seeds are derived
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		seeds = append(seeds, int64(z^z>>31))
	}
	return seeds
}

// int63 is rngSource.Int63: the next value, refilling the round when it is
// used up.
func (s *source) int63() int64 {
	if s.pos >= rngLen {
		s.refill()
		s.pos = 0
	}
	v := s.vec[s.pos] & rngMask
	s.pos++
	return v
}

func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 5000
	var reused source
	reused.seed(7)
	for _, seed := range sourceSeeds() {
		ref := rand.New(rand.NewSource(seed))
		var fresh source
		fresh.seed(seed)
		reused.seed(seed)
		for i := 0; i < draws; i++ {
			want := ref.Int63()
			if got := fresh.int63(); got != want {
				t.Fatalf("seed %d draw %d: got %d, math/rand %d", seed, i, got, want)
			}
			if got := reused.int63(); got != want {
				t.Fatalf("seed %d draw %d after reseed: got %d, math/rand %d", seed, i, got, want)
			}
		}
	}
}

// countingSource counts the values math/rand draws from it, so a test can
// tell that rejection redraws happened.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Int63() int64 { c.n++; return c.Source.Int63() }

// TestFillMatchesMathRand checks every kind of column plan against the call
// it stands for: Int63n at power-of-two limits (mask), at 3, 200, 500 and
// 1000 (rmt-fast's bounds: threshold and the division-free reduction), at
// MaxInt64 (63-bit columns, and a max of 2⁶³−1 on narrower ones too) and at
// 2⁶²+1, where almost half the raw values are rejected and drawn again; and
// Intn through boundary sets of one, two and three values (Int31n's mask and
// threshold paths).
func TestFillMatchesMathRand(t *testing.T) {
	cases := []struct {
		name string
		bits []int
		max  int64
		mode TrafficMode
	}{
		{"pow2", []int{1, 2, 7, 16, 31, 32, 48, 62}, 0, TrafficUniform},
		{"max=200", []int{32, 32, 32}, 200, TrafficUniform},
		{"max=500", []int{32}, 500, TrafficUniform},
		{"max=1000", []int{32, 8, 16}, 1000, TrafficUniform},
		{"max=3", []int{2, 32, 64}, 3, TrafficUniform},
		{"63-bit", []int{63, 64, 62}, 0, TrafficUniform},
		{"2^62+1", []int{63, 64}, 1<<62 + 1, TrafficUniform},
		{"2^63-1", []int{63, 64, 40}, math.MaxInt64, TrafficUniform},
		{"boundary/1", []int{1, 4, 32}, 1, TrafficBoundary},
		{"boundary/2", []int{1, 1}, 0, TrafficBoundary},
		{"boundary/3", []int{32, 2, 48, 63}, 0, TrafficBoundary},
		{"boundary/mixed", []int{1, 2, 32}, 3, TrafficBoundary},
	}
	for _, c := range cases {
		for _, seed := range []int64{1, 42, -5, 1 << 33} {
			g, err := NewTrafficGen(seed, c.bits, c.max, c.mode)
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{Source: rand.NewSource(seed)}
			ref := rand.New(src)
			got := make([]Value, len(c.bits))
			packets := 20000 / len(c.bits)
			for p := 0; p < packets; p++ {
				g.Fill(got)
				for i, v := range got {
					var want Value
					if c.mode == TrafficBoundary {
						set := g.plan.bounds[i]
						want = set[ref.Intn(len(set))]
					} else {
						want = ref.Int63n(referenceLimit(c.bits[i], c.max))
					}
					if v != want {
						t.Fatalf("%s seed %d packet %d column %d: got %d, math/rand %d", c.name, seed, p, i, v, want)
					}
				}
			}
			if c.name == "2^62+1" && src.n < packets*len(c.bits)*5/4 {
				t.Fatalf("%s: %d raw draws for %d values, want rejections", c.name, src.n, packets*len(c.bits))
			}
		}
	}
}

// referenceLimit is a column's draw bound, computed the way the generator
// documents it rather than the way it computes it.
func referenceLimit(bits int, max int64) int64 {
	limit := int64(math.MaxInt64)
	if bits < 63 {
		limit = 1 << bits
	}
	if max > 0 && max < limit {
		return max
	}
	return limit
}

// FuzzTrafficVsMathRand drives Fill with fuzzed seed, column widths, max,
// mode and packet count, against math/rand's Int63n and Intn called in
// column order, and a generator started on a plan of the same shape must
// replay the stream.
func FuzzTrafficVsMathRand(f *testing.F) {
	f.Add(int64(1), []byte{31, 31, 31}, int64(0), false, uint16(300))
	f.Add(int64(42), []byte{47, 15, 7, 0}, int64(100), false, uint16(200))
	f.Add(int64(-7), []byte{63, 62, 61}, int64(1<<62+1), false, uint16(400))
	f.Add(int64(1<<40), []byte{0, 1, 31, 47, 62}, int64(0), true, uint16(300))
	f.Add(int64(0), []byte{31}, int64(3), true, uint16(100))
	// The division-free Int63n at rmt-fast's bounds and at the extremes: the
	// smallest modulus, the one that rejects almost half the raw values, and
	// the largest.
	f.Add(int64(5), []byte{31, 31, 31, 31, 31}, int64(200), false, uint16(700))
	f.Add(int64(6), []byte{31, 31, 31}, int64(500), false, uint16(700))
	f.Add(int64(7), []byte{31, 15, 63}, int64(1000), false, uint16(700))
	f.Add(int64(8), []byte{1, 31, 63}, int64(3), false, uint16(700))
	f.Add(int64(9), []byte{63, 63}, int64(1<<62+1), false, uint16(700))
	f.Add(int64(10), []byte{62, 63, 39}, int64(1<<63-1), false, uint16(700))
	f.Fuzz(func(t *testing.T, seed int64, widths []byte, max int64, boundary bool, n uint16) {
		if len(widths) == 0 || len(widths) > 64 {
			return
		}
		bits := make([]int, len(widths))
		for i, w := range widths {
			bits[i] = int(w)%64 + 1
		}
		mode := TrafficUniform
		if boundary {
			mode = TrafficBoundary
		}
		g, err := NewTrafficGen(seed, bits, max, mode)
		if err != nil {
			t.Fatal(err)
		}
		packets := int(n)%1024 + 1
		ref := rand.New(rand.NewSource(seed))
		got := make([]Value, len(bits))
		var stream []Value
		for p := 0; p < packets; p++ {
			g.Fill(got)
			for i, v := range got {
				limit := referenceLimit(bits[i], max)
				var want Value
				if boundary {
					set := BoundaryValues(limit)
					want = set[ref.Intn(len(set))]
				} else {
					want = ref.Int63n(limit)
				}
				if v != want {
					t.Fatalf("packet %d column %d (limit %d): got %d, math/rand %d", p, i, limit, v, want)
				}
			}
			stream = append(stream, got...)
		}
		plan, err := NewTraffic(bits, max, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		var started TrafficGen
		started.Start(plan, seed)
		var replay []Value
		for p := 0; p < packets; p++ {
			if id := started.Fill(got); id != p || started.Drawn() != p+1 {
				t.Fatalf("packet %d of the plan-started generator has index %d, %d drawn", p, id, started.Drawn())
			}
			replay = append(replay, got...)
		}
		if !slices.Equal(replay, stream) {
			t.Fatal("a generator started on the plan does not replay the stream")
		}
	})
}

// TestStartedGenIsNewTrafficGen: a generator declared on the stack and
// started on a plan draws the stream NewTrafficGen's draws — in both modes,
// at every column width from 1 to 64, bounded and not, and after the plan's
// corpus when it has one — and restarting it, wherever it was left, replays
// the stream from its first packet.
func TestStartedGenIsNewTrafficGen(t *testing.T) {
	corpus := [][]Value{{5, 6}, {}, {1, 2, 3, 4, 5, 6, 7, 8, 9}}
	for _, mode := range []TrafficMode{TrafficUniform, TrafficBoundary} {
		for _, max := range []int64{0, 1000} {
			for width := 1; width <= 64; width++ {
				bits := []int{width, 64 - width + 1, width}
				for _, entries := range [][][]Value{nil, corpus} {
					plan, err := NewTraffic(bits, max, mode, entries)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := NewTrafficGen(int64(width), bits, max, mode)
					if err != nil {
						t.Fatal(err)
					}
					var g TrafficGen
					g.Start(plan, 99)
					for range 700 { // leave it past a round under another seed
						g.Fill(make([]Value, 3))
					}
					g.Start(plan, int64(width))
					if g.Columns() != len(bits) {
						t.Fatalf("Columns() = %d, want %d", g.Columns(), len(bits))
					}
					got, want := make([]Value, 3), make([]Value, 3)
					for p := 0; p < 650; p++ {
						id := g.Fill(got)
						if p < len(entries) {
							clear(want)
							copy(want, entries[p])
						} else {
							ref.Fill(want)
						}
						if id != p || !slices.Equal(got, want) {
							t.Fatalf("%s max=%d width %d corpus=%v packet %d: id %d %v, want %v", mode, max, width, entries != nil, p, id, got, want)
						}
					}
				}
			}
		}
	}
}

// TestOnePlanManyGoroutines: a plan is read-only, so generators on eight
// goroutines started on one plan each draw the stream a generator of their
// own seed draws alone (run under -race, this is also the data-race check).
func TestOnePlanManyGoroutines(t *testing.T) {
	bits := []int{32, 32, 32, 9}
	plan, err := NewTraffic(bits, 1000, TrafficUniform, [][]Value{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	const workers, packets = 8, 2000
	streams := make([][]Value, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var g TrafficGen
			g.Start(plan, int64(w))
			row := make([]Value, len(bits))
			for range packets {
				g.Fill(row)
				streams[w] = append(streams[w], row...)
			}
		}()
	}
	wg.Wait()
	for w, got := range streams {
		var g TrafficGen
		g.Start(plan, int64(w))
		row := make([]Value, len(bits))
		for p := range packets {
			g.Fill(row)
			if !slices.Equal(got[p*len(bits):(p+1)*len(bits)], row) {
				t.Fatalf("goroutine %d packet %d: %v, alone %v", w, p, got[p*len(bits):(p+1)*len(bits)], row)
			}
		}
	}
}

// TestNextAndTraceAreFill: Next and Trace materialise the stream Fill
// streams.
func TestNextAndTraceAreFill(t *testing.T) {
	bits := []int{32, 9, 1}
	a, err := NewTrafficGen(3, bits, 0, TrafficUniform)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTrafficGen(3, bits, 0, TrafficUniform)
	if err != nil {
		t.Fatal(err)
	}
	want := NewTrace()
	row := make([]Value, len(bits))
	for i := 0; i < 700; i++ { // past one round of the source
		a.Fill(row)
		want.Append(FromValues(row))
	}
	got := b.Trace(699)
	got.Append(b.Next())
	if d := got.Diff(want); d != "" {
		t.Fatal(d)
	}
	if a.Columns() != len(bits) || got.At(0).Len() != a.Columns() {
		t.Errorf("Columns() = %d for %d columns, packets of %d", a.Columns(), len(bits), got.At(0).Len())
	}
}

// TestTrafficGenRefusesNarrowColumns: a column width below 1 has no draw
// range (1 << uint(-1) is 0, which Int63n panicked on at the first Fill) and
// is refused when the generator is built, as NewWidth refuses it.
func TestTrafficGenRefusesNarrowColumns(t *testing.T) {
	for _, bits := range [][]int{{-1}, {0}, {32, -5, 8}, {math.MinInt}} {
		for _, mode := range []TrafficMode{TrafficUniform, TrafficBoundary} {
			if g, err := NewTrafficGen(1, bits, 0, mode); err == nil {
				t.Errorf("NewTrafficGen(bits=%v, %s) = %v, want an error", bits, mode, g)
			}
		}
	}
	if _, err := NewTrafficGen(1, []int{1, 62, 63, 64, 1000}, 0, TrafficUniform); err != nil {
		t.Errorf("widths from 1 up: %v", err)
	}
}

// BenchmarkFill times one packet: three and five columns, at power-of-two
// bounds (a mask) and at 1000 (a threshold and the Int63n reduction).
func BenchmarkFill(b *testing.B) {
	for _, cols := range []int{3, 5} {
		for _, max := range []int64{0, 1000} {
			name := fmt.Sprintf("cols=%d/pow2", cols)
			if max != 0 {
				name = fmt.Sprintf("cols=%d/mod%d", cols, max)
			}
			b.Run(name, func(b *testing.B) {
				g, err := NewTrafficGen(1, slices.Repeat([]int{32}, cols), max, TrafficUniform)
				if err != nil {
					b.Fatal(err)
				}
				row := make([]Value, cols)
				for i := 0; i < b.N; i++ {
					g.Fill(row)
				}
			})
		}
	}
}

func BenchmarkReseed(b *testing.B) {
	var s source
	for i := 0; i < b.N; i++ {
		s.seed(int64(i))
	}
}

func BenchmarkReseedMathRand(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		r.Seed(int64(i))
	}
}
