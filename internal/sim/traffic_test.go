package sim

import (
	"testing"

	"druzhba/internal/phv"
)

// TestTrafficGenBoundaryMode: every value drawn in boundary mode is a
// boundary of the draw range, both range extremes actually occur, and the
// stream is deterministic per seed.
func TestTrafficGenBoundaryMode(t *testing.T) {
	const max = 1000
	g, err := NewTrafficGenMode(11, 3, phv.Default32, max, TrafficBoundary)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[phv.Value]bool{0: true, 1: true, max - 1: true}
	seen := map[phv.Value]int{}
	for i := 0; i < 200; i++ {
		p := g.Next()
		for _, v := range p.Raw() {
			if !allowed[v] {
				t.Fatalf("boundary mode drew %d (allowed %v)", v, allowed)
			}
			seen[v]++
		}
	}
	if seen[0] == 0 || seen[max-1] == 0 {
		t.Fatalf("extremes missing from boundary stream: %v", seen)
	}

	g1, _ := NewTrafficGenMode(42, 2, phv.Default32, 0, TrafficBoundary)
	g2, _ := NewTrafficGenMode(42, 2, phv.Default32, 0, TrafficBoundary)
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		for c := range a.Raw() {
			if a.Raw()[c] != b.Raw()[c] {
				t.Fatalf("boundary stream not deterministic at packet %d", i)
			}
		}
	}
}

// TestTrafficGenBoundaryFullWidth: at full datapath width the maximal
// boundary value is the all-ones container pattern.
func TestTrafficGenBoundaryFullWidth(t *testing.T) {
	g, err := NewTrafficGenMode(3, 1, phv.Default32, 0, TrafficBoundary)
	if err != nil {
		t.Fatal(err)
	}
	mask := phv.Default32.Mask()
	sawAllOnes := false
	for i := 0; i < 100; i++ {
		v := g.Next().Raw()[0]
		if v != 0 && v != 1 && v != mask {
			t.Fatalf("full-width boundary mode drew %d", v)
		}
		sawAllOnes = sawAllOnes || v == mask
	}
	if !sawAllOnes {
		t.Fatal("all-ones pattern never drawn")
	}
}

// TestTrafficGenModeValidation: unknown modes error, the empty mode is
// uniform, and uniform mode matches NewTrafficGen exactly.
func TestTrafficGenModeValidation(t *testing.T) {
	if _, err := NewTrafficGenMode(1, 1, phv.Default32, 0, "chaotic"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	gEmpty, err := NewTrafficGenMode(9, 2, phv.Default32, 100, "")
	if err != nil {
		t.Fatal(err)
	}
	gUniform := NewTrafficGen(9, 2, phv.Default32, 100)
	for i := 0; i < 50; i++ {
		a, b := gEmpty.Next(), gUniform.Next()
		for c := range a.Raw() {
			if a.Raw()[c] != b.Raw()[c] {
				t.Fatal("empty mode does not match uniform")
			}
		}
	}
}

// TestTrafficGenRestart pins Start as stream-identical to building a new
// generator: after any amount of use, Start(plan, seed) continues exactly as
// NewTrafficGenMode(seed, ...) starts, after the plan's corpus — for uniform
// and boundary draws, bounded and full-width ranges, through Fill and Next,
// with the corpus served again from its first entry.
func TestTrafficGenRestart(t *testing.T) {
	corpus := [][]phv.Value{{7, 3, 1}, {0, 0, 5}}
	for _, mode := range []TrafficMode{TrafficUniform, TrafficBoundary} {
		for _, max := range []int64{0, 100} {
			for _, withCorpus := range []bool{false, true} {
				var entries [][]phv.Value
				if withCorpus {
					entries = corpus
				}
				plan, err := NewTraffic(3, phv.Default32, max, mode, entries)
				if err != nil {
					t.Fatal(err)
				}
				var reused TrafficGen
				reused.Start(plan, 1)
				buf := make([]phv.Value, 3)
				for _, seed := range []int64{42, -7, 42, 0} {
					// Leave the generator mid-corpus on one round, far past it
					// on the next, before restarting.
					for i := int64(0); i < 1+(seed&3)*5; i++ {
						reused.Fill(buf)
					}
					reused.Start(plan, seed)
					fresh, _ := NewTrafficGenMode(seed, 3, phv.Default32, max, mode)
					want := make([]phv.Value, 3)
					for i := 0; i < 40; i++ {
						if id := reused.Fill(buf); i < len(entries) {
							if id != i || !phv.FromValues(buf).Equal(phv.FromValues(entries[i])) {
								t.Fatalf("%s max=%d seed %d: packet %d = id %d %v, corpus entry %v", mode, max, seed, i, id, buf, entries[i])
							}
							continue
						}
						fresh.Fill(want)
						if !phv.FromValues(buf).Equal(phv.FromValues(want)) {
							t.Fatalf("%s max=%d corpus=%v seed %d: Fill %d = %v, fresh generator %v", mode, max, withCorpus, seed, i, buf, want)
						}
					}
					if got, want := reused.Next(), fresh.Next(); !got.Equal(want) {
						t.Fatalf("%s max=%d corpus=%v seed %d: Next = %v, fresh generator %v", mode, max, withCorpus, seed, got, want)
					}
				}
			}
		}
	}
}

// TestTrafficGenClampsMaxToWidth: a max beyond the container width is
// clamped to it, so phv.Value's "always masked to the pipeline's bit width"
// invariant holds at the source — at 4 bits, -max 1000 draws only values
// below 16 (and boundary mode's top value is the all-ones 15), in both modes
// and through Fill and Next.
func TestTrafficGenClampsMaxToWidth(t *testing.T) {
	w := phv.MustWidth(4)
	for _, mode := range []TrafficMode{TrafficUniform, TrafficBoundary} {
		g, err := NewTrafficGenMode(1, 2, w, 1000, mode)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]phv.Value, 2)
		top := phv.Value(0)
		for i := 0; i < 500; i++ {
			g.Fill(buf)
			for _, v := range append(g.Next().Raw(), buf...) {
				if v < 0 || v > w.Mask() {
					t.Fatalf("%s: drew %d into a 4-bit container", mode, v)
				}
				top = max(top, v)
			}
		}
		if top != w.Mask() {
			t.Fatalf("%s: largest value drawn is %d, want the all-ones %d", mode, top, w.Mask())
		}
	}
}
