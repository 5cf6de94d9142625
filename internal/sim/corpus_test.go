package sim

import (
	"testing"

	"druzhba/internal/phv"
)

// TestTrafficGenSeedCorpus pins the corpus-replay contract: seeded packets
// are served first, verbatim and in order, and consume no random numbers —
// so the stream after the corpus is exactly the stream an unseeded
// generator with the same seed produces from its start.
func TestTrafficGenSeedCorpus(t *testing.T) {
	corpus := [][]phv.Value{{7, 3, 1}, {7, 3, 1}, {0, 0, 5}}
	seeded := corpusGen(t, 42, corpus)
	plain := NewTrafficGen(42, 3, phv.Default32, 0)

	for i, want := range corpus {
		got := seeded.Next()
		for c, v := range want {
			if got.Get(c) != v {
				t.Fatalf("corpus packet %d container %d: got %d, want %d", i, c, got.Get(c), v)
			}
		}
	}
	if !seeded.Trace(20).Equal(plain.Trace(20)) {
		t.Fatal("post-corpus stream differs from the unseeded stream (corpus must consume no RNG)")
	}
}

// TestTrafficGenCorpusLengthMismatch pins the padding rule: short corpus
// entries zero-fill the remaining containers, long ones truncate.
func TestTrafficGenCorpusLengthMismatch(t *testing.T) {
	g := corpusGen(t, 1, [][]phv.Value{{9}, {1, 2, 3, 4}})
	first := g.Next()
	if first.Get(0) != 9 || first.Get(1) != 0 || first.Get(2) != 0 {
		t.Fatalf("short entry: got %v, want [9 0 0]", first)
	}
	second := g.Next()
	if second.Get(0) != 1 || second.Get(1) != 2 || second.Get(2) != 3 {
		t.Fatalf("long entry: got %v, want [1 2 3]", second)
	}
}

// corpusGen is NewTrafficGen(seed, 3, phv.Default32, 0) on a plan that
// serves corpus first.
func corpusGen(t *testing.T, seed int64, corpus [][]phv.Value) *TrafficGen {
	t.Helper()
	plan, err := NewTraffic(3, phv.Default32, 0, TrafficUniform, corpus)
	if err != nil {
		t.Fatal(err)
	}
	g := new(TrafficGen)
	g.Start(plan, seed)
	return g
}
