package sim

import (
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// randomizedPipeline builds a depth×width pipeline with machine code drawn
// from rng (every bounded hole uniform over its domain, immediates small).
func randomizedPipeline(t *testing.T, depth, width int, statefulAtom string, rng *rand.Rand, level core.OptLevel) *core.Pipeline {
	t.Helper()
	return buildPipeline(t, depth, width, statefulAtom, func(s *core.Spec, code *machinecode.Program) {
		randomizeCode(s, code, rng)
	}, level)
}

// randomizeCode sets every required pair to a random value of its domain
// (immediates: below 8) and returns the pairs.
func randomizeCode(s *core.Spec, code *machinecode.Program, rng *rand.Rand) []core.HoleSpec {
	req, _ := s.RequiredPairs()
	for _, h := range req {
		if h.Domain > 0 {
			code.Set(h.Name, int64(rng.Intn(h.Domain)))
		} else {
			code.Set(h.Name, int64(rng.Intn(8)))
		}
	}
	return req
}

// TestStreamMatchesRun differentially tests the streaming engine against
// the recording Run over randomized pipelines at every level: same traffic,
// same outputs in order, same tick count, same final state.
func TestStreamMatchesRun(t *testing.T) {
	for _, level := range core.AllLevels() {
		for trial := 0; trial < 5; trial++ {
			rng := rand.New(rand.NewSource(int64(100*trial + 1)))
			pRun := randomizedPipeline(t, 3, 2, "pair", rng, level)
			rng = rand.New(rand.NewSource(int64(100*trial + 1)))
			pStream := randomizedPipeline(t, 3, 2, "pair", rng, level)

			g := NewTrafficGen(int64(trial), 2, phv.Default32, 1<<16)
			input := g.Trace(40)
			runRes, err := Run(pRun, input)
			if err != nil {
				t.Fatal(err)
			}

			stream := NewStream(pStream)
			got := phv.NewTrace()
			for fed := 0; fed < input.Len() || stream.InFlight() > 0; {
				var in []phv.Value
				if fed < input.Len() {
					in = input.At(fed).Raw()
					fed++
				}
				out, err := stream.Tick(in)
				if err != nil {
					t.Fatal(err)
				}
				if out != nil {
					got.Append(phv.FromValues(out))
				}
			}
			if d := runRes.Output.Diff(got); d != "" {
				t.Fatalf("%s trial %d: stream diverges from Run: %s", level, trial, d)
			}
			if stream.Ticks() != runRes.Ticks {
				t.Fatalf("%s trial %d: stream ticks %d, Run ticks %d", level, trial, stream.Ticks(), runRes.Ticks)
			}
			if !pStream.StateSnapshot().Equal(runRes.FinalState) {
				t.Fatalf("%s trial %d: final states diverge", level, trial)
			}
		}
	}
}

// TestFillMatchesNext: Fill and Next consume the generator stream
// identically, so streaming and trace-materializing consumers of one seed
// see the same traffic.
func TestFillMatchesNext(t *testing.T) {
	gTrace := NewTrafficGen(42, 3, phv.Default32, 1000)
	gFill := NewTrafficGen(42, 3, phv.Default32, 1000)
	buf := make([]phv.Value, 3)
	for i := 0; i < 100; i++ {
		want := gTrace.Next()
		gFill.Fill(buf)
		for c := 0; c < 3; c++ {
			if buf[c] != want.Get(c) {
				t.Fatalf("PHV %d container %d: Fill %d, Next %d", i, c, buf[c], want.Get(c))
			}
		}
	}
}

// brokenSpec diverges from the identity pipeline on every packet whose
// container 0 is even.
func brokenSpec() Spec {
	return &SpecFunc{SpecName: "half-wrong", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		if out.Get(0)%2 == 0 {
			out.Set(0, out.Get(0)+1)
		}
		return out, nil
	}}
}

// TestFuzzGenMatchesFuzzBatch differentially tests the generator-driven
// streaming path against the same fuzzer fed a materialized trace (the
// feed behind sim.Fuzz): identical Checked,
// Ticks and mismatch sets, on clean and on diverging runs.
func TestFuzzGenMatchesFuzzBatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec func() Spec
	}{
		{"clean", passThroughSpec},
		{"diverging", brokenSpec},
	} {
		p1 := buildPipeline(t, 3, 2, "pred_raw", nil, core.SCCInlining)
		p2 := buildPipeline(t, 3, 2, "pred_raw", nil, core.SCCInlining)
		const n = 300
		batch, err := NewFuzzer(p1).Fuzz(tc.spec(), n, traceFeed(NewTrafficGen(9, 2, phv.Default32, 1000).Trace(n), 2), FuzzOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := NewFuzzer(p2).FuzzGen(tc.spec(), NewTrafficGen(9, 2, phv.Default32, 1000), n, FuzzOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if batch.Checked != streamed.Checked || batch.Ticks != streamed.Ticks {
			t.Fatalf("%s: batch (checked=%d ticks=%d) != streamed (checked=%d ticks=%d)",
				tc.name, batch.Checked, batch.Ticks, streamed.Checked, streamed.Ticks)
		}
		if len(batch.Mismatches) != len(streamed.Mismatches) {
			t.Fatalf("%s: %d vs %d mismatches", tc.name, len(batch.Mismatches), len(streamed.Mismatches))
		}
		for i := range batch.Mismatches {
			a, b := batch.Mismatches[i], streamed.Mismatches[i]
			if a.Index != b.Index || !a.Input.Equal(b.Input) || !a.Got.Equal(b.Got) || !a.Want.Equal(b.Want) {
				t.Fatalf("%s: mismatch %d differs: %s vs %s", tc.name, i, &a, &b)
			}
		}
		if tc.name == "clean" && !streamed.Passed() {
			t.Fatalf("clean run did not pass: %+v", streamed)
		}
		if tc.name == "diverging" && streamed.Passed() {
			t.Fatal("diverging run passed")
		}
	}
}

// TestFuzzCheckedCountsMismatch pins the count semantics: Checked counts
// every PHV compared including a mismatching one, and FailIndex addresses
// the mismatch, so a first-packet divergence reports Checked=1/FailIndex=0
// (sim.Fuzz used to report Checked=FailIndex, one short of the BatchReport).
func TestFuzzCheckedCountsMismatch(t *testing.T) {
	// Identity pipeline vs +1 spec: every packet diverges, starting at 0.
	p := buildPipeline(t, 1, 1, "", nil, core.SCCInlining)
	spec := &SpecFunc{SpecName: "plus-one", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		out.Set(0, out.Get(0)+1)
		return out, nil
	}}
	rep, err := FuzzRandom(p, spec, 2, 100, 0, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("fuzz passed, want mismatch")
	}
	if rep.FailIndex != 0 || rep.Checked != 1 {
		t.Errorf("FailIndex=%d Checked=%d, want FailIndex=0 Checked=1", rep.FailIndex, rep.Checked)
	}

	// The same input as a trace through the Fuzzer with a mismatch cap:
	// Checked must agree with the single-mismatch report (FailIndex+1).
	p2 := buildPipeline(t, 1, 1, "", nil, core.SCCInlining)
	batch, err := NewFuzzer(p2).Fuzz(spec, 100, traceFeed(NewTrafficGen(2, 1, phv.Default32, 0).Trace(100), 1), FuzzOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Mismatches) != 1 || batch.Checked != batch.Mismatches[0].Index+1 {
		t.Errorf("batch Checked=%d, want %d", batch.Checked, batch.Mismatches[0].Index+1)
	}
}

// TestStreamRuntimeFailureIsAFinding: the unchecked (BuildUnchecked) path
// still reports missing machine code pairs as findings through the
// streaming fuzzer, with the count of PHVs compared before the failure.
func TestStreamRuntimeFailureIsAFinding(t *testing.T) {
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full"), StatefulALU: atoms.MustLoad("raw")}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	code.Delete(machinecode.ALUHoleName(0, false, 0, "const_0"))
	p, err := core.BuildUnchecked(s, code)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewFuzzer(p).FuzzGen(passThroughSpec(), NewTrafficGen(4, 1, phv.Default32, 0), 10, FuzzOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "missing machine code pair") {
		t.Fatalf("Err = %v, want missing-pair simulation failure", rep.Err)
	}
	if rep.Checked != 0 {
		t.Errorf("Checked = %d, want 0 (first packet never completed)", rep.Checked)
	}
}

// TestFuzzerReuse: one Fuzzer across many runs yields the same reports as
// fresh fuzzers (the campaign engine reuses one per worker per job).
func TestFuzzerReuse(t *testing.T) {
	p := buildPipeline(t, 2, 2, "pred_raw", nil, core.Compiled)
	f := NewFuzzer(p)
	for shard := 0; shard < 4; shard++ {
		gen := NewTrafficGen(int64(shard), 2, phv.Default32, 1000)
		reused, err := f.FuzzGen(passThroughSpec(), gen, 100, FuzzOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewFuzzer(buildPipeline(t, 2, 2, "pred_raw", nil, core.Compiled)).FuzzGen(passThroughSpec(),
			NewTrafficGen(int64(shard), 2, phv.Default32, 1000), 100, FuzzOptions{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if reused.Checked != fresh.Checked || reused.Ticks != fresh.Ticks || len(reused.Mismatches) != len(fresh.Mismatches) {
			t.Fatalf("shard %d: reused fuzzer diverges: %+v vs %+v", shard, reused, fresh)
		}
		if !reused.Passed() {
			t.Fatalf("shard %d failed: %+v", shard, reused)
		}
	}
}

// TestStreamSlotWindow: the completion slot keeps its PHV visible until the
// next tick (the debugger's slot snapshots rely on this).
func TestStreamSlotWindow(t *testing.T) {
	p := buildPipeline(t, 2, 1, "", nil, core.SCCInlining)
	stream := NewStream(p)
	in := []phv.Value{7}
	if out, err := stream.Tick(in); err != nil || out != nil {
		t.Fatalf("tick 0: out=%v err=%v", out, err)
	}
	out, err := stream.Tick(nil)
	if err != nil || out == nil {
		t.Fatalf("tick 1: out=%v err=%v", out, err)
	}
	if got := stream.Slot(stream.Depth()); got == nil || got[0] != 7 {
		t.Fatalf("completion slot = %v, want [7] visible until next tick", got)
	}
	if _, err := stream.Tick(nil); err != nil {
		t.Fatal(err)
	}
	if got := stream.Slot(stream.Depth()); got != nil {
		t.Fatalf("completion slot = %v after consuming tick, want empty", got)
	}
}
