package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// TestFuzzRejectsCompareContainerOutOfRange: a compared container outside
// the PHV is harness misuse and comes back as an error on the tick loop and
// on the fused loop — it used to index out of range inside the compare.
func TestFuzzRejectsCompareContainerOutOfRange(t *testing.T) {
	p := buildPipeline(t, 2, 2, "", nil, core.Compiled) // identity, PHVLen 2
	pass := dominoSpec(t, p, passThroughDomino)
	for _, tc := range []struct {
		containers []int
		want       string
	}{
		{[]int{5}, "sim: compare container 5 out of range [0,2)"},
		{[]int{2}, "sim: compare container 2 out of range [0,2)"},
		{[]int{0, -1}, "sim: compare container -1 out of range [0,2)"},
	} {
		for name, f := range map[string]*Fuzzer{"ticks": tickFuzzer(p), "fused": NewFuzzer(p)} {
			rep, err := f.FuzzGen(pass(), NewTrafficGen(1, 2, phv.Default32, 0), 20, FuzzOptions{Containers: tc.containers}, 0)
			if err == nil || err.Error() != tc.want {
				t.Errorf("containers %v on %s: report %v, err %v; want error %q", tc.containers, name, rep, err, tc.want)
			}
		}
		if _, err := FuzzRandom(p, passThroughSpec(), 1, 20, 0, FuzzOptions{Containers: tc.containers}); err == nil || err.Error() != tc.want {
			t.Errorf("FuzzRandom containers %v: err %v, want %q", tc.containers, err, tc.want)
		}
	}
	if rep, err := FuzzRandom(p, passThroughSpec(), 1, 20, 0, FuzzOptions{Containers: []int{0, 1}}); err != nil || !rep.Passed {
		t.Errorf("in-range containers: report %v, err %v", rep, err)
	}
}

// TestFuzzGenRejectsGeneratorOfAnotherShape: a generator drawing fewer
// columns than the pipeline has containers left the rest undrawn (a 1-column
// generator fuzzed only container 0 of 2 and passed), one drawing more wrote
// past the input buffer; both are harness misuse on both loops.
func TestFuzzGenRejectsGeneratorOfAnotherShape(t *testing.T) {
	p := buildPipeline(t, 2, 2, "", nil, core.Compiled) // identity, PHVLen 2
	pass := dominoSpec(t, p, passThroughDomino)
	for _, cols := range []int{1, 3} {
		want := fmt.Sprintf("sim: traffic generator draws %d columns, pipeline has 2 containers", cols)
		for name, f := range map[string]*Fuzzer{"ticks": tickFuzzer(p), "fused": NewFuzzer(p)} {
			var rep *BatchReport
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				rep, err = f.FuzzGen(pass(), NewTrafficGen(1, cols, phv.Default32, 0), 5, FuzzOptions{}, 0)
			}()
			if err == nil || err.Error() != want {
				t.Errorf("%d-column generator on %s: report %+v, err %v; want error %q", cols, name, rep, err, want)
			}
		}
	}
}

// pipeSpec is a specification that is itself a pipeline — the naive
// Unoptimized reference of the pipeline under test — made deliberately
// wrong on the packets whose container-0 output is even.
type pipeSpec struct {
	p     *core.Pipeline
	wrong bool
}

func (s *pipeSpec) Name() string { return "reference-pipeline" }
func (s *pipeSpec) Reset()       { s.p.ResetState() }
func (s *pipeSpec) Process(in *phv.PHV) (*phv.PHV, error) {
	out, err := s.p.Process(in)
	if err == nil && s.wrong && out.Get(0)%2 == 0 {
		out.Set(0, out.Get(0)+1)
	}
	return out, err
}

// randomizedPair builds the same random machine code at the given level and
// at Unoptimized.
func randomizedPair(t *testing.T, seed int64, level core.OptLevel) (p, ref *core.Pipeline) {
	t.Helper()
	p = randomizedPipeline(t, 3, 2, "pair", rand.New(rand.NewSource(seed)), level)
	ref = randomizedPipeline(t, 3, 2, "pair", rand.New(rand.NewSource(seed)), core.Unoptimized)
	return p, ref
}

// TestConeFuzzReportsMatchFullGrid is the report-identity pin: against a
// Domino specification that expects container 0 to be zero, wrong wherever
// the random code leaves it nonzero, with the comparison restricted to that
// container, the fuzzer (which executes the fused output cone with the
// specification linked after it) produces the BatchReport — indices, Input,
// whole-PHV Got, Want, Checked, Ticks — that the tick loop produces over the
// full ALU grid, with and without a mismatch cap.
func TestConeFuzzReportsMatchFullGrid(t *testing.T) {
	const n = 200
	pruned, mismatched, matched := 0, 0, 0
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		for trial := int64(0); trial < 4; trial++ {
			p, ref := randomizedPair(t, 900+trial, level)
			cone, full := NewFuzzer(p), tickFuzzer(p)
			live, total := p.Cone().ALUCounts()
			pruned += total - live
			spec := dominoSpec(t, ref, "transaction { pkt.a = 0; }")()
			for _, maxMM := range []int{0, 3} {
				opts := FuzzOptions{Containers: []int{0}}
				got, err := cone.FuzzGen(spec, NewTrafficGen(trial, 2, phv.Default32, 1<<16), n, opts, maxMM)
				if err != nil {
					t.Fatal(err)
				}
				want, err := full.FuzzGen(spec, NewTrafficGen(trial, 2, phv.Default32, 1<<16), n, opts, maxMM)
				if err != nil {
					t.Fatal(err)
				}
				batchReportsEqual(t, level.String(), got, want)
				if !cone.Linked() {
					t.Fatalf("%s trial %d: the specification was not linked after the cone", level, trial)
				}
				mismatched += len(want.Mismatches)
				matched += want.Checked - len(want.Mismatches)
			}
			if !allZeroState(p) {
				t.Fatalf("%s trial %d: NewFuzzer's argument was executed", level, trial)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no trial pruned an ALU; the comparison never exercised a cone")
	}
	if mismatched == 0 || matched == 0 {
		t.Fatalf("%d PHVs mismatched, %d matched; the wrong spec should split the streams", mismatched, matched)
	}
}

func allZeroState(p *core.Pipeline) bool {
	for _, stage := range p.StateSnapshot() {
		for _, alu := range stage {
			for _, v := range alu {
				if v != 0 {
					return false
				}
			}
		}
	}
	return true
}

// TestConeEnginesMatchFullGrid runs the engines against the Unoptimized
// reference: Stream and Batch, which simulate the full grid, produce its
// output PHVs packet for packet and its final state; the fused output cone,
// driven by hand, produces the same PHVs and leaves every stateful ALU either
// in the reference's final state (live) or untouched (dead).
func TestConeEnginesMatchFullGrid(t *testing.T) {
	const n = 50
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		for trial := int64(0); trial < 5; trial++ {
			p, ref := randomizedPair(t, 300+trial, level)
			input := NewTrafficGen(trial, 2, phv.Default32, 1<<16).Trace(n)
			want, err := Run(ref, input)
			if err != nil {
				t.Fatal(err)
			}
			engines := []struct {
				name string
				cone bool
				run  func(p *core.Pipeline) *phv.Trace
			}{
				{"stream", false, func(p *core.Pipeline) *phv.Trace {
					st, out := NewStream(p), phv.NewTrace()
					for fed := 0; fed < n || st.InFlight() > 0; fed++ {
						var in []phv.Value
						if fed < n {
							in = input.At(fed).Raw()
						}
						o, err := st.Tick(in)
						if err != nil {
							t.Fatal(err)
						}
						if o != nil {
							out.Append(phv.FromValues(o))
						}
					}
					return out
				}},
				{"batch", false, func(p *core.Pipeline) *phv.Trace {
					b, err := NewBatch(p, 8)
					if err != nil {
						t.Fatal(err)
					}
					out := phv.NewTrace()
					for at := 0; at < n; at += 8 {
						m := min(8, n-at)
						for k := 0; k < m; k++ {
							b.Load(k, input.At(at+k).Raw())
						}
						if err := b.Run(m); err != nil {
							t.Fatal(err)
						}
						for k := 0; k < m; k++ {
							out.Append(phv.FromValues(b.Out(k)))
						}
					}
					return out
				}},
				{"cone", true, func(p *core.Pipeline) *phv.Trace {
					cone := p.Cone()
					frame, out, row := cone.NewFrame(), phv.NewTrace(), make([]phv.Value, p.PHVLen())
					cone.LoadState(frame, p)
					for k := 0; k < n; k++ {
						copy(cone.Inputs(frame), input.At(k).Raw())
						cone.Run(frame)
						out.Append(phv.FromValues(gatherRegs(frame, cone.Out(), row)))
					}
					cone.StoreState(frame, p)
					return out
				}},
			}
			for _, e := range engines {
				q := p.Clone()
				if d := want.Output.Diff(e.run(q)); d != "" {
					t.Fatalf("%s %s trial %d: diverges from the reference: %s", level, e.name, trial, d)
				}
				for si, stage := range q.StateSnapshot() {
					for slot, got := range stage {
						wantState := want.FinalState[si][slot]
						if e.cone && !p.Cone().Executes(si, true, slot) {
							wantState = make([]phv.Value, len(wantState))
						}
						if !phv.FromValues(got).Equal(phv.FromValues(wantState)) {
							t.Fatalf("%s %s trial %d: stateful ALU %d/%d ends in %v, want %v", level, e.name, trial, si, slot, got, wantState)
						}
					}
				}
			}
		}
	}
}

// TestNewFuzzerLeavesUnoptimizedWhole: an Unoptimized pipeline resolves
// machine code at run time, where a missing pair is a finding, so its
// fuzzer executes every ALU.
func TestNewFuzzerLeavesUnoptimizedWhole(t *testing.T) {
	p, _ := randomizedPair(t, 1, core.Unoptimized)
	f := NewFuzzer(p)
	if p.Cone() != nil || f.onFused() {
		t.Fatal("an unoptimized pipeline was fused")
	}
	rep, err := f.FuzzGen(&pipeSpec{p: p.Clone()}, NewTrafficGen(1, 2, phv.Default32, 0), 50, FuzzOptions{}, 0)
	if err != nil || !rep.Passed() {
		t.Fatalf("report %+v, err %v", rep, err)
	}
	if f.stream.p == p {
		t.Fatal("NewFuzzer must execute on a private clone")
	}
	if !allZeroState(p) {
		t.Fatal("NewFuzzer's argument was executed")
	}
}

// TestComparePairsSelectsInOrder: for every set of compared containers,
// comparePairs returns the oracle's pairs of those containers in the
// oracle's order; when they select every pair it returns the oracle's own
// slice and copies nothing.
func TestComparePairsSelectsInOrder(t *testing.T) {
	p := buildPipeline(t, 2, 3, "", nil, core.Compiled) // identity, PHVLen 3
	f := NewFuzzer(p)
	spec := dominoSpec(t, p, "transaction { pkt.a = pkt.a + 1; pkt.b = pkt.b + 2; pkt.c = pkt.c + 3; }")()
	o := f.useOracle(spec.(*domino.PHVSpec).Binding())
	all, out := o.Pairs(), o.out
	if len(all) != 3 {
		t.Fatalf("the identity oracle compares %d pairs, want 3", len(all))
	}
	for mask := 0; mask < 1<<len(all); mask++ {
		var containers []int
		var want []flat.Pair
		for c := range all {
			if mask&(1<<c) != 0 {
				containers = append(containers, c)
				want = append(want, flat.Pair{Got: out[c], Want: o.want[c]})
			}
		}
		if mask == 0 {
			containers = []int{} // compare nothing, not every container
		}
		got := f.comparePairs(o, containers)
		if !slices.Equal(got, want) {
			t.Errorf("containers %v: pairs %v, want %v", containers, got, want)
		}
		if shared := len(got) > 0 && &got[0] == &all[0]; shared != (len(want) == len(all)) {
			t.Errorf("containers %v: the oracle's own slice returned %v, want %v", containers, shared, len(want) == len(all))
		}
	}
	if got := f.comparePairs(o, nil); len(got) == 0 || &got[0] != &all[0] {
		t.Errorf("nil containers: pairs %v, want the oracle's own %v", got, all)
	}
}
