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

func buildPipeline(t *testing.T, depth, width int, statefulAtom string, mutate func(*core.Spec, *machinecode.Program), level core.OptLevel) *core.Pipeline {
	t.Helper()
	s := core.Spec{
		Depth:        depth,
		Width:        width,
		StatelessALU: atoms.MustLoad("stateless_full"),
	}
	if statefulAtom != "" {
		s.StatefulALU = atoms.MustLoad(statefulAtom)
	}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	if mutate != nil {
		mutate(&s, code)
	}
	p, err := core.Build(s, code, level)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrafficGenDeterministic(t *testing.T) {
	g1 := NewTrafficGen(99, 3, phv.Default32, 0)
	g2 := NewTrafficGen(99, 3, phv.Default32, 0)
	tr1 := g1.Trace(50)
	tr2 := g2.Trace(50)
	if !tr1.Equal(tr2) {
		t.Error("same seed produced different traces")
	}
	g3 := NewTrafficGen(100, 3, phv.Default32, 0)
	if tr1.Equal(g3.Trace(50)) {
		t.Error("different seeds produced identical traces")
	}
}

func TestTrafficGenBounds(t *testing.T) {
	g := NewTrafficGen(1, 2, phv.Default32, 1024)
	for i := 0; i < 200; i++ {
		p := g.Next()
		for c := 0; c < p.Len(); c++ {
			if v := p.Get(c); v < 0 || v >= 1024 {
				t.Fatalf("value %d outside [0,1024)", v)
			}
		}
	}
}

func TestRunTickCount(t *testing.T) {
	// n PHVs through a depth-d pipeline drain in exactly n+d-1... with one
	// admission per tick and one stage per tick: last PHV enters at tick
	// n-1 and exits after d stages at tick n-1+d-1, so total ticks = n+d-1.
	p := buildPipeline(t, 3, 1, "", nil, core.SCCInlining)
	g := NewTrafficGen(7, 1, phv.Default32, 0)
	input := g.Trace(10)
	res, err := Run(p, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Len() != 10 {
		t.Errorf("output trace length = %d, want 10", res.Output.Len())
	}
	if want := 10 + 3 - 1; res.Ticks != want {
		t.Errorf("ticks = %d, want %d", res.Ticks, want)
	}
}

func TestRunIdentityPipeline(t *testing.T) {
	p := buildPipeline(t, 4, 2, "if_else_raw", nil, core.SCCInlining)
	g := NewTrafficGen(3, 2, phv.Default32, 0)
	input := g.Trace(25)
	res, err := Run(p, input)
	if err != nil {
		t.Fatal(err)
	}
	if d := input.Diff(res.Output); d != "" {
		t.Errorf("identity pipeline altered trace: %s", d)
	}
}

// TestTickEqualsDataflow: the tick-accurate run must equal processing each
// PHV to completion one at a time (stages are feedforward and state is
// per-stage, so pipelining cannot change results).
func TestTickEqualsDataflow(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mutate := func(s *core.Spec, code *machinecode.Program) {
		req, _ := s.RequiredPairs()
		for _, h := range req {
			if h.Domain > 0 {
				code.Set(h.Name, int64(rng.Intn(h.Domain)))
			} else {
				code.Set(h.Name, int64(rng.Intn(8)))
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		pTick := buildPipeline(t, 3, 2, "pair", mutate, core.SCCInlining)
		g := NewTrafficGen(int64(trial), 2, phv.Default32, 1<<16)
		input := g.Trace(30)
		tickRes, err := Run(pTick, input)
		if err != nil {
			t.Fatal(err)
		}
		// Note: mutate consumed rng; rebuild identical machine code by
		// cloning the pipeline's behaviour via a second Run after reset.
		pTick.ResetState()
		seq := phv.NewTrace()
		for i := 0; i < input.Len(); i++ {
			o, err := pTick.Process(input.At(i).Clone())
			if err != nil {
				t.Fatal(err)
			}
			seq.Append(o)
		}
		if d := tickRes.Output.Diff(seq); d != "" {
			t.Fatalf("trial %d: tick-level and dataflow outputs differ: %s", trial, d)
		}
	}
}

func TestRunRecordStates(t *testing.T) {
	p := buildPipeline(t, 2, 1, "raw", func(s *core.Spec, code *machinecode.Program) {
		// stage 0 stateful ALU accumulates container 0.
		code.Set(machinecode.ALUHoleName(0, true, 0, "mux2_0"), 0)
		code.Set(machinecode.OutputMuxName(0, 0), 2)
	}, core.SCCInlining)
	g := NewTrafficGen(5, 1, phv.Default32, 100)
	input := g.Trace(5)
	res, err := RunOpts(p, input, RunOptions{RecordStates: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StateHistory) != res.Ticks {
		t.Fatalf("state history length %d != ticks %d", len(res.StateHistory), res.Ticks)
	}
	// The accumulator state must be non-decreasing across ticks.
	prev := int64(-1)
	for i, snap := range res.StateHistory {
		v := snap[0][0][0]
		if v < prev {
			t.Errorf("tick %d: state decreased %d -> %d", i, prev, v)
		}
		prev = v
	}
	if !res.FinalState.Equal(res.StateHistory[len(res.StateHistory)-1]) {
		t.Error("final state != last history entry")
	}
}

func TestRunWrongPHVLen(t *testing.T) {
	p := buildPipeline(t, 1, 2, "", nil, core.SCCInlining)
	input := phv.NewTrace()
	input.Append(phv.New(3))
	if _, err := Run(p, input); err == nil {
		t.Error("Run accepted wrong-length PHV")
	}
}

// fuzzFirst runs a fresh fuzzer over p against spec on n PHVs of a fresh
// generator, up to the first mismatch.
func fuzzFirst(p *core.Pipeline, spec Spec, seed int64, n int, max int64, opts FuzzOptions) (*BatchReport, error) {
	return NewFuzzer(p).FuzzGen(spec, NewTrafficGen(seed, p.PHVLen(), p.Bits(), max), n, opts, 1)
}

// passThroughSpec expects the pipeline to be an identity function.
func passThroughSpec() Spec {
	return &SpecFunc{SpecName: "identity", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		return in.Clone(), nil
	}}
}

func TestFuzzPass(t *testing.T) {
	p := buildPipeline(t, 2, 2, "pred_raw", nil, core.SCCPropagation)
	rep, err := fuzzFirst(p, passThroughSpec(), 1, 500, 0, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fuzz failed: %s", rep)
	}
	if rep.Checked != 500 {
		t.Errorf("checked = %d, want 500", rep.Checked)
	}
	if !strings.HasPrefix(rep.String(), "PASS") {
		t.Errorf("report = %q, want PASS prefix", rep)
	}
}

func TestFuzzDetectsMismatch(t *testing.T) {
	// Pipeline computes identity; spec expects +1 on container 0.
	p := buildPipeline(t, 1, 1, "", nil, core.SCCInlining)
	spec := &SpecFunc{SpecName: "plus-one", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		out.Set(0, out.Get(0)+1)
		return out, nil
	}}
	rep, err := fuzzFirst(p, spec, 2, 100, 0, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("fuzz passed, want mismatch")
	}
	if m := rep.Mismatches[0]; m.Index != 0 || rep.Checked != 1 {
		t.Errorf("mismatch at PHV %d after %d checked, want PHV 0 after 1", m.Index, rep.Checked)
	}
	if m := rep.Mismatches[0]; m.Got == nil || m.Want == nil || m.Input == nil {
		t.Error("failure report lacks PHV details")
	}
	if !strings.HasPrefix(rep.String(), "FAIL") {
		t.Errorf("report = %q, want FAIL prefix", rep)
	}
}

func TestFuzzContainerMask(t *testing.T) {
	// Pipeline writes garbage into container 1 but container 0 is correct:
	// with a mask on container 0 the fuzz passes, without it it fails.
	mutate := func(s *core.Spec, code *machinecode.Program) {
		code.Set(machinecode.ALUHoleName(0, false, 0, "alu_op_0"), 0) // add
		code.Set(machinecode.ALUHoleName(0, false, 0, "mux3_0"), 0)
		code.Set(machinecode.ALUHoleName(0, false, 0, "mux3_1"), 1)
		code.Set(machinecode.OutputMuxName(0, 1), 1) // container 1 <- ALU 0
	}
	spec := passThroughSpec()
	p := buildPipeline(t, 1, 2, "", mutate, core.SCCInlining)
	rep, err := fuzzFirst(p, spec, 3, 200, 1<<20, FuzzOptions{Containers: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("masked fuzz failed: %s", rep)
	}
	p2 := buildPipeline(t, 1, 2, "", mutate, core.SCCInlining)
	rep2, err := fuzzFirst(p2, spec, 3, 200, 1<<20, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Passed() {
		t.Fatal("unmasked fuzz passed, want failure on container 1")
	}
}

func TestFuzzReportsRuntimeFailure(t *testing.T) {
	// BuildUnchecked + a deleted ALU pair: the failure must land in
	// BatchReport.Err, not as a harness error (§5.2 failure class 1).
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
	rep, err := fuzzFirst(p, passThroughSpec(), 4, 10, 0, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("fuzz passed with missing machine code pair")
	}
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "missing machine code pair") {
		t.Errorf("Err = %v, want missing-pair simulation failure", rep.Err)
	}
}

func TestFuzzEmptyTrace(t *testing.T) {
	p := buildPipeline(t, 1, 1, "", nil, core.SCCInlining)
	if _, err := fuzzFirst(p, passThroughSpec(), 1, 0, 0, FuzzOptions{}); err == nil {
		t.Error("FuzzGen accepted an empty run")
	}
}

// statefulCounterSpec mirrors a pipeline whose stage-0 stateful ALU
// accumulates container 0 and writes the sum back to container 0.
type statefulCounterSpec struct{ sum int64 }

func (s *statefulCounterSpec) Name() string { return "counter" }
func (s *statefulCounterSpec) Reset()       { s.sum = 0 }
func (s *statefulCounterSpec) Process(in *phv.PHV) (*phv.PHV, error) {
	s.sum = phv.Default32.Add(s.sum, in.Get(0))
	out := in.Clone()
	out.Set(0, s.sum)
	return out, nil
}

func TestFuzzStatefulSpec(t *testing.T) {
	p := buildPipeline(t, 1, 1, "raw", func(s *core.Spec, code *machinecode.Program) {
		code.Set(machinecode.ALUHoleName(0, true, 0, "mux2_0"), 0)
		code.Set(machinecode.OutputMuxName(0, 0), 2)
	}, core.SCCInlining)
	rep, err := fuzzFirst(p, &statefulCounterSpec{}, 5, 1000, 0, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("stateful fuzz failed: %s", rep)
	}
}

// TestReportTextIsPinned pins BatchReport.String for a run capped at one
// mismatch — a pass, a mismatch and an Unoptimized execution error — to the
// text the first-mismatch report printed before BatchReport took it over.
func TestReportTextIsPinned(t *testing.T) {
	p := buildPipeline(t, 1, 1, "", nil, core.SCCInlining)
	plusOne := &SpecFunc{SpecName: "plus-one", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		out.Set(0, out.Get(0)+1)
		return out, nil
	}}
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
	broken, err := core.BuildUnchecked(s, code)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    *core.Pipeline
		spec Spec
		seed int64
		n    int
		max  int64
		want string
	}{
		{p, passThroughSpec(), 1, 50, 0, "PASS: identity: 50 PHVs match"},
		{p, plusOne, 2, 100, 1000, "FAIL: plus-one: PHV 0: input [511]: pipeline [511], spec [512]"},
		{broken, passThroughSpec(), 4, 10, 0, `FAIL: identity: simulation error after 0 PHVs: sim: tick 0: aludsl: stateless_full: missing machine code pair for "const_0"`},
	} {
		rep, err := fuzzFirst(tc.p, tc.spec, tc.seed, tc.n, tc.max, FuzzOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.String(); got != tc.want {
			t.Errorf("report %q, want %q", got, tc.want)
		}
	}
}
