package core

import (
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// paperLevels are the paper's three optimization levels (Fig. 6), without
// the closure-compiled extension AllLevels adds.
var paperLevels = []OptLevel{Unoptimized, SCCPropagation, SCCInlining}

// testSpec builds a Spec with the given dims using the full stateless ALU
// and a chosen stateful atom.
func testSpec(t *testing.T, depth, width int, statefulAtom string) Spec {
	t.Helper()
	s := Spec{
		Depth:        depth,
		Width:        width,
		StatelessALU: atoms.MustLoad("stateless_full"),
	}
	if statefulAtom != "" {
		s.StatefulALU = atoms.MustLoad(statefulAtom)
	}
	return s
}

// identityCode returns machine code that makes the whole pipeline a no-op:
// all output muxes pass through, all other values zero (in-domain).
func identityCode(t *testing.T, s *Spec) *machinecode.Program {
	t.Helper()
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	return code
}

func TestRequiredPairsCount(t *testing.T) {
	s := testSpec(t, 2, 2, "if_else_raw")
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	// Per stage: 2 stateless ALUs x (2 operand muxes + 5 holes)
	//          + 2 stateful ALUs x (2 operand muxes + 10 holes)
	//          + 2 output muxes = 14 + 24 + 2 = 40; x2 stages = 80.
	if got, want := len(req), 80; got != want {
		t.Errorf("RequiredPairs count = %d, want %d", got, want)
	}
	seen := map[string]bool{}
	for _, h := range req {
		if seen[h.Name] {
			t.Errorf("duplicate required pair %q", h.Name)
		}
		seen[h.Name] = true
	}
}

func TestValidateDetectsMissingAndOutOfRange(t *testing.T) {
	s := testSpec(t, 1, 1, "raw")
	code := identityCode(t, &s)
	// Remove one pair, corrupt another.
	code.Delete(machinecode.OutputMuxName(0, 0))
	code.Set(machinecode.OperandMuxName(0, true, 0, 0), 99)
	errs := (&s).Validate(code)
	if len(errs) != 2 {
		t.Fatalf("Validate returned %d errors, want 2: %v", len(errs), errs)
	}
	joined := errs[0].Error() + errs[1].Error()
	if !strings.Contains(joined, "missing machine code pair") {
		t.Errorf("no missing-pair error in %v", errs)
	}
	if !strings.Contains(joined, "out of range") {
		t.Errorf("no out-of-range error in %v", errs)
	}
}

func TestBuildRejectsBadCode(t *testing.T) {
	s := testSpec(t, 1, 1, "raw")
	code := identityCode(t, &s)
	code.Delete(machinecode.OutputMuxName(0, 0))
	for _, level := range paperLevels {
		if _, err := Build(s, code, level); err == nil {
			t.Errorf("Build(%v) succeeded with missing pair", level)
		}
	}
}

func TestBuildUncheckedFailsAtRuntime(t *testing.T) {
	// The original dsim consumed machine code at runtime; missing pairs
	// surface during execution (§5.2's first failure class).
	s := testSpec(t, 1, 1, "raw")
	code := identityCode(t, &s)
	code.Delete(machinecode.ALUHoleName(0, true, 0, "const_0"))
	p, err := BuildUnchecked(s, code)
	if err != nil {
		t.Fatalf("BuildUnchecked: %v", err)
	}
	if _, err := p.Process(phv.New(1)); err == nil {
		t.Fatal("Process succeeded with missing ALU hole pair")
	}
}

// TestOutOfDomainOptFailsAtRuntime: an Opt value outside [0,2) is
// incompatible machine code (§5.2's second failure class) like any other
// builtin's. Build refuses it at every level, and on the BuildUnchecked path
// ExecuteStage fails with the builtin table's out-of-domain error naming the
// hole, where it used to select 0.
func TestOutOfDomainOptFailsAtRuntime(t *testing.T) {
	s := testSpec(t, 1, 1, "pred_raw")
	code := identityCode(t, &s)
	code.Set(machinecode.ALUHoleName(0, true, 0, "opt_0"), 2)
	for _, level := range paperLevels {
		if _, err := Build(s, code, level); err == nil {
			t.Errorf("Build(%v) accepted opt_0 = 2", level)
		}
	}
	p, err := BuildUnchecked(s, code)
	if err != nil {
		t.Fatalf("BuildUnchecked: %v", err)
	}
	out := make([]phv.Value, 1)
	err = p.ExecuteStage(0, []phv.Value{5}, out)
	if err == nil || !strings.Contains(err.Error(), `hole "opt_0": Opt value 2 out of range [0,2)`) {
		t.Fatalf("ExecuteStage = %v, want the out-of-domain error for opt_0", err)
	}
}

func TestIdentityPipeline(t *testing.T) {
	s := testSpec(t, 3, 2, "if_else_raw")
	code := identityCode(t, &s)
	for _, level := range paperLevels {
		p, err := Build(s, code, level)
		if err != nil {
			t.Fatalf("Build(%v): %v", level, err)
		}
		in := phv.FromValues([]phv.Value{11, 22})
		out, err := p.Process(in)
		if err != nil {
			t.Fatalf("Process(%v): %v", level, err)
		}
		if !out.Equal(in) {
			t.Errorf("%v: identity pipeline changed PHV: %s -> %s", level, in, out)
		}
	}
}

// TestStatelessAdd wires stage 0's stateless ALU 0 to compute c0+c1 and
// writes it to container 0.
func TestStatelessAdd(t *testing.T) {
	s := testSpec(t, 1, 2, "")
	code := identityCode(t, &s)
	// stateless_full: alu_op(Mux3(pkt_0,pkt_1,C()), Mux3(pkt_0,pkt_1,C()))
	set := func(hole string, v int64) {
		code.Set(machinecode.ALUHoleName(0, false, 0, hole), v)
	}
	code.Set(machinecode.OperandMuxName(0, false, 0, 0), 0) // operand 0 <- container 0
	code.Set(machinecode.OperandMuxName(0, false, 0, 1), 1) // operand 1 <- container 1
	set("alu_op_0", 0)                                      // add
	set("mux3_0", 0)                                        // a = pkt_0
	set("mux3_1", 1)                                        // b = pkt_1
	code.Set(machinecode.OutputMuxName(0, 0), 1)            // container 0 <- stateless ALU 0

	for _, level := range paperLevels {
		p, err := Build(s, code, level)
		if err != nil {
			t.Fatalf("Build(%v): %v", level, err)
		}
		out, err := p.Process(phv.FromValues([]phv.Value{30, 12}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Get(0) != 42 {
			t.Errorf("%v: container 0 = %d, want 42", level, out.Get(0))
		}
		if out.Get(1) != 12 {
			t.Errorf("%v: container 1 = %d, want 12 (pass-through)", level, out.Get(1))
		}
	}
}

// counterCode configures a 1x1 pipeline with the raw atom as a running sum
// of container 0, written back to container 0.
func counterCode(t *testing.T, s *Spec) *machinecode.Program {
	code := identityCode(t, s)
	code.Set(machinecode.OperandMuxName(0, true, 0, 0), 0)
	code.Set(machinecode.ALUHoleName(0, true, 0, "mux2_0"), 0)  // add pkt
	code.Set(machinecode.ALUHoleName(0, true, 0, "const_0"), 0) // unused C()
	code.Set(machinecode.OutputMuxName(0, 0), 2)                // width=1: stateful ALU 0
	return code
}

func TestStatefulAccumulatorAcrossPHVs(t *testing.T) {
	s := testSpec(t, 1, 1, "raw")
	code := counterCode(t, &s)
	for _, level := range paperLevels {
		p, err := Build(s, code, level)
		if err != nil {
			t.Fatalf("Build(%v): %v", level, err)
		}
		var want phv.Value
		for _, v := range []phv.Value{5, 10, 1} {
			out, err := p.Process(phv.FromValues([]phv.Value{v}))
			if err != nil {
				t.Fatal(err)
			}
			want += v
			if out.Get(0) != want {
				t.Errorf("%v: running sum = %d, want %d", level, out.Get(0), want)
			}
		}
		snap := p.StateSnapshot()
		if snap[0][0][0] != want {
			t.Errorf("%v: state snapshot = %d, want %d", level, snap[0][0][0], want)
		}
		p.ResetState()
		if p.StateSnapshot()[0][0][0] != 0 {
			t.Errorf("%v: ResetState did not zero state", level)
		}
	}
}

func TestSetState(t *testing.T) {
	s := testSpec(t, 1, 1, "raw")
	p, err := Build(s, counterCode(t, &s), SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetState(0, 0, []phv.Value{100}); err != nil {
		t.Fatal(err)
	}
	out, err := p.Process(phv.FromValues([]phv.Value{1}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Get(0) != 101 {
		t.Errorf("sum after SetState = %d, want 101", out.Get(0))
	}
	if err := p.SetState(0, 0, []phv.Value{1, 2}); err == nil {
		t.Error("SetState accepted wrong-length state")
	}
	if err := p.SetState(9, 0, nil); err == nil {
		t.Error("SetState accepted bad stage")
	}
}

func TestSpecNormalization(t *testing.T) {
	bad := []Spec{
		{Depth: 0, Width: 1, StatelessALU: atoms.MustLoad("stateless_full")},
		{Depth: 1, Width: 0, StatelessALU: atoms.MustLoad("stateless_full")},
		{Depth: 1, Width: 1},
		{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("raw")}, // wrong kind
		{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full"), StatefulALU: atoms.MustLoad("stateless_mux")},
	}
	for i, s := range bad {
		if _, err := s.RequiredPairs(); err == nil {
			t.Errorf("spec %d: RequiredPairs succeeded, want error", i)
		}
	}
}

func TestProcessWrongPHVLen(t *testing.T) {
	s := testSpec(t, 1, 2, "")
	p, err := Build(s, identityCode(t, &s), SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(phv.New(3)); err == nil {
		t.Error("Process accepted wrong-length PHV")
	}
}

// randomValidCode fills every required pair with a uniform in-domain value
// (immediates bounded to small constants).
func randomValidCode(t *testing.T, s *Spec, rng *rand.Rand) *machinecode.Program {
	t.Helper()
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		if h.Domain > 0 {
			code.Set(h.Name, int64(rng.Intn(h.Domain)))
		} else {
			code.Set(h.Name, int64(rng.Intn(32)))
		}
	}
	return code
}

// TestEngineEquivalence is the pipeline-level analogue of the opt package's
// property test: all three engines produce identical traces and state for
// random machine code on random input PHVs, across several grid sizes and
// atoms (this is exactly what Table 1 relies on).
func TestEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	grids := []struct {
		depth, width int
		atom         string
	}{
		{1, 1, "pair"},
		{2, 1, "if_else_raw"},
		{2, 2, "pred_raw"},
		{3, 3, "nested_ifs"},
		{4, 2, "sub"},
		{3, 5, "raw"},
	}
	for _, g := range grids {
		s := testSpec(t, g.depth, g.width, g.atom)
		for trial := 0; trial < 8; trial++ {
			code := randomValidCode(t, &s, rng)
			p1, err := Build(s, code, Unoptimized)
			if err != nil {
				t.Fatalf("%dx%d %s: Build v1: %v", g.depth, g.width, g.atom, err)
			}
			p2, err := Build(s, code, SCCPropagation)
			if err != nil {
				t.Fatalf("Build v2: %v", err)
			}
			p3, err := Build(s, code, SCCInlining)
			if err != nil {
				t.Fatalf("Build v3: %v", err)
			}
			for step := 0; step < 12; step++ {
				vals := make([]phv.Value, p1.PHVLen())
				for i := range vals {
					vals[i] = int64(rng.Intn(1 << 12))
				}
				in := phv.FromValues(vals)
				o1, err1 := p1.Process(in.Clone())
				o2, err2 := p2.Process(in.Clone())
				o3, err3 := p3.Process(in.Clone())
				if err1 != nil || err2 != nil || err3 != nil {
					t.Fatalf("%dx%d %s trial %d: %v / %v / %v", g.depth, g.width, g.atom, trial, err1, err2, err3)
				}
				if !o1.Equal(o2) || !o2.Equal(o3) {
					t.Fatalf("%dx%d %s trial %d step %d: engines diverge:\nin=%s\nv1=%s\nv2=%s\nv3=%s",
						g.depth, g.width, g.atom, trial, step, in, o1, o2, o3)
				}
			}
			if !p1.StateSnapshot().Equal(p2.StateSnapshot()) || !p2.StateSnapshot().Equal(p3.StateSnapshot()) {
				t.Fatalf("%dx%d %s trial %d: final state diverges", g.depth, g.width, g.atom, trial)
			}
		}
	}
}

func TestOptLevelStrings(t *testing.T) {
	want := map[OptLevel]string{
		Unoptimized:    "unoptimized",
		SCCPropagation: "scc",
		SCCInlining:    "scc+inline",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(l), l.String(), s)
		}
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]OptLevel{
		"unoptimized": Unoptimized, "v1": Unoptimized, "0": Unoptimized,
		"scc": SCCPropagation, "v2": SCCPropagation, "1": SCCPropagation,
		"scc+inline": SCCInlining, "inline": SCCInlining, "v3": SCCInlining, "2": SCCInlining,
		"compiled": Compiled, "v4": Compiled, "3": Compiled,
	}
	for name, want := range cases {
		got, err := ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLevel("turbo"); err == nil {
		t.Error("unknown level accepted")
	}
}
