package synth

import (
	"testing"

	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
)

func smallSpec(width int, statefulAtom string) core.Spec {
	s := core.Spec{
		Depth:        1,
		Width:        width,
		StatelessALU: atoms.MustLoad("stateless_full"),
	}
	if statefulAtom != "" {
		s.StatefulALU = atoms.MustLoad(statefulAtom)
	}
	return s
}

func TestSynthesizeIdentity(t *testing.T) {
	spec := smallSpec(1, "")
	target := &sim.SpecFunc{SpecName: "identity", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		return in.Clone(), nil
	}}
	res, err := Synthesize(spec, target, Options{Seed: 1, MaxIters: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("identity not synthesized in %d iterations", res.Iterations)
	}
	// The result must also hold on wide inputs (identity is exact).
	rep, err := Validate(spec, res.Code, target, 20, 99, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("identity fails at 20-bit inputs: %s", rep)
	}
}

func TestSynthesizePlusOne(t *testing.T) {
	spec := smallSpec(1, "")
	target := &sim.SpecFunc{SpecName: "plus-one", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		out.Set(0, phv.Default32.Add(out.Get(0), 1))
		return out, nil
	}}
	res, err := Synthesize(spec, target, Options{Seed: 2, MaxIters: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("plus-one not synthesized in %d iterations", res.Iterations)
	}
	rep, err := Validate(spec, res.Code, target, 16, 7, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("plus-one fails at 16-bit inputs: %s", rep)
	}
}

// TestSynthesizeRunningSum targets the raw atom: out = running sum of c0.
func TestSynthesizeRunningSum(t *testing.T) {
	spec := smallSpec(1, "raw")
	prog := domino.MustParse(`
state s = 0;

transaction {
    s = s + pkt.v;
    pkt.v = s;
}
`)
	prog.Name = "running-sum"
	target, err := domino.NewPHVSpec(prog, domino.FieldMap{"v": 0}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(spec, target, Options{Seed: 3, MaxIters: 120000, TracePackets: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("running sum not synthesized in %d iterations", res.Iterations)
	}
	rep, err := Validate(spec, res.Code, target, 12, 5, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("running sum fails at 12-bit inputs: %s", rep)
	}
}

// TestLowBitWidthFailureMode reproduces the §5.2 failure class: synthesis at
// 2-bit verification accepts machine code that cannot distinguish the
// branches a threshold of 4 would take, so validation at 10-bit inputs
// (values over 100 included) fails.
func TestLowBitWidthFailureMode(t *testing.T) {
	spec := smallSpec(1, "")
	// Target: out = (in >= 100). On 2-bit inputs (0..3) this is constantly
	// 0, and no immediate in the sketch's domain can express the threshold,
	// so every candidate correct at 2 bits is wrong somewhere in [4,1024).
	target := &sim.SpecFunc{SpecName: "ge-100", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		out.Set(0, phv.Bool(in.Get(0) >= 100))
		return out, nil
	}}
	res, err := Synthesize(spec, target, Options{Seed: 4, VerifyBits: 2, MaxConst: 8, MaxIters: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("synthesis at 2-bit verification should succeed (constant 0 suffices), %d iterations", res.Iterations)
	}
	// The candidate is correct on the verification domain...
	rep2, err := Validate(spec, res.Code, target, 2, 11, 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Passed() {
		t.Fatalf("candidate wrong even at 2-bit inputs: %s", rep2)
	}
	// ...but fails once PHV container values exceed the synthesis range
	// ("pipeline simulation failing for large PHV container values", §5.2).
	rep10, err := Validate(spec, res.Code, target, 10, 11, 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep10.Passed() {
		t.Error("10-bit validation passed; expected the low-bit-width failure mode")
	}
}

// TestCEGISAddsCounterexamples: a target needing values the initial traces
// may miss still converges because verification feeds counterexamples back.
func TestCEGISAddsCounterexamples(t *testing.T) {
	spec := smallSpec(1, "")
	target := &sim.SpecFunc{SpecName: "eq-3", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		out.Set(0, phv.Bool(in.Get(0) == 3))
		return out, nil
	}}
	res, err := Synthesize(spec, target, Options{Seed: 5, VerifyBits: 2, MaxConst: 4, MaxIters: 60000, TracePackets: 8, InitialTraces: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("eq-3 not synthesized in %d iterations", res.Iterations)
	}
	if res.CEGISRounds < 1 {
		t.Errorf("CEGISRounds = %d, want >= 1", res.CEGISRounds)
	}
	rep, err := Validate(spec, res.Code, target, 2, 13, 400, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("eq-3 candidate wrong on verification domain: %s", rep)
	}
}

func TestSynthesizeRespectsBudget(t *testing.T) {
	spec := smallSpec(1, "")
	// Impossible target on this hardware: out depends on input history the
	// stateless pipeline cannot hold.
	hist := int64(0)
	target := &sim.SpecFunc{SpecName: "impossible", Fn: func(in *phv.PHV) (*phv.PHV, error) {
		out := in.Clone()
		hist = hist*31 + in.Get(0) + 1
		out.Set(0, hist&0xff)
		return out, nil
	}}
	res, err := Synthesize(spec, target, Options{Seed: 6, MaxIters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("impossible target reported as synthesized")
	}
	if res.Iterations > 3100 {
		t.Errorf("iterations = %d exceeded budget", res.Iterations)
	}
}

func TestValidateArgumentChecks(t *testing.T) {
	spec := smallSpec(1, "")
	if _, err := Validate(spec, nil, nil, 0, 1, 10, nil); err == nil {
		t.Error("Validate accepted bits=0")
	}
}
