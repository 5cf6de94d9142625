package verify

import (
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/spec"
	"druzhba/internal/verify/verifytest"
)

// zeroCode returns machine code with every required pair set to 0 (output
// muxes pass through, operand muxes select container 0, opcodes are the
// 0th choice).
func zeroCode(t *testing.T, s core.Spec) *machinecode.Program {
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

func mustDomino(t *testing.T, src string) *domino.Program {
	t.Helper()
	p, err := domino.Parse(src)
	if err != nil {
		t.Fatalf("domino parse: %v", err)
	}
	return p
}

// TestIdentityPipelineMatchesIdentitySpec: all-zero machine code passes
// every container through; the identity spec must be proven equivalent at
// full width.
func TestIdentityPipelineMatchesIdentitySpec(t *testing.T) {
	s := core.Spec{Depth: 2, Width: 2, StatelessALU: atoms.MustLoad("stateless_full")}
	code := zeroCode(t, s)
	prog := mustDomino(t, `transaction { pkt.a = pkt.a; }`)
	res, err := Equivalence(s, code, prog, domino.FieldMap{"a": 0}, Options{Bits: 8, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("identity should be equivalent: %v", res)
	}
}

// rangeLimitedSetup builds the §5.2 failure class: machine code that is
// correct only for a limited range of inputs. The spec is the identity on
// pkt.a; the machine code computes pkt.a && pkt.a, which equals pkt.a only
// for values in {0, 1} — the kind of artifact a synthesizer verified at
// too small a bit width emits.
func rangeLimitedSetup(t *testing.T) (core.Spec, *machinecode.Program, *domino.Program, domino.FieldMap) {
	t.Helper()
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full")}
	code := zeroCode(t, s)
	setALUHole(t, code, 0, false, 0, "alu_op_0", aludsl.ALUOpAnd)
	code.Set(machinecode.OutputMuxName(0, 0), 1) // stateless ALU output
	prog := mustDomino(t, `transaction { pkt.a = pkt.a; }`)
	return s, code, prog, domino.FieldMap{"a": 0}
}

// TestRangeLimitedMachineCode reproduces the §5.2 failure class formally.
// At 1 bit the machine code is provably correct; at 10 bits the verifier
// must produce an input >= 2 as a counterexample — exactly the "machine
// code only satisfied a limited range of values ... failing for large PHV
// container values" failure the paper's case study found at 10-bit inputs.
func TestRangeLimitedMachineCode(t *testing.T) {
	s, code, prog, fm := rangeLimitedSetup(t)

	res, err := Equivalence(s, code, prog, fm, Options{Bits: 1, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("1-bit proof should succeed: %v", res)
	}

	res, err = Equivalence(s, code, prog, fm, Options{Bits: 10, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent || res.Unknown {
		t.Fatalf("10-bit check should refute: %v", res)
	}
	in := res.Counterexample.At(res.FailStep).Get(0)
	if in < 2 {
		t.Fatalf("counterexample input %d should be >= 2", in)
	}
	if res.PipelineOut.Get(0) == res.SpecOut.Get(0) {
		t.Fatal("reported outputs do not differ")
	}
}

// TestInputConstraintsRestoreEquivalence exercises §7's "PHV and state
// value constraints": the same range-limited machine code becomes provably
// correct once the inputs are constrained to {0, 1}.
func TestInputConstraintsRestoreEquivalence(t *testing.T) {
	s, code, prog, fm := rangeLimitedSetup(t)

	res, err := Equivalence(s, code, prog, fm, Options{Bits: 10, Steps: 2, MaxInput: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("constrained proof should succeed: %v", res)
	}
}

// counterALU is a custom stateful ALU whose update and output immediates
// are independent machine code holes.
const counterALU = `
type: stateful
state variables: {state_0}
hole variables: {}
packet fields: {pkt_0}
state_0 = state_0 + C();
return state_0 + C();
`

// TestStatefulBugNeedsTwoSteps: machine code that produces the right
// output for the first packet but corrupts state, so only the second
// transaction exposes the bug. Steps=1 proves (vacuously), Steps=2
// refutes — demonstrating why the unrolling depth matters.
func TestStatefulBugNeedsTwoSteps(t *testing.T) {
	stateful, err := domino.Parse(`
state c = 0;
transaction {
    c = c + 1;
    pkt.f = c;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	alu := mustParseALU(t, counterALU)
	s := core.Spec{
		Depth: 1, Width: 1,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  alu,
	}
	code := zeroCode(t, s)
	// Output mux for container 0 selects the stateful ALU (width+1 = 2).
	code.Set(machinecode.OutputMuxName(0, 0), 2)
	// Update adds 2 per packet; output compensates with +15 (== -1 mod 16)
	// so the first packet's output is 0+2+15 = 1 == spec's c = 1. The
	// second packet sees corrupted state: pipeline 2+2+15 = 3, spec 2.
	setALUHole(t, code, 0, true, 0, "const_0", 2)
	setALUHole(t, code, 0, true, 0, "const_1", 15)
	fm := domino.FieldMap{"f": 0}

	res, err := Equivalence(s, code, stateful, fm, Options{Bits: 4, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("single transaction should be indistinguishable: %v", res)
	}

	res, err = Equivalence(s, code, stateful, fm, Options{Bits: 4, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("two transactions should expose the state corruption")
	}
	if res.FailStep != 1 {
		t.Fatalf("bug should surface at the second transaction, got step %d", res.FailStep)
	}
}

// TestCorrectCounterProves: with the honest immediates (update +1, output
// +0) the same ALU provably implements the counter at full 8-bit width.
func TestCorrectCounterProves(t *testing.T) {
	prog := mustDomino(t, `
state c = 0;
transaction {
    c = c + 1;
    pkt.f = c;
}
`)
	alu := mustParseALU(t, counterALU)
	s := core.Spec{
		Depth: 1, Width: 1,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  alu,
	}
	code := zeroCode(t, s)
	code.Set(machinecode.OutputMuxName(0, 0), 2)
	setALUHole(t, code, 0, true, 0, "const_0", 1)
	setALUHole(t, code, 0, true, 0, "const_1", 0)
	res, err := Equivalence(s, code, prog, domino.FieldMap{"f": 0}, Options{Bits: 8, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("correct counter should prove: %v", res)
	}
}

// TestMissingPairRejected: incompatible machine code (§5.2's first failure
// class) is a build-time error, not a proof.
func TestMissingPairRejected(t *testing.T) {
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full")}
	code := zeroCode(t, s)
	code.Delete(machinecode.OutputMuxName(0, 0))
	prog := mustDomino(t, `transaction { pkt.a = pkt.a; }`)
	_, err := Equivalence(s, code, prog, domino.FieldMap{"a": 0}, Options{Bits: 4})
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("want incompatibility error, got %v", err)
	}
}

func TestUnboundFieldRejected(t *testing.T) {
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: atoms.MustLoad("stateless_full")}
	code := zeroCode(t, s)
	prog := mustDomino(t, `transaction { pkt.a = pkt.b; }`)
	_, err := Equivalence(s, code, prog, domino.FieldMap{"a": 0}, Options{Bits: 4})
	if err == nil || !strings.Contains(err.Error(), "not bound") {
		t.Fatalf("want binding error, got %v", err)
	}
}

// TestSamplingBenchmarkProves formally verifies the Table 1 "sampling"
// machine code fixture at 5 bits over 3 transactions — upgrading the Fig. 5
// fuzz result to a proof.
func TestSamplingBenchmarkProves(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	res := proveBenchmark(t, bm, Options{Bits: 5, Steps: 3})
	if !res.Equivalent {
		t.Fatalf("sampling fixture should prove: %v", res)
	}
}

// TestCorruptedSamplingRefuted flips the sampling fixture's rel_op from ==
// to != and expects a counterexample whose concrete replay (done inside
// Equivalence) confirms the divergence.
func TestCorruptedSamplingRefuted(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	hw, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	name := machinecode.ALUHoleName(0, true, 0, "rel_op_0")
	v, ok := code.Get(name)
	if !ok {
		t.Fatalf("fixture is missing %q", name)
	}
	code.Set(name, 1-v) // RelEq <-> RelNe
	prog, err := bm.DominoProgram()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Equivalence(hw, code, prog, bm.Fields, Options{Bits: 5, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("corrupted rel_op should be refuted")
	}
	if res.Counterexample == nil || res.PipelineOut == nil {
		t.Fatal("refutation must carry a counterexample")
	}
}

func proveBenchmark(t *testing.T, bm *spec.Benchmark, opts Options) *Result {
	t.Helper()
	hw, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.DominoProgram()
	if err != nil {
		t.Fatal(err)
	}
	if bm.MaxInput > 0 && opts.MaxInput == 0 {
		opts.MaxInput = bm.MaxInput
	}
	res, err := Equivalence(hw, code, prog, bm.Fields, opts)
	if err != nil {
		t.Fatalf("%s: %v", bm.Name, err)
	}
	return res
}

// TestAllBenchmarksSound runs the verifier over every Table 1 fixture at 4
// bits. Fixtures need not all prove at reduced width (immediates beyond
// the mask wrap), but every verdict must be sound: a refutation's
// counterexample is concretely replayed inside Equivalence, and this test
// additionally confirms the divergence with the fuzz harness's comparison.
func TestAllBenchmarksSound(t *testing.T) {
	proved := 0
	for _, bm := range spec.All() {
		res := proveBenchmark(t, bm, Options{Bits: 4, Steps: 2})
		switch {
		case res.Unknown:
			t.Errorf("%s: solver gave up", bm.Name)
		case res.Equivalent:
			proved++
		default:
			// Soundness: outputs at the failing step must really differ.
			containers, err := bm.CompareContainers()
			if err != nil {
				t.Fatal(err)
			}
			diff := false
			for _, c := range containers {
				if res.PipelineOut.Get(c) != res.SpecOut.Get(c) {
					diff = true
				}
			}
			if !diff {
				t.Errorf("%s: counterexample does not diverge on compared containers", bm.Name)
			}
			t.Logf("%s: refuted at reduced width (expected for fixtures with large immediates): %v", bm.Name, res)
		}
	}
	if proved < 6 {
		t.Errorf("only %d/12 fixtures proved at 4 bits; expected most to be width-agnostic", proved)
	}
}

// TestVerifierAgreesWithExhaustiveCheck is the verifier's own
// cross-validation: random mutations of the sampling machine code are
// judged both by the symbolic verifier and by exhaustive concrete
// enumeration of every input trace at 3 bits; the verdicts must agree.
func TestVerifierAgreesWithExhaustiveCheck(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	hw, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	baseCode, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.DominoProgram()
	if err != nil {
		t.Fatal(err)
	}
	req, err := hw.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}

	const bits = 3
	const steps = 2
	rng := rand.New(rand.NewSource(11))
	tested := 0
	for iter := 0; tested < 25 && iter < 200; iter++ {
		code := baseCode.Clone()
		// Mutate one machine code pair within its valid domain.
		h := req[rng.Intn(len(req))]
		var nv int64
		if h.Domain > 0 {
			nv = rng.Int63n(int64(h.Domain))
		} else {
			nv = rng.Int63n(8)
		}
		code.Set(h.Name, nv)

		w := phv.MustWidth(bits)
		hwAt := hw
		hwAt.Bits = w
		if errs := (&hwAt).Validate(code); len(errs) > 0 {
			continue // mutation made the code incompatible; not this test's subject
		}
		tested++

		res, err := Equivalence(hw, code, prog, bm.Fields, Options{Bits: bits, Steps: steps})
		if err != nil {
			t.Fatalf("iter %d (%s=%d): %v", iter, h.Name, nv, err)
		}
		want, err := exhaustiveEquivalent(hwAt, code, prog, bm.Fields, bits, steps)
		if err != nil {
			t.Fatalf("iter %d: exhaustive check: %v", iter, err)
		}
		if res.Equivalent != want {
			t.Fatalf("iter %d (%s=%d): verifier says equivalent=%v, exhaustive says %v",
				iter, h.Name, nv, res.Equivalent, want)
		}
	}
	if tested < 10 {
		t.Fatalf("only %d mutations tested", tested)
	}
}

// exhaustiveEquivalent enumerates every input trace of the given length at
// the given width and compares pipeline and spec concretely.
func exhaustiveEquivalent(hw core.Spec, code *machinecode.Program, prog *domino.Program, fm domino.FieldMap, bits, steps int) (bool, error) {
	w := phv.MustWidth(bits)
	hw.Bits = w
	if hw.PHVLen == 0 {
		hw.PHVLen = hw.Width
	}
	containers, err := domino.WrittenContainers(prog, fm)
	if err != nil {
		return false, err
	}
	n := int64(1) << uint(bits*hw.PHVLen*steps)
	for m := int64(0); m < n; m++ {
		p, err := core.Build(hw, code, core.SCCInlining)
		if err != nil {
			return false, err
		}
		dspec, err := domino.NewPHVSpec(prog, fm, w)
		if err != nil {
			return false, err
		}
		x := m
		for s := 0; s < steps; s++ {
			vals := make([]phv.Value, hw.PHVLen)
			for c := range vals {
				vals[c] = x & w.Mask()
				x >>= uint(bits)
			}
			in := phv.FromValues(vals)
			got, err := p.Process(in.Clone())
			if err != nil {
				return false, err
			}
			want, err := dspec.Process(in.Clone())
			if err != nil {
				return false, err
			}
			for _, c := range containers {
				if got.Get(c) != want.Get(c) {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

func mustParseALU(t *testing.T, src string) *aludsl.Program {
	t.Helper()
	p, err := aludsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func setALUHole(t *testing.T, code *machinecode.Program, stage int, stateful bool, slot int, hole string, v int64) {
	t.Helper()
	code.Set(machinecode.ALUHoleName(stage, stateful, slot, hole), v)
}

// TestStateBindingsExposeCorruption: with Options.StateBindings, the
// state-corrupting machine code of TestStatefulBugNeedsTwoSteps is caught
// after a single transaction — the output matches but the bound state
// value does not (§3.3: specs capture behaviour "on both PHVs and state
// values").
func TestStateBindingsExposeCorruption(t *testing.T) {
	prog := mustDomino(t, `
state c = 0;
transaction {
    c = c + 1;
    pkt.f = c;
}
`)
	alu := mustParseALU(t, counterALU)
	s := core.Spec{
		Depth: 1, Width: 1,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  alu,
	}
	code := zeroCode(t, s)
	code.Set(machinecode.OutputMuxName(0, 0), 2)
	setALUHole(t, code, 0, true, 0, "const_0", 2)  // corrupts state (+2)
	setALUHole(t, code, 0, true, 0, "const_1", 15) // hides it in the output
	fm := domino.FieldMap{"f": 0}
	bindings := map[string]StateLoc{"c": {Stage: 0, Slot: 0, Index: 0}}

	// Without bindings one transaction cannot tell them apart.
	res, err := Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("outputs alone should not distinguish: %v", res)
	}

	// With bindings the corrupted state is a counterexample immediately.
	res, err = Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 1, StateBindings: bindings})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("state binding should expose the corruption")
	}
	if !res.StateDiverged {
		t.Fatalf("divergence should be in state, got %v", res)
	}
	if res.PipelineState["c"] == res.SpecState["c"] {
		t.Fatalf("reported state values do not differ: %v", res)
	}

	// The honest immediates prove including state.
	good := zeroCode(t, s)
	good.Set(machinecode.OutputMuxName(0, 0), 2)
	setALUHole(t, good, 0, true, 0, "const_0", 1)
	setALUHole(t, good, 0, true, 0, "const_1", 0)
	res, err = Equivalence(s, good, prog, fm, Options{Bits: 4, Steps: 2, StateBindings: bindings})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("honest counter should prove with state bindings: %v", res)
	}
}

// TestStateBindingsValidation covers the error paths of state bindings.
func TestStateBindingsValidation(t *testing.T) {
	prog := mustDomino(t, `
state c = 0;
transaction {
    c = c + 1;
    pkt.f = c;
}
`)
	alu := mustParseALU(t, counterALU)
	s := core.Spec{
		Depth: 1, Width: 1,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  alu,
	}
	code := zeroCode(t, s)
	code.Set(machinecode.OutputMuxName(0, 0), 2)
	setALUHole(t, code, 0, true, 0, "const_0", 1)
	fm := domino.FieldMap{"f": 0}

	if _, err := Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 1,
		StateBindings: map[string]StateLoc{"nosuch": {}}}); err == nil {
		t.Fatal("unknown Domino state should error")
	}
	if _, err := Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 1,
		StateBindings: map[string]StateLoc{"c": {Stage: 9}}}); err == nil {
		t.Fatal("out-of-range state location should error")
	}
}

// emptyComparison is the error text of a question that compares nothing.
const emptyComparison = "verify: nothing to compare: the Domino program writes no packet field and no state is bound (Options.StateBindings, dverify -state), so any machine code would be proved"

// TestEmptyComparisonIsAnError: a program that writes only state used to be
// PROVED against any machine code — the miter was the constant false. With
// nothing to compare the verifier now refuses the question, and binding the
// state makes it a real one: machine code that adds pkt.a is proved, machine
// code that adds its immediate instead is refuted on the state.
func TestEmptyComparisonIsAnError(t *testing.T) {
	s, code, prog, fm := verifytest.StateOnly()
	_, err := Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 2})
	if err == nil || err.Error() != emptyComparison {
		t.Fatalf("state-only program without bindings: err = %v, want %q", err, emptyComparison)
	}
	// An explicitly empty container list is the same question.
	if _, err := Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 2, Containers: []int{}}); err == nil || err.Error() != emptyComparison {
		t.Fatalf("empty container list: err = %v, want %q", err, emptyComparison)
	}

	bindings := map[string]StateLoc{"count": {Stage: 0, Slot: 0, Index: 0}}
	res, err := Equivalence(s, code, prog, fm, Options{Bits: 4, Steps: 2, StateBindings: bindings})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("state_0 += pkt_0 implements count += pkt.a: %v", res)
	}
	wrong := code.Clone()
	setALUHole(t, wrong, 0, true, 0, "mux2_0", 1) // state_0 += C(), the immediate 0
	if _, err := Equivalence(s, wrong, prog, fm, Options{Bits: 4, Steps: 2}); err == nil || err.Error() != emptyComparison {
		t.Fatalf("wrong machine code without bindings: err = %v, want %q", err, emptyComparison)
	}
	res, err = Equivalence(s, wrong, prog, fm, Options{Bits: 4, Steps: 2, StateBindings: bindings})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent || !res.StateDiverged {
		t.Fatalf("state_0 += 0 does not implement count += pkt.a: %v", res)
	}
}

// TestSpecThatCanFailIsNeverProved: a specification that fails on some
// input the question admits is not proved, whatever the pipeline does. Read
// as 0, the unassigned local would make this one equal to the pass-through
// pipeline; the lowered program a fuzz shard runs fails on every input, and
// the proof returns that failure.
func TestSpecThatCanFailIsNeverProved(t *testing.T) {
	s, code, prog, fm, containers, maxInput := verifytest.CanFail()
	res, err := Equivalence(s, code, prog, fm, Options{Bits: 2, Steps: 1, Containers: containers, MaxInput: maxInput})
	const want = `verify: spec "can-fail", transaction 0: domino: local "x" read before assignment`
	if err == nil || err.Error() != want {
		t.Fatalf("got %v, error %v; want the error %q", res, err, want)
	}
}

// TestSpecThatFailsLaterIsNeverProved: a specification that can fail only
// in its second transaction — a local assigned in the first, while the state
// is 0, and read in every one — is proved over one transaction and never over
// two, because each run starts with the locals' "assigned" flags at zero
// (Linked.Clear), as a PHVSpec starts each packet.
func TestSpecThatFailsLaterIsNeverProved(t *testing.T) {
	s := core.Spec{Depth: 1, Width: 1, PHVLen: 2, StatelessALU: atoms.MustLoad("stateless_full")}
	code := zeroCode(t, s) // every container passes through
	prog := mustDomino(t, `state s = 0;
transaction { if (s == 0) { int x = 1; s = 1; } pkt.b = pkt.b + 0 * x; }`)
	fm := domino.FieldMap{"b": 1}
	if res, err := Equivalence(s, code, prog, fm, Options{Bits: 2, Steps: 1}); err != nil || !res.Equivalent {
		t.Fatalf("one transaction: %v, %v; want a proof", res, err)
	}
	res, err := Equivalence(s, code, prog, fm, Options{Bits: 2, Steps: 2})
	const want = `verify: spec "domino", transaction 1: domino: local "x" read before assignment`
	if err == nil || err.Error() != want {
		t.Fatalf("two transactions: %v, error %v; want the error %q", res, err, want)
	}
}

// TestResultString pins the four renderings dverify prints: an exhausted
// budget, a proof, a state divergence and a counterexample transaction.
func TestResultString(t *testing.T) {
	prove := func(s core.Spec, code *machinecode.Program, prog *domino.Program, fm domino.FieldMap, opts Options) string {
		t.Helper()
		res, err := Equivalence(s, code, prog, fm, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}
	hw, code, prog, fm := verifytest.CommutedMul()
	unknown := prove(hw, code, prog, fm, Options{Bits: 5, Steps: 1, MaxConflicts: 100})
	s, code, prog, fm := rangeLimitedSetup(t)
	proved := prove(s, code, prog, fm, Options{Bits: 1, Steps: 1})
	refuted := prove(s, code, prog, fm, Options{Bits: 10, Steps: 1})
	s, code, prog, fm = verifytest.StateOnly()
	wrong := code.Clone()
	setALUHole(t, wrong, 0, true, 0, "mux2_0", 1) // state_0 += C(), the immediate 0
	diverged := prove(s, wrong, prog, fm, Options{Bits: 4, Steps: 2, StateBindings: map[string]StateLoc{"count": {}}})
	for _, c := range []struct{ got, want string }{
		{unknown, "UNKNOWN: solver budget exhausted (5-bit, 1 steps)"},
		{proved, "PROVED: pipeline ≡ spec for all 1-bit inputs over 1 transactions (1 vars, 0 conflicts)"},
		{diverged, "COUNTEREXAMPLE: after transaction 1: state diverged: pipeline map[count:0], spec map[count:13]"},
		{refuted, "COUNTEREXAMPLE: transaction 0: input [2]: pipeline [1], spec [2]"},
	} {
		if c.got != c.want {
			t.Errorf("got  %s\nwant %s", c.got, c.want)
		}
	}
}
