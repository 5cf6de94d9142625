package druzhba_test

import (
	"context"
	"strings"
	"testing"

	"druzhba"
)

const samplingDomino = `
state count = 0;

transaction {
    if (count == 9) {
        count = 0;
        pkt.sample = 1;
    } else {
        count = count + 1;
        pkt.sample = 0;
    }
}
`

func identityConfig() druzhba.Config {
	return druzhba.Config{Depth: 1, Width: 1}
}

func identityCode(t *testing.T, cfg druzhba.Config) *druzhba.MachineCode {
	t.Helper()
	req, err := druzhba.RequiredPairs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, h := range req {
		b.WriteString(h.Name + " = 0\n")
	}
	code, err := druzhba.ParseMachineCode(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestFacadeBuildAndSimulate(t *testing.T) {
	cfg := identityConfig()
	code := identityCode(t, cfg)
	for _, level := range []druzhba.OptLevel{druzhba.Unoptimized, druzhba.SCCPropagation, druzhba.SCCInlining} {
		p, err := druzhba.BuildPipeline(cfg, code, level)
		if err != nil {
			t.Fatalf("BuildPipeline(%v): %v", level, err)
		}
		res, err := druzhba.Simulate(p, 7, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output.Len() != 100 {
			t.Errorf("output length = %d", res.Output.Len())
		}
		if d := res.Input.Diff(res.Output); d != "" {
			t.Errorf("identity pipeline: %s", d)
		}
	}
}

func TestFacadeValidate(t *testing.T) {
	cfg := identityConfig()
	code := identityCode(t, cfg)
	errs, err := druzhba.ValidateMachineCode(cfg, code)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Errorf("identity code invalid: %v", errs)
	}
}

func TestFacadeDominoFuzz(t *testing.T) {
	// Hand the facade the sampling benchmark: 2x1 if_else_raw.
	cfg := druzhba.Config{Depth: 2, Width: 1, StatefulAtom: "if_else_raw"}
	code := identityCode(t, cfg)
	// Configure the counter and the equality check (same machine code as
	// the spec package's sampling fixture) over the identity configuration:
	// a parsed file names each pair once, so the overrides are merged.
	overrides, err := druzhba.ParseMachineCode(strings.NewReader(`
pipeline_stage_0_stateful_alu_0_rel_op_0 = 0
pipeline_stage_0_stateful_alu_0_mux3_0 = 2
pipeline_stage_0_stateful_alu_0_const_0 = 9
pipeline_stage_0_stateful_alu_0_opt_1 = 1
pipeline_stage_0_stateful_alu_0_mux3_1 = 2
pipeline_stage_0_stateful_alu_0_const_1 = 0
pipeline_stage_0_stateful_alu_0_opt_2 = 0
pipeline_stage_0_stateful_alu_0_mux3_2 = 2
pipeline_stage_0_stateful_alu_0_const_2 = 1
pipeline_stage_0_output_mux_phv_0 = 2
pipeline_stage_1_stateless_alu_0_alu_op_0 = 5
pipeline_stage_1_stateless_alu_0_mux3_0 = 0
pipeline_stage_1_stateless_alu_0_mux3_1 = 2
pipeline_stage_1_stateless_alu_0_const_1 = 0
pipeline_stage_1_output_mux_phv_0 = 1
`))
	if err != nil {
		t.Fatal(err)
	}
	code.Merge(overrides)
	p, err := druzhba.BuildPipeline(cfg, code, druzhba.SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := druzhba.ParseDominoSpec(samplingDomino, map[string]int{"sample": 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := druzhba.FuzzPipeline(p, spec, 3, 1000, 0, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("sampling fuzz failed: %s", rep)
	}
}

func TestFacadeRunDRMTCampaign(t *testing.T) {
	rep, err := druzhba.RunDRMTCampaign(context.Background(), 500, druzhba.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || len(rep.Jobs) < 3 {
		t.Fatalf("dRMT campaign: passed=%v jobs=%d:\n%s", rep.Passed, len(rep.Jobs), rep.Text(false))
	}
	for i := range rep.Jobs {
		if rep.Jobs[i].Arch != "drmt" {
			t.Fatalf("job %s arch = %q, want drmt", rep.Jobs[i].Name, rep.Jobs[i].Arch)
		}
	}
}

func TestFacadeGenerateSource(t *testing.T) {
	cfg := identityConfig()
	code := identityCode(t, cfg)
	src, err := druzhba.GeneratePipelineSource(cfg, code, druzhba.SCCInlining, "demo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package demo") || !strings.Contains(src, "func Execute(") {
		t.Errorf("generated source malformed:\n%s", src)
	}
}

func TestFacadeSynthesize(t *testing.T) {
	cfg := identityConfig()
	spec, err := druzhba.ParseDominoSpec(`
transaction {
    pkt.v = pkt.v + 1;
}
`, map[string]int{"v": 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := druzhba.Synthesize(cfg, spec, druzhba.SynthesizeOptions{Seed: 1, MaxIters: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatalf("plus-one not synthesized (%d iterations)", res.Iterations)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := druzhba.BuildPipeline(druzhba.Config{}, nil, druzhba.Unoptimized); err == nil {
		t.Error("BuildPipeline accepted empty config")
	}
	if _, err := druzhba.RequiredPairs(druzhba.Config{Depth: 1, Width: 1, StatefulAtom: "nope"}); err == nil {
		t.Error("unknown atom accepted")
	}
	if _, err := druzhba.RequiredPairs(druzhba.Config{Depth: 1, Width: 1, Bits: 99}); err == nil {
		t.Error("invalid bit width accepted")
	}
	if len(druzhba.AtomNames()) != 11 {
		t.Errorf("AtomNames = %v", druzhba.AtomNames())
	}
}

// TestFacadeProve exercises the formal-verification facade: the identity
// machine code is proved equivalent to the identity specification, and a
// corrupted pipeline (ALU output instead of passthrough) is refuted with a
// counterexample.
func TestFacadeProve(t *testing.T) {
	cfg := identityConfig()
	code := identityCode(t, cfg)
	spec := `transaction { pkt.a = pkt.a; }`
	fields := map[string]int{"a": 0}

	res, err := druzhba.Prove(cfg, code, spec, fields, druzhba.VerifyOptions{Bits: 6, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("identity should prove: %v", res)
	}

	// Route container 0 through the stateless ALU (which computes
	// pkt_0 + pkt_0 with all-zero machine code): no longer the identity.
	bad := code.Clone()
	bad.Set("pipeline_stage_0_output_mux_phv_0", 1)
	res, err = druzhba.Prove(cfg, bad, spec, fields, druzhba.VerifyOptions{Bits: 6, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent {
		t.Fatal("doubled output should be refuted")
	}
	if res.Counterexample == nil || res.Counterexample.Len() != 1 {
		t.Fatalf("refutation must carry a 1-step counterexample: %v", res)
	}
	in := res.Counterexample.At(0).Get(0)
	if (in+in)&0x3f == in {
		t.Fatalf("counterexample input %d does not separate a from a+a at 6 bits", in)
	}
}

// TestFacadeProveParseErrors covers the facade's error paths.
func TestFacadeProveParseErrors(t *testing.T) {
	cfg := identityConfig()
	code := identityCode(t, cfg)
	if _, err := druzhba.Prove(cfg, code, "not domino {", map[string]int{}, druzhba.VerifyOptions{}); err == nil {
		t.Fatal("bad Domino source should error")
	}
	if _, err := druzhba.Prove(druzhba.Config{Depth: 0, Width: 1}, code, `transaction { pkt.a = pkt.a; }`,
		map[string]int{"a": 0}, druzhba.VerifyOptions{}); err == nil {
		t.Fatal("bad config should error")
	}
}
