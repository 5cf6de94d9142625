package core

import (
	"math/rand"
	"testing"

	"druzhba/internal/phv"
)

func TestCompiledLevelString(t *testing.T) {
	if Compiled.String() != "compiled" {
		t.Errorf("Compiled.String() = %q", Compiled.String())
	}
	if got := len(AllLevels()); got != 4 {
		t.Errorf("AllLevels() has %d entries, want 4", got)
	}
}

// TestCompiledEngineEquivalence: the lowered ALU bodies of the Compiled
// level's fused grid must agree with the inlined interpreter on random
// machine code, inputs and state, across every atom.
func TestCompiledEngineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	grids := []struct {
		depth, width int
		atom         string
	}{
		{1, 1, "raw"},
		{2, 1, "if_else_raw"},
		{2, 2, "pair"},
		{3, 2, "nested_ifs"},
		{2, 3, "sub"},
		{4, 2, "pred_raw"},
	}
	for _, g := range grids {
		s := testSpec(t, g.depth, g.width, g.atom)
		for trial := 0; trial < 6; trial++ {
			code := randomValidCode(t, &s, rng)
			interp, err := Build(s, code, SCCInlining)
			if err != nil {
				t.Fatalf("%s: %v", g.atom, err)
			}
			compiled, err := Build(s, code, Compiled)
			if err != nil {
				t.Fatalf("%s: Build(Compiled): %v", g.atom, err)
			}
			packets := make([][]phv.Value, 16)
			for step := range packets {
				packets[step] = make([]phv.Value, interp.PHVLen())
				for i := range packets[step] {
					packets[step][i] = int64(rng.Intn(1 << 14))
				}
			}
			got := runFused(compiled.FuseGrid(), compiled, packets)
			for step, vals := range packets {
				a, err := interp.Process(phv.FromValues(vals))
				if err != nil {
					t.Fatalf("%s: %v", g.atom, err)
				}
				if b := phv.FromValues(got[step]); !a.Equal(b) {
					t.Fatalf("%s trial %d step %d: interp %s vs compiled %s (in %v)",
						g.atom, trial, step, a, b, vals)
				}
			}
			if !interp.StateSnapshot().Equal(compiled.StateSnapshot()) {
				t.Fatalf("%s trial %d: state diverges", g.atom, trial)
			}
		}
	}
}

func TestCompiledShortCircuit(t *testing.T) {
	// The lowering must preserve &&/|| short-circuit semantics.
	s := testSpec(t, 1, 2, "")
	code := identityCode(t, &s)
	// allow = (c0 && c1) via the full stateless ALU.
	set := func(hole string, v int64) {
		code.Set("pipeline_stage_0_stateless_alu_0_"+hole, v)
	}
	code.Set("pipeline_stage_0_stateless_alu_0_operand_mux_0", 0)
	code.Set("pipeline_stage_0_stateless_alu_0_operand_mux_1", 1)
	set("alu_op_0", 11) // logical and
	set("mux3_0", 0)
	set("mux3_1", 1)
	code.Set("pipeline_stage_0_output_mux_phv_0", 1)
	p, err := Build(s, code, Compiled)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, b, want phv.Value }{
		{0, 5, 0}, {5, 0, 0}, {5, 7, 1}, {0, 0, 0},
	} {
		out := runFused(p.Cone(), p, [][]phv.Value{{tc.a, tc.b}})[0]
		if out[0] != tc.want {
			t.Errorf("%d && %d = %d, want %d", tc.a, tc.b, out[0], tc.want)
		}
	}
}

func TestCompiledRejectsBadCode(t *testing.T) {
	s := testSpec(t, 1, 1, "raw")
	code := identityCode(t, &s)
	code.Delete("pipeline_stage_0_output_mux_phv_0")
	if _, err := Build(s, code, Compiled); err == nil {
		t.Error("Build(Compiled) accepted missing pair")
	}
}
