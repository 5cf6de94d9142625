package codegen

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
)

// figure6Spec reconstructs the running example of Fig. 6: one stateful ALU
// computing state[0] = arith_op(mux2(phv), mux2(phv)).
func figure6Spec(t *testing.T) (core.Spec, *machinecode.Program) {
	t.Helper()
	statefulSrc := `
type: stateful
state variables: {state_0}
packet fields: {pkt_0, pkt_1}
state_0 = arith_op(Mux2(pkt_0, pkt_1), Mux2(pkt_0, pkt_1));
`
	sf, err := aludsl.Parse(statefulSrc)
	if err != nil {
		t.Fatal(err)
	}
	sf.Name = "figure6"
	spec := core.Spec{
		Depth:        1,
		Width:        1,
		PHVLen:       2,
		StatelessALU: atoms.MustLoad("stateless_const"),
		StatefulALU:  sf,
	}
	req, err := spec.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	// Fig. 6's machine code: arith opcode 0 (add), op0 mux 0, op1 mux 1.
	code.Set(machinecode.ALUHoleName(0, true, 0, "arith_op_0"), 0)
	code.Set(machinecode.ALUHoleName(0, true, 0, "mux2_0"), 0)
	code.Set(machinecode.ALUHoleName(0, true, 0, "mux2_1"), 1)
	return spec, code
}

func TestGenerateVersion1(t *testing.T) {
	spec, code := figure6Spec(t)
	src, err := Generate(spec, code, Options{Level: core.Unoptimized})
	if err != nil {
		t.Fatal(err)
	}
	// v1: the ALU loads machine code from the hash map and helpers take an
	// opcode parameter they branch on.
	for _, want := range []string{
		`v_arith_op_0 := values["pipeline_stage_0_stateful_alu_0_arith_op_0"]`,
		`v_mux2_0 := values["pipeline_stage_0_stateful_alu_0_mux2_0"]`,
		"func pipeline_stage_0_stateful_alu_0_arith_op_0(op0, op1, opcode int64) int64 {",
		"if opcode == 0 {",
		"func Execute(values map[string]int64, phv []int64) []int64 {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("v1 output missing %q\n%s", want, src)
		}
	}
}

func TestGenerateVersion2(t *testing.T) {
	spec, code := figure6Spec(t)
	src, err := Generate(spec, code, Options{Level: core.SCCPropagation})
	if err != nil {
		t.Fatal(err)
	}
	// v2: helpers remain but are specialized — no opcode parameters, no
	// hash map lookups, single-expression bodies (Fig. 6 version 2).
	for _, want := range []string{
		"func pipeline_stage_0_stateful_alu_0_mux2_0(op0, op1 int64) int64 {\n\treturn op0\n}",
		"func pipeline_stage_0_stateful_alu_0_mux2_1(op0, op1 int64) int64 {\n\treturn op1\n}",
		"func pipeline_stage_0_stateful_alu_0_arith_op_0(op0, op1 int64) int64 {\n\treturn ((op0 + op1) & mask)\n}",
		"func Execute(phv []int64) []int64 {",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("v2 output missing %q\n%s", want, src)
		}
	}
	if strings.Contains(src, "values[") {
		t.Error("v2 output still contains hash map lookups")
	}
	if strings.Contains(src, "opcode") {
		t.Error("v2 output still contains opcode parameters")
	}
}

func TestGenerateVersion3(t *testing.T) {
	spec, code := figure6Spec(t)
	src, err := Generate(spec, code, Options{Level: core.SCCInlining})
	if err != nil {
		t.Fatal(err)
	}
	// v3 (Fig. 6 version 3): "state[0] = phv[0] + phv[1]" — helpers gone.
	if !strings.Contains(src, "state[0] = ((phv[0] + phv[1]) & mask)") {
		t.Errorf("v3 output missing inlined assignment:\n%s", src)
	}
	if strings.Contains(src, "_mux2_0(") || strings.Contains(src, "_arith_op_0(") {
		t.Error("v3 output still contains helper calls")
	}
}

// compileGenerated writes the generated source into a temp module and
// compiles it with the Go toolchain.
func compileGenerated(t *testing.T, src string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pipeline.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("generated code does not compile: %v\n%s\n--- source ---\n%s", err, out, src)
	}
}

func TestGeneratedCodeCompiles(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	// A realistic grid: 2x2 pred_raw over the full stateless ALU.
	spec := core.Spec{
		Depth:        2,
		Width:        2,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  atoms.MustLoad("pred_raw"),
	}
	req, err := spec.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	for _, level := range []core.OptLevel{core.Unoptimized, core.SCCPropagation, core.SCCInlining} {
		src, err := Generate(spec, code, Options{Level: level})
		if err != nil {
			t.Fatalf("Generate(%v): %v", level, err)
		}
		t.Run(level.String(), func(t *testing.T) {
			compileGenerated(t, src)
		})
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	if _, err := Generate(core.Spec{}, machinecode.New(), Options{}); err == nil {
		t.Error("Generate accepted empty spec")
	}
}

func TestGenerateMissingPairOptimized(t *testing.T) {
	spec, code := figure6Spec(t)
	code.Delete(machinecode.OutputMuxName(0, 0))
	if _, err := Generate(spec, code, Options{Level: core.SCCInlining}); err == nil {
		t.Error("Generate succeeded with missing output mux pair")
	}
}

// TestGenerateRefusesWhatBuildRefuses: at the optimized levels dgen must not
// emit source for machine code dsim would not run. Each defect gets
// core.Build's own error, at every level that bakes the code in; the
// unoptimized level still defers the lookups to run time.
func TestGenerateRefusesWhatBuildRefuses(t *testing.T) {
	for name, damage := range map[string]func(*machinecode.Program){
		"operand mux out of range": func(c *machinecode.Program) { c.Set(machinecode.OperandMuxName(0, false, 0, 0), 99) },
		"negative output mux":      func(c *machinecode.Program) { c.Set(machinecode.OutputMuxName(0, 1), -1) },
		"missing pair":             func(c *machinecode.Program) { c.Delete(machinecode.OutputMuxName(0, 0)) },
	} {
		spec, code := figure6Spec(t)
		damage(code)
		for _, lvl := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			_, want := core.Build(spec, code, lvl)
			if want == nil {
				t.Fatalf("%s: core.Build accepted the machine code at %s", name, lvl)
			}
			src, err := Generate(spec, code, Options{Level: lvl})
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s at %s: Generate error %v, core.Build's is %v", name, lvl, err, want)
			}
			if src != "" {
				t.Errorf("%s at %s: Generate emitted source beside its error", name, lvl)
			}
		}
		if _, err := Generate(spec, code, Options{Level: core.Unoptimized}); err != nil {
			t.Errorf("%s: the unoptimized level reads machine code at run time, yet Generate failed: %v", name, err)
		}
	}

	// A hand-built ALU that is total only on the branch its machine code
	// takes: if (h) { return ghost; } else { return a; } with h = 0. SCC
	// propagation would prune the branch; Build refuses the program, and so
	// must dgen, wrapping the same aludsl error.
	alu := &aludsl.Program{
		Name: "hand", Kind: aludsl.Stateless, PacketFields: []string{"a"}, HoleVars: []string{"h"},
		Holes: []aludsl.Hole{{Name: "h", Builtin: aludsl.BuiltinC, IsVar: true}},
		Body: []aludsl.Stmt{&aludsl.If{
			Cond: &aludsl.Ident{Name: "h", Class: aludsl.VarHole},
			Then: []aludsl.Stmt{&aludsl.Return{Value: &aludsl.Ident{Name: "ghost"}}},
			Else: []aludsl.Stmt{&aludsl.Return{Value: &aludsl.Ident{Name: "a", Class: aludsl.VarField}}},
		}},
	}
	spec := core.Spec{Depth: 1, Width: 1, StatelessALU: alu}
	req, err := spec.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	for _, lvl := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		_, buildErr := core.Build(spec, code, lvl)
		var want *aludsl.CheckError
		if !errors.As(buildErr, &want) {
			t.Fatalf("dead-branch ALU at %s: core.Build error %v, want an aludsl.CheckError", lvl, buildErr)
		}
		src, err := Generate(spec, code, Options{Level: lvl})
		var got *aludsl.CheckError
		if !errors.As(err, &got) || got.Error() != want.Error() || src != "" {
			t.Errorf("dead-branch ALU at %s: Generate = %q, %v; want core.Build's %q", lvl, src, err, want)
		}
	}
}

// TestGenerateCompiledIsInlinedSource: every level core.ParseLevel accepts
// generates, and the closure-compiled level — which executes the scc+inline
// AST — emits that level's source byte for byte.
func TestGenerateCompiledIsInlinedSource(t *testing.T) {
	spec, code := figure6Spec(t)
	lvl, err := core.ParseLevel("compiled")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := Generate(spec, code, Options{Level: lvl})
	if err != nil {
		t.Fatalf("dsim runs -level compiled, dgen refuses it: %v", err)
	}
	inlined, err := Generate(spec, code, Options{Level: core.SCCInlining})
	if err != nil {
		t.Fatal(err)
	}
	if compiled != inlined {
		t.Errorf("compiled source differs from scc+inline source:\n%s\n--- vs ---\n%s", compiled, inlined)
	}
	if _, err := Generate(spec, code, Options{Level: core.OptLevel(99)}); err == nil {
		t.Error("Generate accepted a level that does not exist")
	}
}

func TestGenerateCustomPackage(t *testing.T) {
	spec, code := figure6Spec(t)
	src, err := Generate(spec, code, Options{Level: core.SCCInlining, Package: "mypipe"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package mypipe\n") {
		t.Error("custom package name not honoured")
	}
}

func TestGenerateStateDeclaration(t *testing.T) {
	spec := core.Spec{
		Depth:        2,
		Width:        1,
		StatelessALU: atoms.MustLoad("stateless_full"),
		StatefulALU:  atoms.MustLoad("pair"), // two state variables
	}
	req, _ := spec.RequiredPairs()
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	src, err := Generate(spec, code, Options{Level: core.SCCPropagation})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "{{0, 0}},\n") {
		t.Errorf("state declaration missing two-variable vector:\n%s", src)
	}
}
