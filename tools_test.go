package druzhba_test

// End-to-end smoke tests for the command-line tools: each tool is compiled
// with the Go toolchain and driven through a minimal real workflow with
// files on disk, exactly as a user would run it.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one cmd/<name> into a shared temp dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

const samplingMC = `
pipeline_stage_0_stateful_alu_0_operand_mux_0 = 0
pipeline_stage_0_stateful_alu_0_operand_mux_1 = 0
pipeline_stage_0_stateful_alu_0_opt_0 = 0
pipeline_stage_0_stateful_alu_0_const_0 = 9
pipeline_stage_0_stateful_alu_0_mux3_0 = 2
pipeline_stage_0_stateful_alu_0_rel_op_0 = 0
pipeline_stage_0_stateful_alu_0_opt_1 = 1
pipeline_stage_0_stateful_alu_0_const_1 = 0
pipeline_stage_0_stateful_alu_0_mux3_1 = 2
pipeline_stage_0_stateful_alu_0_opt_2 = 0
pipeline_stage_0_stateful_alu_0_const_2 = 1
pipeline_stage_0_stateful_alu_0_mux3_2 = 2
pipeline_stage_0_stateless_alu_0_operand_mux_0 = 0
pipeline_stage_0_stateless_alu_0_operand_mux_1 = 0
pipeline_stage_0_stateless_alu_0_const_0 = 0
pipeline_stage_0_stateless_alu_0_mux3_0 = 0
pipeline_stage_0_stateless_alu_0_const_1 = 0
pipeline_stage_0_stateless_alu_0_mux3_1 = 0
pipeline_stage_0_stateless_alu_0_alu_op_0 = 0
pipeline_stage_0_output_mux_phv_0 = 2
pipeline_stage_1_stateful_alu_0_operand_mux_0 = 0
pipeline_stage_1_stateful_alu_0_operand_mux_1 = 0
pipeline_stage_1_stateful_alu_0_opt_0 = 0
pipeline_stage_1_stateful_alu_0_const_0 = 0
pipeline_stage_1_stateful_alu_0_mux3_0 = 0
pipeline_stage_1_stateful_alu_0_rel_op_0 = 0
pipeline_stage_1_stateful_alu_0_opt_1 = 0
pipeline_stage_1_stateful_alu_0_const_1 = 0
pipeline_stage_1_stateful_alu_0_mux3_1 = 2
pipeline_stage_1_stateful_alu_0_opt_2 = 0
pipeline_stage_1_stateful_alu_0_const_2 = 0
pipeline_stage_1_stateful_alu_0_mux3_2 = 2
pipeline_stage_1_stateless_alu_0_operand_mux_0 = 0
pipeline_stage_1_stateless_alu_0_operand_mux_1 = 0
pipeline_stage_1_stateless_alu_0_const_0 = 0
pipeline_stage_1_stateless_alu_0_mux3_0 = 0
pipeline_stage_1_stateless_alu_0_const_1 = 0
pipeline_stage_1_stateless_alu_0_mux3_1 = 2
pipeline_stage_1_stateless_alu_0_alu_op_0 = 5
pipeline_stage_1_output_mux_phv_0 = 1
`

const samplingDominoSrc = `
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

func TestToolsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tool smoke tests compile binaries")
	}
	dir := t.TempDir()
	mcPath := filepath.Join(dir, "sampling.mc")
	if err := os.WriteFile(mcPath, []byte(samplingMC), 0o644); err != nil {
		t.Fatal(err)
	}
	dominoPath := filepath.Join(dir, "sampling.domino")
	if err := os.WriteFile(dominoPath, []byte(samplingDominoSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	pipeArgs := []string{"-depth", "2", "-width", "1", "-stateful", "if_else_raw"}

	t.Run("dgen", func(t *testing.T) {
		bin := buildTool(t, dir, "dgen")
		out, err := runTool(t, bin, append(pipeArgs, "-list-pairs")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "pipeline_stage_1_output_mux_phv_0") {
			t.Errorf("list-pairs output missing pairs:\n%s", out)
		}
		out, err = runTool(t, bin, append(pipeArgs, "-code", mcPath, "-level", "scc+inline")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "func Execute(phv []int64) []int64 {") {
			t.Errorf("generated source malformed:\n%s", out)
		}
	})

	t.Run("dsim", func(t *testing.T) {
		bin := buildTool(t, dir, "dsim")
		out, err := runTool(t, bin, append(pipeArgs, "-code", mcPath, "-phvs", "12", "-trace")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "simulated 12 PHVs in 13 ticks") {
			t.Errorf("dsim output:\n%s", out)
		}
	})

	t.Run("dfuzz-pass", func(t *testing.T) {
		bin := buildTool(t, dir, "dfuzz")
		out, err := runTool(t, bin, append(pipeArgs,
			"-code", mcPath, "-domino", dominoPath, "-fields", "sample=0", "-n", "5000")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.HasPrefix(out, "PASS") {
			t.Errorf("dfuzz output:\n%s", out)
		}
	})

	t.Run("dfuzz-catches-bug", func(t *testing.T) {
		buggy := strings.Replace(samplingMC,
			"pipeline_stage_0_stateful_alu_0_const_0 = 9",
			"pipeline_stage_0_stateful_alu_0_const_0 = 8", 1)
		buggyPath := filepath.Join(dir, "buggy.mc")
		if err := os.WriteFile(buggyPath, []byte(buggy), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := buildTool(t, dir, "dfuzz")
		out, err := runTool(t, bin, append(pipeArgs,
			"-code", buggyPath, "-domino", dominoPath, "-fields", "sample=0", "-n", "5000")...)
		if err == nil {
			t.Fatalf("dfuzz exited 0 on buggy machine code:\n%s", out)
		}
		if !strings.HasPrefix(out, "FAIL") {
			t.Errorf("dfuzz output:\n%s", out)
		}
	})

	t.Run("chipmunk", func(t *testing.T) {
		plusOne := filepath.Join(dir, "plusone.domino")
		if err := os.WriteFile(plusOne, []byte("transaction {\n    pkt.v = pkt.v + 1;\n}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := buildTool(t, dir, "chipmunk")
		mcOut := filepath.Join(dir, "plusone.mc")
		out, err := runTool(t, bin, "-depth", "1", "-width", "1",
			"-domino", plusOne, "-fields", "v=0", "-verify-bits", "8", "-validate-bits", "12", "-o", mcOut)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "synthesized in") {
			t.Errorf("chipmunk output:\n%s", out)
		}
		data, err := os.ReadFile(mcOut)
		if err != nil || !strings.Contains(string(data), "pipeline_stage_0_output_mux_phv_0") {
			t.Errorf("machine code file: %v\n%s", err, data)
		}
	})

	t.Run("drmtsim", func(t *testing.T) {
		p4Path := filepath.Join(dir, "router.p4")
		p4Src := `
header_type h_t { fields { dst : 16; ttl : 8; } }
header h_t h;
action dec() { add_to_field(h.ttl, -1); }
action deny() { drop(); }
table route { reads { h.dst : exact; } actions { dec; deny; } default_action : dec(); }
control ingress { apply(route); }
`
		if err := os.WriteFile(p4Path, []byte(p4Src), 0o644); err != nil {
			t.Fatal(err)
		}
		entriesPath := filepath.Join(dir, "router.entries")
		if err := os.WriteFile(entriesPath, []byte("route h.dst exact 5 deny()\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := buildTool(t, dir, "drmtsim")
		out, err := runTool(t, bin, "-p4", p4Path, "-entries", entriesPath, "-packets", "100", "-cycles", "-optimal")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"makespan:", "packets: 100", "cycle-accurate replay"} {
			if !strings.Contains(out, want) {
				t.Errorf("drmtsim output missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("ddbg", func(t *testing.T) {
		bin := buildTool(t, dir, "ddbg")
		cmd := exec.Command(bin, append(pipeArgs, "-code", mcPath, "-phvs", "5")...)
		cmd.Stdin = strings.NewReader("state\nnext\nstate\nquit\n")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "time-travel debugger") {
			t.Errorf("ddbg output:\n%s", out)
		}
	})

	t.Run("dverify-proves", func(t *testing.T) {
		bin := buildTool(t, dir, "dverify")
		out, err := runTool(t, bin, append(pipeArgs,
			"-code", mcPath, "-domino", dominoPath, "-fields", "sample=0",
			"-vbits", "5", "-steps", "2")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.HasPrefix(out, "PROVED") {
			t.Errorf("dverify output:\n%s", out)
		}
	})

	t.Run("dverify-refutes", func(t *testing.T) {
		buggy := strings.Replace(samplingMC,
			"pipeline_stage_0_stateful_alu_0_rel_op_0 = 0",
			"pipeline_stage_0_stateful_alu_0_rel_op_0 = 1", 1)
		buggyPath := filepath.Join(dir, "buggy_verify.mc")
		if err := os.WriteFile(buggyPath, []byte(buggy), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := buildTool(t, dir, "dverify")
		out, err := runTool(t, bin, append(pipeArgs,
			"-code", buggyPath, "-domino", dominoPath, "-fields", "sample=0",
			"-vbits", "5", "-steps", "2")...)
		if err == nil {
			t.Fatalf("dverify exited 0 on buggy machine code:\n%s", out)
		}
		if !strings.HasPrefix(out, "COUNTEREXAMPLE") {
			t.Errorf("dverify output:\n%s", out)
		}
	})

	t.Run("dverify-bench", func(t *testing.T) {
		bin := buildTool(t, dir, "dverify")
		out, err := runTool(t, bin, "-bench", "sampling", "-vbits", "4", "-steps", "2")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.HasPrefix(out, "PROVED") {
			t.Errorf("dverify -bench output:\n%s", out)
		}
	})

	t.Run("drmtasm", func(t *testing.T) {
		p4Path := filepath.Join(dir, "asm.p4")
		p4Src := `
header_type h_t { fields { dst : 16; ttl : 8; } }
header h_t h;
action dec() { add_to_field(h.ttl, -1); }
action deny() { drop(); }
table route { reads { h.dst : exact; } actions { dec; deny; } default_action : dec(); }
control ingress { apply(route); }
`
		if err := os.WriteFile(p4Path, []byte(p4Src), 0o644); err != nil {
			t.Fatal(err)
		}
		entriesPath := filepath.Join(dir, "asm.entries")
		if err := os.WriteFile(entriesPath, []byte("route h.dst exact 5 deny()\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := buildTool(t, dir, "drmtasm")
		out, err := runTool(t, bin, "-p4", p4Path, "-entries", entriesPath, "-packets", "200")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"assembled", "match  r2, route", "lowered on the table entries", "route/0 deny(): ", "route/default dec():", "jne  h.dst, #5 -> ",
			"differential check: ISA and table-level execution agree"} {
			if !strings.Contains(out, want) {
				t.Errorf("drmtasm output missing %q:\n%s", want, out)
			}
		}
	})
}
