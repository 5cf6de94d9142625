package spec

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// linkAlone links the resolved benchmark's Domino binding after a block of
// the PHV's input registers, in0 …: the transaction as the fuzzer's oracle
// runs it after the cone, on a frame of its own.
func linkAlone(t *testing.T, r *Resolved) *domino.Linked {
	t.Helper()
	n, err := r.Spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	b := flat.NewBuilder(phv.Default32)
	first := b.Regs("in", n.PHVLen)
	block, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int, n.PHVLen)
	for c := range in {
		in[c] = first + c
	}
	l, err := r.binding.Link(block, in)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// lowered renders both sides of a benchmark's Fig. 5 comparison as the flat
// programs the fuzzer's oracle is linked from, before flat.Optimize: the
// Domino transaction as linked (linkAlone), then the pipeline's fused output
// cone at each prechecked level, each with its output registers.
func lowered(t *testing.T, bm *Benchmark) string {
	t.Helper()
	r, err := bm.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	bound := linkAlone(t, r)
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: specification, %d instructions\n%s", bm.Name, bound.Len(), bound)
	for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
		p, err := bm.Pipeline(level)
		if err != nil {
			t.Fatal(err)
		}
		cone := p.Cone()
		live, total := cone.ALUCounts()
		out := make([]string, p.PHVLen())
		for c, r := range cone.Out() {
			out[c] = cone.RegName(r)
		}
		fmt.Fprintf(&b, "\n== %s: pipeline at %s, %d of %d ALUs, %d instructions, output PHV in %v\n%s",
			bm.Name, level, live, total, cone.Len(), out, cone)
	}
	return b.String()
}

// TestLoweringGoldens pins the disassembly of a single-stage-pair program
// (sampling, the paper's Fig. 1) and a multi-stage one, so a reviewer can
// read what the fuzzer executes: a container that passes through a stage
// emits no instruction, an output mux is a register name in the header line,
// and each level's ALU body is what the level names. Regenerate with:
// go test ./internal/spec -run TestLoweringGoldens -update
func TestLoweringGoldens(t *testing.T) {
	for _, name := range []string{"sampling", "stateful-firewall"} {
		bm, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got := lowered(t, bm)
		path := filepath.Join("testdata", "lowering", name+".golden")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden file (run with -update): %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: lowering changed; if intentional, rerun with -update.\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
	}
}

// TestConeInstructionCounts pins, per Table-1 program, the two halves of the
// program the fuzzer's oracle is linked from, before flat.Optimize rewrites
// it: the fused cone with its live ALUs' bodies lowered as written (scc,
// scc+inline and compiled, which must be the same program), and the Domino
// transaction as Link appends it, the copies of the fields it reads and then
// writes included. A lowering that starts copying where it could rename, or
// keeps a dead ALU, moves a count; what runs is TestOracleDispatches'.
func TestConeInstructionCounts(t *testing.T) {
	want := map[string][2]int{ // pipeline, specification
		"blue-decrease":     {2, 3},
		"blue-increase":     {7, 5},
		"sampling":          {6, 7},
		"marple-new-flow":   {4, 6},
		"marple-tcp-nmo":    {4, 8},
		"snap-heavy-hitter": {7, 8},
		"stateful-firewall": {8, 13},
		"flowlets":          {8, 12},
		"learn-filter":      {9, 12},
		"rcp":               {10, 10},
		"conga":             {7, 5},
		"spam-detection":    {7, 8},
	}
	for _, bm := range All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		var cone [3]*core.Fused
		for i, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			p, err := bm.Pipeline(level)
			if err != nil {
				t.Fatal(err)
			}
			cone[i] = p.Cone()
		}
		for _, c := range cone[1:] {
			if c.String() != cone[0].String() {
				t.Errorf("%s: the prechecked levels' cones differ:\n%s\nscc:\n%s", bm.Name, c, cone[0])
			}
		}
		if got := [2]int{cone[0].Len(), linkAlone(t, r).Len()}; got != want[bm.Name] {
			t.Errorf("%q: %v, // got; want %v", bm.Name, got, want[bm.Name])
		}
	}
}
