package spec

import (
	"testing"

	"druzhba/internal/core"
)

// TestTable1Shape checks the suite matches Table 1 of the paper.
func TestTable1Shape(t *testing.T) {
	if len(All()) != 12 {
		t.Fatalf("benchmark count = %d, want 12", len(All()))
	}
	dims := map[string][3]interface{}{
		"blue-decrease":     {4, 2, "sub"},
		"blue-increase":     {4, 2, "pair"},
		"sampling":          {2, 1, "if_else_raw"},
		"marple-new-flow":   {2, 2, "pred_raw"},
		"marple-tcp-nmo":    {3, 2, "pred_raw"},
		"snap-heavy-hitter": {1, 1, "pair"},
		"stateful-firewall": {4, 5, "pred_raw"},
		"flowlets":          {4, 5, "pred_raw"},
		"learn-filter":      {3, 5, "raw"},
		"rcp":               {3, 3, "pred_raw"},
		"conga":             {1, 5, "pair"},
		"spam-detection":    {1, 1, "pair"},
	}
	for name, want := range dims {
		b, err := Lookup(name)
		if err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
			continue
		}
		if b.Depth != want[0] || b.Width != want[1] || b.Atom != want[2] {
			t.Errorf("%s: (%d,%d,%s), want (%v,%v,%v)", name, b.Depth, b.Width, b.Atom, want[0], want[1], want[2])
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup accepted unknown benchmark")
	}
}

// TestAllDominoProgramsParse ensures every high-level program is valid and
// has its written fields bound.
func TestAllDominoProgramsParse(t *testing.T) {
	for _, b := range All() {
		p, err := b.DominoProgram()
		if err != nil {
			t.Errorf("%s: %v", b.Name, err)
			continue
		}
		for _, f := range p.Fields() {
			if _, ok := b.Fields[f]; !ok {
				t.Errorf("%s: field %q not bound", b.Name, f)
			}
		}
		if _, err := b.CompareContainers(); err != nil {
			t.Errorf("%s: CompareContainers: %v", b.Name, err)
		}
	}
}

// TestAllMachineCodeValid ensures every fixture passes pipeline validation.
func TestAllMachineCodeValid(t *testing.T) {
	for _, b := range All() {
		s, err := b.Spec()
		if err != nil {
			t.Fatalf("%s: Spec: %v", b.Name, err)
		}
		code, err := b.MachineCode()
		if err != nil {
			t.Fatalf("%s: MachineCode: %v", b.Name, err)
		}
		if errs := s.Validate(code); len(errs) > 0 {
			t.Errorf("%s: invalid machine code: %v", b.Name, errs)
		}
	}
}

// TestAllBenchmarksFuzz is the Fig. 5 workflow over the full suite: every
// fixture is equivalent to its high-level specification, at all three
// optimization levels.
func TestAllBenchmarksFuzz(t *testing.T) {
	const n = 2000
	for _, b := range All() {
		for _, level := range core.AllLevels() {
			rep, err := b.Verify(level, 1234, n)
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, level, err)
			}
			if !rep.Passed() {
				t.Errorf("%s/%v: %s", b.Name, level, rep)
			}
		}
	}
}

// TestBenchmarksFuzzMultipleSeeds widens input coverage on the programs with
// data-dependent branches.
func TestBenchmarksFuzzMultipleSeeds(t *testing.T) {
	names := []string{"sampling", "flowlets", "stateful-firewall", "marple-tcp-nmo", "spam-detection", "blue-increase"}
	for _, name := range names {
		b, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 5; seed++ {
			rep, err := b.Verify(core.SCCInlining, seed, 1000)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if !rep.Passed() {
				t.Errorf("%s seed %d: %s", name, seed, rep)
			}
		}
	}
}
