package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseWith(t *testing.T, args ...string) (*ConfigFlags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := AddConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg, fs
}

func TestConfigFlagsDefaults(t *testing.T) {
	cfg, _ := parseWith(t)
	spec, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Depth != 1 || spec.Width != 1 {
		t.Errorf("defaults = %dx%d", spec.Depth, spec.Width)
	}
	if spec.StatelessALU == nil || spec.StatelessALU.Name != "stateless_full" {
		t.Error("default stateless ALU missing")
	}
	if spec.StatefulALU != nil {
		t.Error("stateful ALU present by default")
	}
	if spec.Bits.Bits() != 32 {
		t.Errorf("bits = %d", spec.Bits.Bits())
	}
}

func TestConfigFlagsFull(t *testing.T) {
	cfg, _ := parseWith(t, "-depth", "3", "-width", "2", "-stateful", "pair", "-bits", "16", "-phvlen", "4")
	spec, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Depth != 3 || spec.Width != 2 || spec.PHVLen != 4 {
		t.Errorf("spec dims = %+v", spec)
	}
	if spec.StatefulALU == nil || spec.StatefulALU.Name != "pair" {
		t.Error("stateful atom not loaded")
	}
	if spec.Bits.Bits() != 16 {
		t.Errorf("bits = %d", spec.Bits.Bits())
	}
}

func TestConfigFlagsErrors(t *testing.T) {
	cfg, _ := parseWith(t, "-stateful", "nope")
	if _, err := cfg.Spec(); err == nil {
		t.Error("unknown atom accepted")
	}
	cfg, _ = parseWith(t, "-bits", "99")
	if _, err := cfg.Spec(); err == nil {
		t.Error("bad bit width accepted")
	}
	cfg, _ = parseWith(t, "-stateless", "raw")
	if _, err := cfg.Spec(); err == nil {
		t.Error("stateful atom accepted as stateless")
	}
}

func TestLoadMachineCode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.mc")
	if err := os.WriteFile(path, []byte("a = 1\nb = 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, err := LoadMachineCode(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := code.Get("b"); v != 2 {
		t.Errorf("b = %d", v)
	}
	if _, err := LoadMachineCode(filepath.Join(dir, "missing.mc")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseFieldMap(t *testing.T) {
	fm, err := ParseFieldMap("a=0, b=3 ,c=1")
	if err != nil {
		t.Fatal(err)
	}
	if fm["a"] != 0 || fm["b"] != 3 || fm["c"] != 1 {
		t.Errorf("fm = %v", fm)
	}
	if fm, err := ParseFieldMap(""); err != nil || len(fm) != 0 {
		t.Errorf("empty = %v, %v", fm, err)
	}
	for _, bad := range []string{"a", "a=x", "=1"} {
		if _, err := ParseFieldMap(bad); err == nil && bad != "=1" {
			t.Errorf("ParseFieldMap(%q) accepted", bad)
		}
	}
}

func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ReadFile(path)
	if err != nil || s != "hello" {
		t.Errorf("ReadFile = %q, %v", s, err)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadFileStdin: "-" reads stdin to its end, and a read that fails is
// the error, not a source cut short where the read stopped.
func TestReadFileStdin(t *testing.T) {
	stdin := os.Stdin
	t.Cleanup(func() { os.Stdin = stdin })
	path := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(path, []byte("transaction {}"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdin = f
	if s, err := ReadFile("-"); err != nil || s != "transaction {}" {
		t.Errorf("ReadFile(-) = %q, %v", s, err)
	}
	f.Close()
	if s, err := ReadFile("-"); err == nil {
		t.Errorf("ReadFile(-) on a closed stdin = %q, nil; want the read's error", s)
	}
}

func TestConfigFlagsALUFiles(t *testing.T) {
	dir := t.TempDir()
	aluPath := filepath.Join(dir, "custom.alu")
	src := `
type: stateful
state variables: {s}
packet fields: {p}
s = s + Mux2(p, C());
return s;
`
	if err := os.WriteFile(aluPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, _ := parseWith(t, "-stateful-file", aluPath)
	spec, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.StatefulALU == nil || spec.StatefulALU.Name != aluPath {
		t.Errorf("custom ALU not loaded: %+v", spec.StatefulALU)
	}
	// Kind mismatch must be rejected.
	cfg, _ = parseWith(t, "-stateless-file", aluPath)
	if _, err := cfg.Spec(); err == nil {
		t.Error("stateful ALU file accepted for -stateless-file")
	}
	// Unparseable file must be rejected.
	badPath := filepath.Join(dir, "bad.alu")
	if err := os.WriteFile(badPath, []byte("not an alu"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, _ = parseWith(t, "-stateful-file", badPath)
	if _, err := cfg.Spec(); err == nil {
		t.Error("unparseable ALU file accepted")
	}
}

func TestFlagUsageMentionsAtoms(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	AddConfigFlags(fs)
	var found bool
	fs.VisitAll(func(f *flag.Flag) {
		if f.Name == "stateful" && strings.Contains(f.Usage, "if_else_raw") {
			found = true
		}
	})
	if !found {
		t.Error("-stateful usage does not list atom names")
	}
}
