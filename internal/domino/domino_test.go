package domino

import (
	"strings"
	"testing"

	"druzhba/internal/phv"
)

const samplingSrc = `
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

// boundMachine is a PHVSpec whose program has every field bound, field i of
// the parser's first-use order to container i, stepped through a map from
// field names to values.
type boundMachine struct {
	*PHVSpec
	fields FieldMap
}

// bindAll binds every field p names to a container at width w.
func bindAll(t testing.TB, p *Program, w phv.Width) *boundMachine {
	t.Helper()
	fields := FieldMap{}
	for i, name := range p.Fields() {
		fields[name] = i
	}
	s, err := NewPHVSpec(p, fields, w)
	if err != nil {
		t.Fatal(err)
	}
	return &boundMachine{s, fields}
}

// Step runs the transaction on one packet whose fields hold vals' values (0
// for a field vals does not name) and writes every field back into vals.
func (m *boundMachine) Step(vals map[string]int64) error {
	pkt := make([]phv.Value, len(m.fields))
	for name, c := range m.fields {
		pkt[c] = vals[name]
	}
	err := m.ProcessStream(pkt)
	for name, c := range m.fields {
		vals[name] = pkt[c]
	}
	return err
}

func TestParseSampling(t *testing.T) {
	p, err := Parse(samplingSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.States) != 1 || p.States[0].Name != "count" || p.States[0].Init != 0 {
		t.Errorf("States = %+v, want [{count 0}]", p.States)
	}
	if got := p.Fields(); len(got) != 1 || got[0] != "sample" {
		t.Errorf("Fields = %v, want [sample]", got)
	}
	if got := p.WrittenFields(); len(got) != 1 || got[0] != "sample" {
		t.Errorf("WrittenFields = %v, want [sample]", got)
	}
}

func TestSamplingSemantics(t *testing.T) {
	m := bindAll(t, MustParse(samplingSrc), phv.Default32)
	for i := 0; i < 30; i++ {
		fields := map[string]int64{"sample": 0}
		if err := m.Step(fields); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i%10 == 9 {
			want = 1
		}
		if fields["sample"] != want {
			t.Errorf("packet %d: sample = %d, want %d", i, fields["sample"], want)
		}
	}
}

func TestLocalsAndArithmetic(t *testing.T) {
	src := `
state acc = 100;

transaction {
    int t = pkt.a * 2 + 1;
    acc = acc - t;
    pkt.a = acc;
}
`
	m := bindAll(t, MustParse(src), phv.Default32)
	fields := map[string]int64{"a": 10}
	if err := m.Step(fields); err != nil {
		t.Fatal(err)
	}
	if fields["a"] != 79 { // 100 - 21
		t.Errorf("a = %d, want 79", fields["a"])
	}
	if v, _ := m.State("acc"); v != 79 {
		t.Errorf("acc = %d, want 79", v)
	}
}

func TestLocalsFreshPerPacket(t *testing.T) {
	src := `
state s = 0;

transaction {
    int t = pkt.a;
    s = s + t;
    pkt.a = s;
}
`
	m := bindAll(t, MustParse(src), phv.Default32)
	f1 := map[string]int64{"a": 5}
	if err := m.Step(f1); err != nil {
		t.Fatal(err)
	}
	f2 := map[string]int64{"a": 7}
	if err := m.Step(f2); err != nil {
		t.Fatal(err)
	}
	if f2["a"] != 12 {
		t.Errorf("a = %d, want 12", f2["a"])
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
transaction {
    if (pkt.x < 10) {
        pkt.class = 0;
    } else if (pkt.x < 100) {
        pkt.class = 1;
    } else {
        pkt.class = 2;
    }
}
`
	m := bindAll(t, MustParse(src), phv.Default32)
	for _, tc := range []struct{ x, want int64 }{{5, 0}, {50, 1}, {500, 2}} {
		fields := map[string]int64{"x": tc.x, "class": 99}
		if err := m.Step(fields); err != nil {
			t.Fatal(err)
		}
		if fields["class"] != tc.want {
			t.Errorf("x=%d: class = %d, want %d", tc.x, fields["class"], tc.want)
		}
	}
}

func TestShortCircuitAndDivision(t *testing.T) {
	src := `
transaction {
    if (pkt.d != 0 && pkt.a / pkt.d > 2) {
        pkt.out = 1;
    } else {
        pkt.out = 0;
    }
}
`
	m := bindAll(t, MustParse(src), phv.Default32)
	fields := map[string]int64{"d": 0, "a": 100, "out": 9}
	if err := m.Step(fields); err != nil {
		t.Fatal(err)
	}
	if fields["out"] != 0 {
		t.Errorf("out = %d, want 0 (short-circuit)", fields["out"])
	}
	fields = map[string]int64{"d": 3, "a": 100, "out": 9}
	if err := m.Step(fields); err != nil {
		t.Fatal(err)
	}
	if fields["out"] != 1 {
		t.Errorf("out = %d, want 1", fields["out"])
	}
}

func TestResetRestoresInitialValues(t *testing.T) {
	src := `
state x = 42;

transaction {
    x = x + 1;
    pkt.v = x;
}
`
	m := bindAll(t, MustParse(src), phv.Default32)
	fields := map[string]int64{"v": 0}
	_ = m.Step(fields)
	if v, _ := m.State("x"); v != 43 {
		t.Fatalf("x = %d, want 43", v)
	}
	m.Reset()
	if v, _ := m.State("x"); v != 42 {
		t.Errorf("x after Reset = %d, want 42", v)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantSub string }{
		{"undeclared state", "transaction { x = 1; }", "undeclared variable"},
		{"undeclared read", "transaction { pkt.a = y; }", "undeclared identifier"},
		{"missing transaction", "state x = 0;", `expected 'transaction'`},
		{"dup state", "state x = 0;\nstate x = 1;\ntransaction { }", "duplicate state"},
		{"local before decl", "transaction { pkt.a = t; int t = 1; }", "undeclared identifier"},
		{"bad char", "transaction { pkt.a = 1 @ 2; }", "unexpected character"},
		{"missing semi", "transaction { pkt.a = 1 }", `expected ';'`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestNegativeInitWraps(t *testing.T) {
	src := "state x = -1;\ntransaction { pkt.v = x; }"
	m := bindAll(t, MustParse(src), phv.MustWidth(8))
	fields := map[string]int64{"v": 0}
	if err := m.Step(fields); err != nil {
		t.Fatal(err)
	}
	if fields["v"] != 255 {
		t.Errorf("v = %d, want 255 (-1 mod 2^8)", fields["v"])
	}
}

func TestPHVSpec(t *testing.T) {
	prog := MustParse(samplingSrc)
	prog.Name = "sampling"
	spec, err := NewPHVSpec(prog, FieldMap{"sample": 0}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name() != "sampling" {
		t.Errorf("Name = %q", spec.Name())
	}
	for i := 0; i < 10; i++ {
		out, err := spec.Process(phv.FromValues([]phv.Value{77}))
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i == 9 {
			want = 1
		}
		if out.Get(0) != want {
			t.Errorf("packet %d: container 0 = %d, want %d", i, out.Get(0), want)
		}
	}
	spec.Reset()
	if v, _ := spec.State("count"); v != 0 {
		t.Errorf("count after Reset = %d, want 0", v)
	}
}

func TestPHVSpecUnboundField(t *testing.T) {
	prog := MustParse(samplingSrc)
	if _, err := NewPHVSpec(prog, FieldMap{}, phv.Default32); err == nil {
		t.Error("NewPHVSpec accepted unbound field")
	}
}

func TestPHVSpecPassThrough(t *testing.T) {
	// Containers not bound to fields must pass through unchanged.
	prog := MustParse(samplingSrc)
	spec, err := NewPHVSpec(prog, FieldMap{"sample": 1}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Process(phv.FromValues([]phv.Value{123, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if out.Get(0) != 123 {
		t.Errorf("unbound container changed: %d", out.Get(0))
	}
}

func TestWrittenContainers(t *testing.T) {
	prog := MustParse(samplingSrc)
	cs, err := WrittenContainers(prog, FieldMap{"sample": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs[0] != 2 {
		t.Errorf("WrittenContainers = %v, want [2]", cs)
	}
	if _, err := WrittenContainers(prog, FieldMap{"other": 0}); err == nil {
		t.Error("WrittenContainers accepted unbound written field")
	}
}

func TestProgramString(t *testing.T) {
	p := MustParse(samplingSrc)
	s := p.String()
	// The rendering must itself reparse.
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, s)
	}
	if q.String() != s {
		t.Error("String() not stable across reparse")
	}
}
