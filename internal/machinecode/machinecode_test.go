package machinecode

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSetGetDelete(t *testing.T) {
	p := New()
	p.Set("a", 1)
	p.Set("b", 2)
	p.Set("a", 3) // overwrite keeps position
	if v, ok := p.Get("a"); !ok || v != 3 {
		t.Errorf("Get(a) = %d,%v; want 3,true", v, ok)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	if !p.Delete("a") {
		t.Error("Delete(a) = false")
	}
	if p.Has("a") {
		t.Error("a still present after Delete")
	}
	if p.Delete("a") {
		t.Error("second Delete(a) = true")
	}
	if v, ok := p.Get("b"); !ok || v != 2 {
		t.Errorf("Get(b) after delete = %d,%v; want 2,true", v, ok)
	}
}

func TestDeleteReindexes(t *testing.T) {
	p := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		p.Set(n, int64(len(n)))
	}
	p.Delete("b")
	// Remaining pairs must still be retrievable and ordered.
	want := []string{"a", "c", "d"}
	got := p.Names()
	if len(got) != len(want) {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	p.Set("c", 42)
	if v, _ := p.Get("c"); v != 42 {
		t.Errorf("Set after Delete broke indexing: c = %d", v)
	}
}

func TestInsertionOrderPreserved(t *testing.T) {
	p := New()
	names := []string{"z", "a", "m", "b"}
	for i, n := range names {
		p.Set(n, int64(i))
	}
	got := p.Names()
	for i, n := range names {
		if got[i] != n {
			t.Errorf("Names[%d] = %q, want %q", i, got[i], n)
		}
	}
}

func TestParseFormats(t *testing.T) {
	src := `
# comment
alpha = 5
beta=7   // trailing
gamma, 9

`
	p, err := ParseString(src)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	for name, want := range map[string]int64{"alpha": 5, "beta": 7, "gamma": 9} {
		if v, ok := p.Get(name); !ok || v != want {
			t.Errorf("%s = %d,%v; want %d,true", name, v, ok, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"just_a_name",
		"x = notanumber",
		"= 5",
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p := New()
	p.Set("pipeline_stage_0_stateful_alu_0_const_0", 9)
	p.Set("pipeline_stage_0_output_mux_phv_0", 1)
	q, err := ParseString(p.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if q.String() != p.String() {
		t.Errorf("round trip changed program:\n%s\nvs\n%s", p, q)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New()
	p.Set("x", 1)
	q := p.Clone()
	q.Set("x", 99)
	if v, _ := p.Get("x"); v != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestMerge(t *testing.T) {
	p, q := New(), New()
	p.Set("x", 1)
	p.Set("y", 2)
	q.Set("y", 20)
	q.Set("z", 30)
	p.Merge(q)
	for name, want := range map[string]int64{"x": 1, "y": 20, "z": 30} {
		if v, _ := p.Get(name); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
}

func TestNamingConvention(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{ALUHoleName(2, true, 1, "mux3_0"), "pipeline_stage_2_stateful_alu_1_mux3_0"},
		{ALUHoleName(0, false, 4, "const_2"), "pipeline_stage_0_stateless_alu_4_const_2"},
		{OperandMuxName(3, true, 0, 1), "pipeline_stage_3_stateful_alu_0_operand_mux_1"},
		{OutputMuxName(1, 3), "pipeline_stage_1_output_mux_phv_3"},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("got %q, want %q", tc.got, tc.want)
		}
	}
	// All names must carry stage and position, per §3.2.
	for _, tc := range cases {
		if !strings.HasPrefix(tc.got, "pipeline_stage_") {
			t.Errorf("%q lacks pipeline_stage_ prefix", tc.got)
		}
	}
}

// Property: parse(render(p)) == p for arbitrary identifier-valued programs.
func TestRoundTripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		p := New()
		for i, v := range vals {
			p.Set(ALUHoleName(i%4, i%2 == 0, i%3, "h"), v)
		}
		q, err := ParseString(p.String())
		if err != nil {
			return false
		}
		return q.String() == p.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
