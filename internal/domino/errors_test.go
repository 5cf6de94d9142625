package domino

import (
	"errors"
	"strings"
	"testing"

	"druzhba/internal/phv"
)

// TestParseErrorsMalformed drives the parser through malformed programs;
// every case must produce an error and never panic.
func TestParseErrorsMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"missing transaction", `state x = 0;`},
		{"two transactions", `transaction { pkt.a = 1; } transaction { pkt.b = 2; }`},
		{"state after transaction", `transaction { pkt.a = 1; } state x = 0;`},
		{"state missing init", `state x; transaction { pkt.a = x; }`},
		{"unterminated body", `transaction { pkt.a = 1;`},
		{"assign to literal", `transaction { 3 = pkt.a; }`},
		{"missing semicolon", `transaction { pkt.a = 1 }`},
		{"dangling operator", `transaction { pkt.a = 1 + ; }`},
		{"unbalanced paren", `transaction { pkt.a = (1 + 2; }`},
		{"if without cond", `transaction { if { pkt.a = 1; } }`},
		{"if unclosed", `transaction { if (pkt.a == 1) { pkt.b = 2; }`},
		{"else without if", `transaction { else { pkt.a = 1; } }`},
		{"garbage statement", `transaction { widget; }`},
		{"empty assignment target", `transaction { = 5; }`},
		{"bad state name", `state 7up = 0; transaction { pkt.a = 1; }`},
		{"assign to bare pkt", `transaction { pkt = 1; }`},
		{"duplicate state", `state x = 0; state x = 1; transaction { pkt.a = x; }`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatalf("malformed program accepted:\n%s", tc.src)
			}
		})
	}
}

// TestLocalReadBeforeAssignment: the interpreter rejects reading a local
// that no execution path has assigned.
func TestLocalReadBeforeAssignment(t *testing.T) {
	prog, err := Parse(`
transaction {
    if (pkt.a == 1) {
        int tmp = 5;
    }
    pkt.b = tmp;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m := bindAll(t, prog, phv.Default32)
	// Path that skips the assignment: tmp is unset.
	if err := m.Step(map[string]int64{"a": 0, "b": 0}); err == nil ||
		!strings.Contains(err.Error(), "before assignment") {
		t.Fatalf("want read-before-assignment error, got %v", err)
	}
	// Path that takes it succeeds.
	m.Reset()
	if err := m.Step(map[string]int64{"a": 1, "b": 0}); err != nil {
		t.Fatal(err)
	}
}

// TestPHVSpecBindingErrors covers the adapter's error paths.
func TestPHVSpecBindingErrors(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = pkt.b + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPHVSpec(prog, FieldMap{"a": 0}, phv.Default32); err == nil {
		t.Fatal("unbound field b should be rejected")
	}
	spec, err := NewPHVSpec(prog, FieldMap{"a": 0, "b": 7}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	// Container 7 is out of range for a 2-container PHV.
	if _, err := spec.Process(phv.New(2)); err == nil {
		t.Fatal("out-of-range container should error at Process")
	}
}

// TestWrittenContainersUnboundField covers the error path.
func TestWrittenContainersUnboundField(t *testing.T) {
	prog, err := Parse(`transaction { pkt.a = 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WrittenContainers(prog, FieldMap{}); err == nil {
		t.Fatal("unbound written field should error")
	}
}

// TestBindRejectsAliasedAndNegativeContainers: with two fields on one
// container the expected output used to depend on map iteration order (the
// write-back ranged over the FieldMap), so the binding is refused up front,
// whether or not the program uses the aliased fields.
func TestBindRejectsAliasedAndNegativeContainers(t *testing.T) {
	prog := MustParse(`transaction { pkt.a = 1; pkt.b = 2; }`)
	for _, tc := range []struct {
		fields FieldMap
		want   string
	}{
		{FieldMap{"a": 0, "b": 0}, `fields "a" and "b" are both bound to container 0`},
		{FieldMap{"a": 0, "b": 1, "unused": 1}, `fields "b" and "unused" are both bound to container 1`},
		{FieldMap{"a": 0, "b": -1}, `field "b" bound to negative container -1`},
	} {
		for i := 0; i < 20; i++ { // the verdict and its text never depend on map order
			_, err := NewPHVSpec(prog, tc.fields, phv.Default32)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v: error %v, want %q", tc.fields, err, tc.want)
			}
		}
	}
}

// TestPHVSpecRangeCheckCoversUnusedFields: the per-packet check is one
// compare against the highest bound container, which may belong to a field
// the program never touches.
func TestPHVSpecRangeCheckCoversUnusedFields(t *testing.T) {
	prog := MustParse(`transaction { pkt.a = pkt.a + 1; }`)
	spec, err := NewPHVSpec(prog, FieldMap{"a": 0, "spare": 5}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]phv.Value, 5)
	err = spec.ProcessStream(vals)
	if want := `domino: field "spare" bound to container 5, PHV has 5`; err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
	if vals[0] != 0 {
		t.Errorf("a rejected packet was processed: %v", vals)
	}
	if err := spec.ProcessStream(make([]phv.Value, 6)); err != nil {
		t.Fatal(err)
	}
}

// TestParseNestingBound: input nested deeper than any real program is an
// ordinary positioned syntax error. Each of these overflowed the stack —
// fatal, not recoverable — when the parser recursed without a bound.
func TestParseNestingBound(t *testing.T) {
	for name, src := range map[string]string{
		"parens":   "transaction { pkt.a = " + strings.Repeat("(", 1<<20),
		"unaries":  "transaction { pkt.a = " + strings.Repeat("-!", 1<<19) + "1; }",
		"chain":    "transaction { pkt.a = 1" + strings.Repeat("+1", 1<<12) + "; }",
		"ifs":      "transaction { " + strings.Repeat("if (1) {", 1<<16),
		"else ifs": "transaction { if (1) {}" + strings.Repeat(" else if (1) {}", 1<<12) + " }",
	} {
		_, err := Parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nesting deeper than") || pe.Line != 1 {
			t.Errorf("%s: error %v, want the nesting bound on line 1", name, err)
		}
	}
	deep := "transaction { pkt.a = " + strings.Repeat("(", 200) + "1" + strings.Repeat(")", 200) + "; }"
	if _, err := Parse(deep); err != nil {
		t.Errorf("200 nested parentheses rejected: %v", err)
	}
}
