package aludsl

import (
	"errors"
	"strings"
	"testing"
)

const figure4Src = `
type: stateful
state variables: {state_0}
hole variables: {}
packet fields: {pkt_0, pkt_1}
if (rel_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))) {
    state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());
}
else {
    state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());
}
`

func TestParseFigure4(t *testing.T) {
	p, err := Parse(figure4Src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Kind != Stateful {
		t.Errorf("Kind = %v, want stateful", p.Kind)
	}
	if got, want := p.NumState(), 1; got != want {
		t.Errorf("NumState = %d, want %d", got, want)
	}
	if got, want := p.NumOperands(), 2; got != want {
		t.Errorf("NumOperands = %d, want %d", got, want)
	}
	// Fig. 4 has: 1 rel_op, 3 Opt, 3 Mux3, 3 C -> 10 holes.
	if got, want := len(p.Holes), 10; got != want {
		t.Fatalf("len(Holes) = %d, want %d (holes: %v)", got, want, p.HoleNames())
	}
	// Hole names are assigned per-builtin in source order.
	wantNames := map[string]bool{
		"rel_op_0": true, "opt_0": true, "opt_1": true, "opt_2": true,
		"mux3_0": true, "mux3_1": true, "mux3_2": true,
		"const_0": true, "const_1": true, "const_2": true,
	}
	for _, h := range p.Holes {
		if !wantNames[h.Name] {
			t.Errorf("unexpected hole name %q", h.Name)
		}
	}
	ifStmt, ok := p.Body[0].(*If)
	if !ok {
		t.Fatalf("Body[0] = %T, want *If", p.Body[0])
	}
	if ifStmt.Else == nil {
		t.Error("If.Else is nil, want else branch")
	}
}

func TestParseHeaderOrderAndOmission(t *testing.T) {
	src := `
packet fields: {a, b}
type: stateless
return a + b;
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Kind != Stateless {
		t.Errorf("Kind = %v, want stateless", p.Kind)
	}
	if p.NumOperands() != 2 {
		t.Errorf("NumOperands = %d, want 2", p.NumOperands())
	}
}

func TestParseHoleVariables(t *testing.T) {
	src := `
type: stateful
state variables: {s}
hole variables: {threshold}
packet fields: {p}
if (p >= threshold) {
    s = s + 1;
}
return s;
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	h := prog.FindHole("threshold")
	if h == nil {
		t.Fatal("hole variable 'threshold' not collected")
	}
	if !h.IsVar {
		t.Error("threshold.IsVar = false, want true")
	}
	if h.Domain != 0 {
		t.Errorf("threshold.Domain = %d, want 0 (unbounded)", h.Domain)
	}
}

func TestParseElseIfChain(t *testing.T) {
	src := `
type: stateless
packet fields: {a}
if (a == 0) {
    return 1;
} else if (a == 1) {
    return 2;
} else {
    return 3;
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	outer := p.Body[0].(*If)
	if len(outer.Else) != 1 {
		t.Fatalf("outer else has %d stmts, want 1 (the nested if)", len(outer.Else))
	}
	if _, ok := outer.Else[0].(*If); !ok {
		t.Fatalf("outer.Else[0] = %T, want *If", outer.Else[0])
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	src := `
type: stateless
packet fields: {a, b}
return a + b * 2 == a && b < 3 || a > 7;
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ret := p.Body[0].(*Return)
	or, ok := ret.Value.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top op = %v, want ||", ret.Value)
	}
	and, ok := or.X.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("left of || = %v, want &&", or.X)
	}
	eq, ok := and.X.(*Binary)
	if !ok || eq.Op != OpEq {
		t.Fatalf("left of && = %v, want ==", and.X)
	}
	add, ok := eq.X.(*Binary)
	if !ok || add.Op != OpAdd {
		t.Fatalf("left of == = %v, want +", eq.X)
	}
	if mul, ok := add.Y.(*Binary); !ok || mul.Op != OpMul {
		t.Fatalf("right of + = %v, want *", add.Y)
	}
}

func TestParseComments(t *testing.T) {
	src := `
# leading comment
type: stateless // trailing comment
packet fields: {a}
// a full-line comment
return a; # done
`
	if _, err := Parse(src); err != nil {
		t.Fatalf("Parse with comments: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"missing type", "packet fields: {a}\nreturn a;", "missing 'type:'"},
		{"bad type", "type: weird\nreturn 0;", "unknown ALU type"},
		{"undeclared ident", "type: stateless\npacket fields: {a}\nreturn b;", "undeclared identifier"},
		{"assign to field", "type: stateless\npacket fields: {a}\na = 3;", "cannot assign to packet field"},
		{"assign undeclared", "type: stateless\npacket fields: {a}\nx = 3;", "not a state variable"},
		{"stateless with state", "type: stateless\nstate variables: {s}\npacket fields: {a}\nreturn a;", "declares state variables"},
		{"unknown builtin", "type: stateless\npacket fields: {a}\nreturn Frob(a);", "unknown builtin"},
		{"bad arity", "type: stateless\npacket fields: {a}\nreturn Mux2(a);", "takes 2 argument"},
		{"stray char", "type: stateless\npacket fields: {a}\nreturn a @ 1;", "unexpected character"},
		{"missing semicolon", "type: stateless\npacket fields: {a}\nreturn a", "expected ';'"},
		{"dup decl", "type: stateful\nstate variables: {x}\npacket fields: {x}\nreturn x;", "declared as both"},
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

func TestFormatRoundTrip(t *testing.T) {
	p1, err := Parse(figure4Src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	formatted := p1.Format()
	p2, err := Parse(formatted)
	if err != nil {
		t.Fatalf("reparse of Format output failed: %v\n%s", err, formatted)
	}
	if p2.Format() != formatted {
		t.Errorf("Format not idempotent:\nfirst:\n%s\nsecond:\n%s", formatted, p2.Format())
	}
	if len(p2.Holes) != len(p1.Holes) {
		t.Errorf("hole count changed across round trip: %d vs %d", len(p1.Holes), len(p2.Holes))
	}
}

// TestParseNestingBound: input nested deeper than any real ALU is an
// ordinary positioned syntax error. Each of these overflowed the stack —
// fatal, not recoverable — when the parser recursed without a bound.
func TestParseNestingBound(t *testing.T) {
	const header = "type: stateless\npacket fields: {a}\n"
	for name, src := range map[string]string{
		"parens":   header + "return " + strings.Repeat("(", 1<<20),
		"unaries":  header + "return " + strings.Repeat("-!", 1<<19) + "a;",
		"calls":    header + "return " + strings.Repeat("Opt(", 1<<12),
		"chain":    header + "return a" + strings.Repeat("+a", 1<<12) + ";",
		"ifs":      header + strings.Repeat("if (a) {", 1<<16),
		"else ifs": header + "if (a) {}" + strings.Repeat(" else if (a) {}", 1<<12),
	} {
		_, err := Parse(src)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "nesting deeper than") || se.Line != 3 {
			t.Errorf("%s: error %v, want the nesting bound on line 3", name, err)
		}
	}
	deep := header + "return " + strings.Repeat("(", 200) + "a" + strings.Repeat(")", 200) + ";"
	if _, err := Parse(deep); err != nil {
		t.Errorf("200 nested parentheses rejected: %v", err)
	}
}
