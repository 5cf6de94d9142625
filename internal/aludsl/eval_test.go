package aludsl

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"testing/quick"

	"druzhba/internal/phv"
)

func run(t *testing.T, src string, holes map[string]int64, operands, state []phv.Value) phv.Value {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	env := &Env{
		Width:    phv.Default32,
		Operands: operands,
		State:    state,
		Holes:    MapLookup(holes),
	}
	v, err := Run(p, env)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

func TestEvalArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want phv.Value
	}{
		{"return 2 + 3;", 5},
		{"return 2 - 3;", phv.Default32.Mask()}, // wraps
		{"return 6 * 7;", 42},
		{"return 7 / 2;", 3},
		{"return 7 % 3;", 1},
		{"return 7 / 0;", 0}, // total division
		{"return 7 % 0;", 0},
		{"return -1;", phv.Default32.Mask()},
		{"return !0;", 1},
		{"return !5;", 0},
		{"return 3 == 3;", 1},
		{"return 3 != 3;", 0},
		{"return 2 < 3;", 1},
		{"return 3 <= 3;", 1},
		{"return 4 > 5;", 0},
		{"return 5 >= 5;", 1},
		{"return 1 && 2;", 1},
		{"return 1 && 0;", 0},
		{"return 0 || 3;", 1},
		{"return 0 || 0;", 0},
		{"return (2 + 3) * 4;", 20},
	}
	for _, tc := range cases {
		src := "type: stateless\npacket fields: {a}\n" + tc.expr
		if got := run(t, src, nil, []phv.Value{0}, nil); got != tc.want {
			t.Errorf("%s = %d, want %d", tc.expr, got, tc.want)
		}
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// 1/0 is total (yields 0) so we detect short-circuit via a mux with an
	// out-of-range selector that would fail if evaluated.
	src := `
type: stateless
packet fields: {a}
return 0 && Mux2(a, a);
`
	got := run(t, src, map[string]int64{"mux2_0": 99}, []phv.Value{5}, nil)
	if got != 0 {
		t.Errorf("short-circuit && = %d, want 0", got)
	}
	src2 := strings.Replace(src, "0 &&", "1 ||", 1)
	if got := run(t, src2, map[string]int64{"mux2_0": 99}, []phv.Value{5}, nil); got != 1 {
		t.Errorf("short-circuit || = %d, want 1", got)
	}
}

func TestEvalBuiltins(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		holes map[string]int64
		ops   []phv.Value
		want  phv.Value
	}{
		{"C", "return C();", map[string]int64{"const_0": 42}, []phv.Value{0}, 42},
		{"Opt keep", "return Opt(a);", map[string]int64{"opt_0": 0}, []phv.Value{9}, 9},
		{"Opt zero", "return Opt(a);", map[string]int64{"opt_0": 1}, []phv.Value{9}, 0},
		{"Mux2 first", "return Mux2(a, b);", map[string]int64{"mux2_0": 0}, []phv.Value{3, 4}, 3},
		{"Mux2 second", "return Mux2(a, b);", map[string]int64{"mux2_0": 1}, []phv.Value{3, 4}, 4},
		{"Mux3 third", "return Mux3(a, b, C());", map[string]int64{"mux3_0": 2, "const_0": 77}, []phv.Value{3, 4}, 77},
		{"rel_op eq", "return rel_op(a, b);", map[string]int64{"rel_op_0": RelEq}, []phv.Value{4, 4}, 1},
		{"rel_op ne", "return rel_op(a, b);", map[string]int64{"rel_op_0": RelNe}, []phv.Value{4, 4}, 0},
		{"rel_op ge", "return rel_op(a, b);", map[string]int64{"rel_op_0": RelGe}, []phv.Value{5, 4}, 1},
		{"rel_op le", "return rel_op(a, b);", map[string]int64{"rel_op_0": RelLe}, []phv.Value{5, 4}, 0},
		{"arith add", "return arith_op(a, b);", map[string]int64{"arith_op_0": ArithAdd}, []phv.Value{5, 4}, 9},
		{"arith sub", "return arith_op(a, b);", map[string]int64{"arith_op_0": ArithSub}, []phv.Value{5, 4}, 1},
		{"alu mul", "return alu_op(a, b);", map[string]int64{"alu_op_0": ALUOpMul}, []phv.Value{5, 4}, 20},
		{"alu passA", "return alu_op(a, b);", map[string]int64{"alu_op_0": ALUOpPassA}, []phv.Value{5, 4}, 5},
		{"alu passB", "return alu_op(a, b);", map[string]int64{"alu_op_0": ALUOpPassB}, []phv.Value{5, 4}, 4},
		{"alu lt", "return alu_op(a, b);", map[string]int64{"alu_op_0": ALUOpLt}, []phv.Value{3, 4}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fields := "{a}"
			if len(tc.ops) == 2 {
				fields = "{a, b}"
			}
			src := "type: stateless\npacket fields: " + fields + "\n" + tc.src
			if got := run(t, src, tc.holes, tc.ops, nil); got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

func TestEvalStatefulSequencing(t *testing.T) {
	// Sequential assignment: the state_1 update must see the new state_0.
	src := `
type: stateful
state variables: {s0, s1}
packet fields: {p}
s0 = s0 + p;
s1 = s0 * 2;
return s1;
`
	state := []phv.Value{10, 0}
	got := run(t, src, nil, []phv.Value{5}, state)
	if state[0] != 15 {
		t.Errorf("state[0] = %d, want 15", state[0])
	}
	if state[1] != 30 {
		t.Errorf("state[1] = %d, want 30 (must observe new s0)", state[1])
	}
	if got != 30 {
		t.Errorf("output = %d, want 30", got)
	}
}

func TestEvalImplicitOutput(t *testing.T) {
	// A stateful ALU without return outputs its post-update state_0.
	src := `
type: stateful
state variables: {s}
packet fields: {p}
s = s + p;
`
	state := []phv.Value{1}
	if got := run(t, src, nil, []phv.Value{2}, state); got != 3 {
		t.Errorf("implicit stateful output = %d, want 3", got)
	}
	// A stateless ALU without return outputs 0.
	src2 := `
type: stateless
packet fields: {p}
if (p == 0) {
    return 1;
}
`
	if got := run(t, src2, nil, []phv.Value{5}, nil); got != 0 {
		t.Errorf("implicit stateless output = %d, want 0", got)
	}
}

func TestEvalReturnInsideIf(t *testing.T) {
	src := `
type: stateless
packet fields: {p}
if (p > 10) {
    return 100;
}
return 1;
`
	if got := run(t, src, nil, []phv.Value{11}, nil); got != 100 {
		t.Errorf("got %d, want 100", got)
	}
	if got := run(t, src, nil, []phv.Value{10}, nil); got != 1 {
		t.Errorf("got %d, want 1", got)
	}
}

func TestEvalMissingHole(t *testing.T) {
	p := MustParse("type: stateless\npacket fields: {a}\nreturn C();")
	env := &Env{Width: phv.Default32, Operands: []phv.Value{0}, Holes: MapLookup(nil)}
	_, err := Run(p, env)
	if err == nil {
		t.Fatal("Run succeeded with missing machine code pair")
	}
	if !strings.Contains(err.Error(), "missing machine code pair") {
		t.Errorf("error = %q, want missing-pair message", err)
	}
}

func TestEvalOutOfRangeSelector(t *testing.T) {
	p := MustParse("type: stateless\npacket fields: {a, b}\nreturn Mux2(a, b);")
	env := &Env{
		Width:    phv.Default32,
		Operands: []phv.Value{1, 2},
		Holes:    MapLookup(map[string]int64{"mux2_0": 5}),
	}
	_, err := Run(p, env)
	if err == nil {
		t.Fatal("Run succeeded with out-of-range mux selector")
	}
	if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("error = %q, want out-of-range message", err)
	}
}

func TestEvalHoleVariable(t *testing.T) {
	src := `
type: stateful
state variables: {s}
hole variables: {delta}
packet fields: {p}
s = s + delta;
return s;
`
	state := []phv.Value{100}
	got := run(t, src, map[string]int64{"delta": 7}, []phv.Value{0}, state)
	if got != 107 {
		t.Errorf("got %d, want 107", got)
	}
}

// TestEvalWidthWrap checks the masking property: results always fit the
// datapath width regardless of inputs.
func TestEvalWidthWrap(t *testing.T) {
	w := phv.MustWidth(8)
	p := MustParse("type: stateless\npacket fields: {a, b}\nreturn a * b + 200;")
	f := func(a, b uint8) bool {
		env := &Env{Width: w, Operands: []phv.Value{int64(a), int64(b)}}
		v, err := Run(p, env)
		if err != nil {
			return false
		}
		want := (int64(a)*int64(b) + 200) & 0xff
		return v == want && v >= 0 && v <= 0xff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEvalDeterministic: running the same program twice on the same inputs
// yields identical results (no hidden state in the evaluator).
func TestEvalDeterministic(t *testing.T) {
	p := MustParse(figure4Src)
	holes := map[string]int64{
		"rel_op_0": RelEq,
		"opt_0":    0, "opt_1": 0, "opt_2": 0,
		"mux3_0": 2, "mux3_1": 2, "mux3_2": 2,
		"const_0": 9, "const_1": 1, "const_2": 1,
	}
	f := func(a, b uint16, s uint16) bool {
		st1 := []phv.Value{int64(s)}
		st2 := []phv.Value{int64(s)}
		env1 := &Env{Width: phv.Default32, Operands: []phv.Value{int64(a), int64(b)}, State: st1, Holes: MapLookup(holes)}
		env2 := &Env{Width: phv.Default32, Operands: []phv.Value{int64(a), int64(b)}, State: st2, Holes: MapLookup(holes)}
		v1, err1 := Run(p, env1)
		v2, err2 := Run(p, env2)
		return err1 == nil && err2 == nil && v1 == v2 && st1[0] == st2[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCheckTotal covers the shapes CheckTotal rejects that no interpreter
// can be asked to run (the evaluable ones are pinned against the reference in
// sim's TestBuildRejectsNonTotalALU), and that a parsed, hole-free program
// passes with no machine code at all.
func TestCheckTotal(t *testing.T) {
	ok, err := Parse(`
type: stateful
state variables: {s}
hole variables: {}
packet fields: {a}
if (a > 3 && !(s == a)) { s = s + a; } else { s = -a; }
return s;
`)
	if err != nil {
		t.Fatal(err)
	}
	none := MapLookup(nil)
	if err := CheckTotal(ok, none); err != nil {
		t.Errorf("a parsed hole-free program: %v", err)
	}

	loop := &FuncDef{Name: "loop"}
	loop.Body = &Call{Func: &FuncDef{Name: "via", Body: &Call{Func: loop}}}
	field := &Ident{Name: "a", Class: VarField}
	cases := []struct {
		name string
		stmt Stmt
		want string
	}{
		{"recursive helper", &Return{Value: &Call{Func: loop}}, `helper "loop" calls itself`},
		{"nil helper", &Return{Value: &Call{}}, "nil helper"},
		{"nil expression", &Return{}, "unknown expression node <nil>"},
		{"negative index", &Return{Value: &Ident{Name: "a", Class: VarField, Index: -1}}, "index -1 out of range"},
		{"assignment to a field", &Assign{LHS: field, RHS: field}, "not a state variable"},
		{"assignment to nothing", &Assign{RHS: field}, "not a state variable"},
		{"parameter outside a helper", &Return{Value: &Ident{Name: "op0", Class: VarParam}}, "out of range [0,0)"},
		{"nested in an else branch", &If{Cond: field, Then: []Stmt{&Return{Value: field}}, Else: []Stmt{&Return{Value: &Ident{Name: "x"}}}}, `unresolved identifier "x"`},
	}
	for _, tc := range cases {
		p := &Program{Kind: Stateful, StateVars: []string{"s"}, PacketFields: []string{"a"}, Body: []Stmt{tc.stmt}}
		if err := CheckTotal(p, none); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckTotal = %v, want an error with %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckTotalWithMachineCode: given the machine code, a program with holes
// is total exactly when every hole resolves and every builtin call's value is
// in the table — what a lowering that takes each choice as it goes relies on.
// With no machine code, the same program is refused for its first hole.
func TestCheckTotalWithMachineCode(t *testing.T) {
	src := "type: stateless\nhole variables: {k}\npacket fields: {a, b}\nreturn Mux2(rel_op(a, k), C()) + Opt(b);"
	holes := map[string]int64{"k": 7, "mux2_0": 1, "rel_op_0": RelLe, "const_0": 3, "opt_0": 1}
	p := MustParse(src)
	if err := CheckTotal(p, MapLookup(holes)); err != nil {
		t.Fatalf("a parsed program with its machine code: %v", err)
	}
	if err := CheckTotal(p, MapLookup(nil)); err == nil || !strings.Contains(err.Error(), `missing machine code pair for "mux2_0"`) {
		t.Errorf("without machine code: %v, want the first hole missing", err)
	}
	for _, tc := range []struct {
		name string
		edit func(map[string]int64, *Program)
		want string
	}{
		{"missing hole variable", func(h map[string]int64, _ *Program) { delete(h, "k") }, `missing machine code pair for "k"`},
		{"missing builtin hole", func(h map[string]int64, _ *Program) { delete(h, "opt_0") }, `missing machine code pair for "opt_0"`},
		{"value outside the table", func(h map[string]int64, _ *Program) { h["rel_op_0"] = 4 }, `hole "rel_op_0": rel_op value 4 out of range [0,4)`},
		{"wrong argument count", func(_ map[string]int64, p *Program) {
			call := p.Body[0].(*Return).Value.(*Binary).Y.(*HoleCall)
			call.Args = append(call.Args, call.Args[0])
		}, `hole "opt_0": Opt takes 1 argument(s), got 2`},
		{"hole call at another's place", func(_ map[string]int64, p *Program) {
			p.Body[0].(*Return).Value.(*Binary).Y.(*HoleCall).Slot = 0
		}, `hole "opt_0" is not at its place 0 in the program's holes`},
		{"hole variable past the holes", func(_ map[string]int64, p *Program) {
			p.Body[0].(*Return).Value.(*Binary).X.(*HoleCall).Args[0].(*HoleCall).Args[1].(*Ident).Index = 5
		}, `hole "k" is not at its place 5 in the program's holes`},
		{"bad argument", func(_ map[string]int64, p *Program) {
			call := p.Body[0].(*Return).Value.(*Binary).X.(*HoleCall)
			call.Args[1] = &Ident{Name: "c", Class: VarField, Index: 2}
		}, `identifier "c": index 2 out of range [0,2)`},
	} {
		h, p := maps.Clone(holes), MustParse(src)
		tc.edit(h, p)
		if err := CheckTotal(p, MapLookup(h)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CheckTotal = %v, want an error with %q", tc.name, err, tc.want)
		}
	}
}

// TestOperatorStrings: an operator outside the language prints as its number,
// so an error about a hand-built AST can name it.
func TestOperatorStrings(t *testing.T) {
	for _, tc := range []struct {
		op   fmt.Stringer
		want string
	}{
		{OpAdd, "+"}, {OpOr, "||"}, {BinOp(99), "BinOp(99)"}, {BinOp(-1), "BinOp(-1)"},
		{OpNeg, "-"}, {OpNot, "!"}, {UnOp(7), "UnOp(7)"},
	} {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("%T %s, want %s", tc.op, got, tc.want)
		}
	}
}
