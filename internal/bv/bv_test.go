package bv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"druzhba/internal/phv"
	"druzhba/internal/sat"
)

// solveValue forces the solver to find a model and reads vec's value.
func solveValue(t *testing.T, b *Builder, vec Vec) int64 {
	t.Helper()
	if got := b.Solve(); got != sat.Sat {
		t.Fatalf("solve: got %v, want sat", got)
	}
	return b.Value(vec)
}

func TestConstRoundTrip(t *testing.T) {
	b := NewBuilder(sat.New())
	for _, v := range []int64{0, 1, 5, 127, 255} {
		c := b.Const(8, v)
		got, ok := b.ConstValue(c)
		if !ok || got != v {
			t.Fatalf("Const(8,%d): ConstValue = %d,%v", v, got, ok)
		}
		if sv := solveValue(t, b, c); sv != v {
			t.Fatalf("Const(8,%d): model value %d", v, sv)
		}
	}
}

func TestConstTruncatesToWidth(t *testing.T) {
	b := NewBuilder(sat.New())
	c := b.Const(4, 0x1f) // 31 -> 15 in 4 bits
	got, _ := b.ConstValue(c)
	if got != 15 {
		t.Fatalf("got %d, want 15", got)
	}
}

func TestVarIsFree(t *testing.T) {
	b := NewBuilder(sat.New())
	x := b.Var(4)
	// Constrain x == 9 and check the model.
	b.AssertEq(x, b.Const(4, 9))
	if got := solveValue(t, b, x); got != 9 {
		t.Fatalf("got %d, want 9", got)
	}
}

// evalCase checks one binary operation against the phv reference
// semantics for every pair of 4-bit values, by building the constant
// circuit and reading it back (constant folding makes this cheap) and by
// constraining fresh variables (exercising the CNF path).
func evalBinary(t *testing.T, name string,
	circuit func(b *Builder, x, y Vec) Vec,
	ref func(w phv.Width, x, y int64) int64) {
	t.Helper()
	const bits = 4
	w := phv.MustWidth(bits)

	// Constant path.
	b := NewBuilder(sat.New())
	for x := int64(0); x < 1<<bits; x++ {
		for y := int64(0); y < 1<<bits; y++ {
			out := circuit(b, b.Const(bits, x), b.Const(bits, y))
			got, ok := b.ConstValue(out)
			if !ok {
				t.Fatalf("%s(%d,%d): not constant-folded", name, x, y)
			}
			if want := ref(w, x, y); got != want {
				t.Fatalf("%s(%d,%d) = %d, want %d (const path)", name, x, y, got, want)
			}
		}
	}

	// CNF path: fresh variables constrained to sampled values.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 24; i++ {
		x, y := rng.Int63n(1<<bits), rng.Int63n(1<<bits)
		b := NewBuilder(sat.New())
		xv, yv := b.Var(bits), b.Var(bits)
		out := circuit(b, xv, yv)
		b.AssertEq(xv, b.Const(bits, x))
		b.AssertEq(yv, b.Const(bits, y))
		if got, want := solveValue(t, b, out), ref(w, x, y); got != want {
			t.Fatalf("%s(%d,%d) = %d, want %d (CNF path)", name, x, y, got, want)
		}
	}
}

func TestAddMatchesReference(t *testing.T) {
	evalBinary(t, "add",
		func(b *Builder, x, y Vec) Vec { return b.Add(x, y) },
		func(w phv.Width, x, y int64) int64 { return w.Add(x, y) })
}

func TestSubMatchesReference(t *testing.T) {
	evalBinary(t, "sub",
		func(b *Builder, x, y Vec) Vec { return b.Sub(x, y) },
		func(w phv.Width, x, y int64) int64 { return w.Sub(x, y) })
}

func TestMulMatchesReference(t *testing.T) {
	evalBinary(t, "mul",
		func(b *Builder, x, y Vec) Vec { return b.Mul(x, y) },
		func(w phv.Width, x, y int64) int64 { return w.Mul(x, y) })
}

func TestDivMatchesReference(t *testing.T) {
	evalBinary(t, "div",
		func(b *Builder, x, y Vec) Vec { return b.Div(x, y) },
		func(w phv.Width, x, y int64) int64 { return w.Div(x, y) })
}

func TestModMatchesReference(t *testing.T) {
	evalBinary(t, "mod",
		func(b *Builder, x, y Vec) Vec { return b.Mod(x, y) },
		func(w phv.Width, x, y int64) int64 { return w.Mod(x, y) })
}

func TestCompareMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		circ func(b *Builder, x, y Vec) sat.Lit
		ref  func(x, y int64) bool
	}{
		{"eq", func(b *Builder, x, y Vec) sat.Lit { return b.Eq(x, y) }, func(x, y int64) bool { return x == y }},
		{"ne", func(b *Builder, x, y Vec) sat.Lit { return b.Ne(x, y) }, func(x, y int64) bool { return x != y }},
		{"ult", func(b *Builder, x, y Vec) sat.Lit { return b.Ult(x, y) }, func(x, y int64) bool { return x < y }},
		{"ule", func(b *Builder, x, y Vec) sat.Lit { return b.Ule(x, y) }, func(x, y int64) bool { return x <= y }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			evalBinary(t, tc.name,
				func(b *Builder, x, y Vec) Vec { return b.FromBool(tc.circ(b, x, y), 1) },
				func(w phv.Width, x, y int64) int64 { return phv.Bool(tc.ref(x, y)) })
		})
	}
}

func TestNegMatchesReference(t *testing.T) {
	const bits = 5
	w := phv.MustWidth(bits)
	b := NewBuilder(sat.New())
	for x := int64(0); x < 1<<bits; x++ {
		out := b.Neg(b.Const(bits, x))
		got, ok := b.ConstValue(out)
		if !ok {
			t.Fatalf("neg(%d): not folded", x)
		}
		if want := w.Trunc(-x); got != want {
			t.Fatalf("neg(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestIteSelects(t *testing.T) {
	b := NewBuilder(sat.New())
	x, y := b.Const(8, 100), b.Const(8, 200)
	if got, _ := b.ConstValue(b.Ite(b.True(), x, y)); got != 100 {
		t.Fatalf("ite(true) = %d", got)
	}
	if got, _ := b.ConstValue(b.Ite(b.False(), x, y)); got != 200 {
		t.Fatalf("ite(false) = %d", got)
	}
	// Symbolic condition.
	b = NewBuilder(sat.New())
	c := b.Var(1)[0]
	out := b.Ite(c, b.Const(8, 7), b.Const(8, 9))
	b.Assert(c)
	if got := solveValue(t, b, out); got != 7 {
		t.Fatalf("symbolic ite(true) = %d", got)
	}
}

func TestTruthyAndIsZero(t *testing.T) {
	b := NewBuilder(sat.New())
	if l := b.IsZero(b.Const(4, 0)); !b.isTrue(l) {
		t.Fatal("IsZero(0) should fold to true")
	}
	if l := b.IsZero(b.Const(4, 3)); !b.isFalse(l) {
		t.Fatal("IsZero(3) should fold to false")
	}
	if l := b.Truthy(b.Const(4, 3)); !b.isTrue(l) {
		t.Fatal("Truthy(3) should fold to true")
	}
}

func TestGateConstantFolding(t *testing.T) {
	b := NewBuilder(sat.New())
	x := b.Var(1)[0]
	if got := b.And(b.True(), x); got != x {
		t.Fatal("And(true,x) != x")
	}
	if got := b.And(b.False(), x); !b.isFalse(got) {
		t.Fatal("And(false,x) != false")
	}
	if got := b.And(x, x); got != x {
		t.Fatal("And(x,x) != x")
	}
	if got := b.And(x, x.Not()); !b.isFalse(got) {
		t.Fatal("And(x,~x) != false")
	}
	if got := b.Xor(x, x); !b.isFalse(got) {
		t.Fatal("Xor(x,x) != false")
	}
	if got := b.Xor(x, x.Not()); !b.isTrue(got) {
		t.Fatal("Xor(x,~x) != true")
	}
	if got := b.Or(b.False(), x); got != x {
		t.Fatal("Or(false,x) != x")
	}
	_ = b.Add(b.Const(8, 3), b.Const(8, 4))
	if built, _ := b.Gates(); built != 0 {
		t.Fatalf("constant add built %d gates", built)
	}
}

// TestQuickAddSubInverse property: (x+y)-y == x at any width.
func TestQuickAddSubInverse(t *testing.T) {
	const bits = 6
	f := func(x, y uint8) bool {
		xv := int64(x) & ((1 << bits) - 1)
		yv := int64(y) & ((1 << bits) - 1)
		b := NewBuilder(sat.New())
		out := b.Sub(b.Add(b.Const(bits, xv), b.Const(bits, yv)), b.Const(bits, yv))
		got, ok := b.ConstValue(out)
		return ok && got == xv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDivModIdentity property: q*y + r == x and r < y for y != 0.
func TestQuickDivModIdentity(t *testing.T) {
	const bits = 5
	f := func(x, y uint8) bool {
		xv := int64(x) & ((1 << bits) - 1)
		yv := int64(y) & ((1 << bits) - 1)
		b := NewBuilder(sat.New())
		q, r := b.DivMod(b.Const(bits, xv), b.Const(bits, yv))
		qv, ok1 := b.ConstValue(q)
		rv, ok2 := b.ConstValue(r)
		if !ok1 || !ok2 {
			return false
		}
		if yv == 0 {
			return qv == 0 && rv == 0
		}
		return qv*yv+rv == xv && rv < yv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSolverFindsPreimage uses the CNF path end to end: find x with
// x*x == 49 (mod 256); the solver must produce a valid square root.
func TestSolverFindsPreimage(t *testing.T) {
	b := NewBuilder(sat.New())
	x := b.Var(8)
	b.AssertEq(b.Mul(x, x), b.Const(8, 49))
	if got := b.Solve(); got != sat.Sat {
		t.Fatalf("solve: %v", got)
	}
	xv := b.Value(x)
	if (xv*xv)&0xff != 49 {
		t.Fatalf("model x=%d, x^2 mod 256 = %d, want 49", xv, (xv*xv)&0xff)
	}
}

// TestUnsatisfiableEquation: x + 1 == x has no solution.
func TestUnsatisfiableEquation(t *testing.T) {
	b := NewBuilder(sat.New())
	x := b.Var(8)
	b.AssertEq(b.Add(x, b.Const(8, 1)), x)
	if got := b.Solve(); got != sat.Unsat {
		t.Fatalf("x+1==x: got %v, want unsat", got)
	}
}

// TestCommutativityUnsat proves add commutes at 6 bits: asserting
// x+y != y+x must be UNSAT.
func TestCommutativityUnsat(t *testing.T) {
	b := NewBuilder(sat.New())
	x, y := b.Var(6), b.Var(6)
	b.Assert(b.Ne(b.Add(x, y), b.Add(y, x)))
	if got := b.Solve(); got != sat.Unsat {
		t.Fatalf("commutativity: got %v, want unsat", got)
	}
}

// TestDistributivityUnsat proves x*(y+z) == x*y + x*z at 4 bits.
func TestDistributivityUnsat(t *testing.T) {
	b := NewBuilder(sat.New())
	x, y, z := b.Var(4), b.Var(4), b.Var(4)
	lhs := b.Mul(x, b.Add(y, z))
	rhs := b.Add(b.Mul(x, y), b.Mul(x, z))
	b.Assert(b.Ne(lhs, rhs))
	if got := b.Solve(); got != sat.Unsat {
		t.Fatalf("distributivity: got %v, want unsat", got)
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	b := NewBuilder(sat.New())
	b.Add(b.Const(4, 1), b.Const(8, 1))
}

func BenchmarkMulEquivalence8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bb := NewBuilder(sat.New())
		x, y := bb.Var(8), bb.Var(8)
		bb.Assert(bb.Ne(bb.Mul(x, y), bb.Mul(y, x)))
		if got := bb.Solve(); got != sat.Unsat {
			b.Fatalf("got %v", got)
		}
	}
}

// TestCanonicalForms: every spelling of one gate is one literal, and the
// degenerate ITEs are the two-input gates they compute.
func TestCanonicalForms(t *testing.T) {
	b := NewBuilder(sat.New())
	v := b.Var(3)
	c, x, y := v[0], v[1], v[2]
	same := func(name string, got, want sat.Lit) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %v, want %v", name, got, want)
		}
	}
	same("And(y,x)", b.And(y, x), b.And(x, y))
	same("Or(y,x)", b.Or(y, x), b.Or(x, y))
	same("Xor(y,x)", b.Xor(y, x), b.Xor(x, y))
	same("Xor(¬x,y)", b.Xor(x.Not(), y), b.Xor(x, y).Not())
	same("Xor(x,¬y)", b.Xor(x, y.Not()), b.Xor(x, y).Not())
	same("Xor(¬x,¬y)", b.Xor(x.Not(), y.Not()), b.Xor(x, y))
	same("Ite(¬c,x,y)", b.IteLit(c.Not(), x, y), b.IteLit(c, y, x))
	same("Ite(c,¬x,y)", b.IteLit(c, x.Not(), y), b.IteLit(c, x, y.Not()).Not())
	same("Ite(c,x,¬x)", b.IteLit(c, x, x.Not()), b.Xor(c, x).Not())
	same("Ite(c,true,y)", b.IteLit(c, b.True(), y), b.Or(c, y))
	same("Ite(c,false,y)", b.IteLit(c, b.False(), y), b.And(c.Not(), y))
	same("Ite(c,x,true)", b.IteLit(c, x, b.True()), b.Or(c.Not(), x))
	same("Ite(c,x,false)", b.IteLit(c, x, b.False()), b.And(c, x))
	same("Ite(c,c,y)", b.IteLit(c, c, y), b.Or(c, y))
	same("Ite(c,¬c,y)", b.IteLit(c, c.Not(), y), b.And(c.Not(), y))
	same("Ite(c,x,c)", b.IteLit(c, x, c), b.And(c, x))
	same("Ite(c,x,¬c)", b.IteLit(c, x, c.Not()), b.Or(c.Not(), x))

	// Word level: the adder is symmetric in its operands, so x+y and y+x
	// are the same vector and their disequality is the constant false.
	p, q := b.Var(8), b.Var(8)
	if l := b.Ne(b.Add(p, q), b.Add(q, p)); !b.isFalse(l) {
		t.Errorf("x+y != y+x is %v, want the constant false", l)
	}
	if b.S.NumVars() != 0 || b.S.NumClauses() != 0 {
		t.Errorf("gate constructors reached the solver: %d vars, %d clauses", b.S.NumVars(), b.S.NumClauses())
	}
}

// TestEmitsOnlyTheCone: the solver sees the asserted root's cone and the
// constant, numbered in node order; a gate nothing asserts costs it
// nothing, and Value still evaluates that gate from the graph, reading an
// input outside every cone as 0.
func TestEmitsOnlyTheCone(t *testing.T) {
	b := NewBuilder(sat.New())
	x, y, z := b.Var(4), b.Var(4), b.Var(4)
	dead := b.Mul(y, z)              // never asserted
	sum := b.Add(z, b.Const(4, 3))   // outside the cone too: z reads 0
	b.Assert(b.Eq(x, b.Const(4, 9))) // cone: x's four bits and three ANDs
	if got := b.Solve(); got != sat.Sat {
		t.Fatalf("solve: %v", got)
	}
	if built, emitted := b.Gates(); emitted != 3 || built <= emitted {
		t.Fatalf("gates built/emitted = %d/%d, want 3 emitted of many", built, emitted)
	}
	if got := b.S.NumVars(); got != 1+4+3 {
		t.Fatalf("solver has %d variables, want the constant, x's 4 bits and 3 gates", got)
	}
	if got := b.Value(x); got != 9 {
		t.Fatalf("x = %d, want 9", got)
	}
	if got := b.Value(dead); got != 0 {
		t.Fatalf("y*z outside every cone = %d, want 0", got)
	}
	if got := b.Value(sum); got != 3 {
		t.Fatalf("z+3 outside every cone = %d, want 3", got)
	}
	// A second round of assertions emits what it newly reaches.
	b.AssertEq(z, b.Const(4, 5))
	if got := b.Solve(); got != sat.Sat {
		t.Fatalf("second solve: %v", got)
	}
	if got := b.Value(sum); got != 8 {
		t.Fatalf("z+3 with z = 5 is %d, want 8", got)
	}
	// An assertion that folded to false needs no cone at all.
	u := NewBuilder(sat.New())
	w := u.Var(8)
	u.Assert(u.Ult(w, u.Const(8, 100)))
	u.Assert(u.Ne(u.Add(w, w), u.Add(w, w)))
	if got := u.Solve(); got != sat.Unsat {
		t.Fatalf("false root: %v, want unsat", got)
	}
	if got := u.S.NumVars(); got != 1 {
		t.Fatalf("false root emitted %d variables, want only the constant", got)
	}
}
