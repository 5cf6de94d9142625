// Package bv provides fixed-width bit-vector formulas over a SAT solver
// (package sat). It is the middle layer of Druzhba's formal verifier: the
// symbolic executor in package verify expresses PHV container and state
// values as bit-vectors; this package bit-blasts the resulting word-level
// operations into gates and hands the solver the CNF of the gates a proof
// obligation can see.
//
// A Vec is a little-endian vector of literals (bit 0 is the least
// significant). A literal names a node of the Builder's gate graph, not a
// solver variable: the graph is one slice of input, AND, XOR and ITE nodes
// (node 0 is the constant true), gate constructors fold constants, bring
// their operands to a canonical form and look the result up in a structural
// hash, so the same function of the same operands is the same literal
// however often and in whatever operand order it is asked for. Building a
// gate allocates no solver variable and adds no clause. Assert and AssertEq
// record roots; Emit (which Solve runs first) walks the roots' cone, numbers
// solver variables in node order and writes Tseitin clauses for the
// reachable nodes only. Two circuits that compute the same thing the same
// way are therefore one circuit, and an equality between them is decided
// while it is built; the solver sees what is left.
//
// Semantics mirror the Druzhba datapath (package phv): all values are
// unsigned, arithmetic wraps modulo 2^width, division and modulo by zero
// yield 0, comparisons are unsigned and produce 0/1.
package bv

import (
	"fmt"

	"druzhba/internal/sat"
)

// Vec is a bit-vector: a little-endian slice of literals.
type Vec []sat.Lit

type kind uint8

const (
	kindInput kind = iota // a free bit; node 0, the constant true, is one too
	kindAnd               // a ∧ b
	kindXor               // a ⊕ b
	kindIte               // a ? b : c
)

// node is one vertex of the gate graph. It is comparable, so a gate is its
// own key in the structural hash. An input's a is its own literal, which
// keeps inputs distinct from each other.
type node struct {
	kind    kind
	a, b, c sat.Lit
}

// A node's entry in Builder.vars is its solver variable, or one of these.
const (
	unemitted = -1 // the solver has no variable for the node
	pending   = -2 // Emit's walk reached the node and has yet to number it
)

// Builder creates bit-vector terms as a gate graph and emits the part of it
// that assertions reach into one SAT solver.
type Builder struct {
	// S is the solver the cone is emitted into. Set its budget and read its
	// statistics here; solve through Builder.Solve, which emits first.
	S *sat.Solver

	nodes []node
	hash  map[node]sat.Lit
	gates int // AND/XOR/ITE nodes in nodes

	// roots are the recorded assertions, each a clause of two graph
	// literals (a unit clause repeats its literal); emitted counts the
	// prefix Emit has already written. falseRoot is set once an assertion
	// folded to the constant false: the formula is then unsatisfiable
	// whatever else it says, and nothing else is emitted.
	roots     [][2]sat.Lit
	emitted   int
	falseRoot bool

	// vars maps a node to its solver variable (or unemitted, or pending
	// inside Emit); stack is Emit's walk.
	vars         []int32
	stack        []int32
	emittedGates int

	// evals caches the model value of unemitted nodes (0 unknown, 1 false,
	// 2 true) between two Solve calls.
	evals []int8
}

// NewBuilder wraps a solver. Node 0 is the constant true; it costs the
// solver one variable, allocated by the first Emit.
func NewBuilder(s *sat.Solver) *Builder {
	b := &Builder{S: s, hash: map[node]sat.Lit{}}
	b.newNode(node{kind: kindInput})
	return b
}

// newNode appends n and returns its positive literal.
func (b *Builder) newNode(n node) sat.Lit {
	l := sat.MkLit(len(b.nodes), false)
	if n.kind == kindInput {
		n.a = l
	} else {
		b.gates++
	}
	b.nodes = append(b.nodes, n)
	b.vars = append(b.vars, unemitted)
	return l
}

// gate returns the literal of the canonical gate n, building it on its
// first use.
func (b *Builder) gate(n node) sat.Lit {
	if l, ok := b.hash[n]; ok {
		return l
	}
	l := b.newNode(n)
	b.hash[n] = l
	return l
}

// Gates reports how many AND/XOR/ITE gates the builder has constructed and
// how many of them Emit has handed to the solver.
func (b *Builder) Gates() (built, emitted int) { return b.gates, b.emittedGates }

// True returns the constant-true literal.
func (b *Builder) True() sat.Lit { return sat.MkLit(0, false) }

// False returns the constant-false literal.
func (b *Builder) False() sat.Lit { return sat.MkLit(0, true) }

// isTrue reports whether l is the constant true.
func (b *Builder) isTrue(l sat.Lit) bool { return l == b.True() }

// isFalse reports whether l is the constant false.
func (b *Builder) isFalse(l sat.Lit) bool { return l == b.False() }

// Lit returns a constant literal for the given bool.
func (b *Builder) Lit(v bool) sat.Lit {
	if v {
		return b.True()
	}
	return b.False()
}

// Const returns a width-w constant vector.
func (b *Builder) Const(w int, v int64) Vec {
	out := make(Vec, w)
	for i := 0; i < w; i++ {
		out[i] = b.Lit(v&(1<<uint(i)) != 0)
	}
	return out
}

// Var returns a fresh width-w variable vector.
func (b *Builder) Var(w int) Vec {
	out := make(Vec, w)
	for i := range out {
		out[i] = b.newNode(node{kind: kindInput})
	}
	return out
}

// ConstValue reports whether v is entirely constant, and its value if so.
func (b *Builder) ConstValue(v Vec) (int64, bool) {
	var out int64
	for i, l := range v {
		switch {
		case b.isTrue(l):
			out |= 1 << uint(i)
		case b.isFalse(l):
		default:
			return 0, false
		}
	}
	return out, true
}

// --- Gate constructors (constant folding, canonical form, structural hash) ---

// Not returns ¬a.
func (b *Builder) Not(a sat.Lit) sat.Lit { return a.Not() }

// And returns the literal of x ∧ y. Operands are ordered, so And(x, y) and
// And(y, x) are one gate.
func (b *Builder) And(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x) || b.isFalse(y):
		return b.False()
	case b.isTrue(x):
		return y
	case b.isTrue(y):
		return x
	case x == y:
		return x
	case x == y.Not():
		return b.False()
	}
	if x > y {
		x, y = y, x
	}
	return b.gate(node{kind: kindAnd, a: x, b: y})
}

// Or returns the literal of x ∨ y.
func (b *Builder) Or(x, y sat.Lit) sat.Lit {
	return b.And(x.Not(), y.Not()).Not()
}

// Xor returns the literal of x ⊕ y. The gate is built over the operands'
// positive literals in order and the signs move to the output, so the four
// signed spellings of one parity are one gate.
func (b *Builder) Xor(x, y sat.Lit) sat.Lit {
	switch {
	case b.isFalse(x):
		return y
	case b.isFalse(y):
		return x
	case b.isTrue(x):
		return y.Not()
	case b.isTrue(y):
		return x.Not()
	case x == y:
		return b.False()
	case x == y.Not():
		return b.True()
	}
	neg := x.Sign() != y.Sign()
	x, y = x&^1, y&^1
	if x > y {
		x, y = y, x
	}
	o := b.gate(node{kind: kindXor, a: x, b: y})
	if neg {
		return o.Not()
	}
	return o
}

// IteLit returns c ? x : y as a literal. An ITE that is really a two-input
// gate — a constant branch, a branch that is the condition, or branches
// that are each other's complement — is built as that gate; what is left
// is stored with a positive condition and a positive then-branch.
func (b *Builder) IteLit(c, x, y sat.Lit) sat.Lit {
	switch {
	case b.isTrue(c):
		return x
	case b.isFalse(c):
		return y
	case x == y:
		return x
	case x == y.Not():
		return b.Xor(c, y)
	case b.isTrue(x) || x == c:
		return b.Or(c, y)
	case b.isFalse(x) || x == c.Not():
		return b.And(c.Not(), y)
	case b.isTrue(y) || y == c.Not():
		return b.Or(c.Not(), x)
	case b.isFalse(y) || y == c:
		return b.And(c, x)
	}
	if c.Sign() {
		c, x, y = c.Not(), y, x
	}
	if x.Sign() {
		return b.gate(node{kind: kindIte, a: c, b: x.Not(), c: y.Not()}).Not()
	}
	return b.gate(node{kind: kindIte, a: c, b: x, c: y})
}

// --- Word-level operations ---------------------------------------------------

func (b *Builder) checkSame(op string, x, y Vec) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("bv: %s: width mismatch %d vs %d", op, len(x), len(y)))
	}
}

// Ite returns c ? x : y elementwise.
func (b *Builder) Ite(c sat.Lit, x, y Vec) Vec {
	b.checkSame("ite", x, y)
	if b.isTrue(c) {
		return x
	}
	if b.isFalse(c) {
		return y
	}
	out := make(Vec, len(x))
	for i := range x {
		out[i] = b.IteLit(c, x[i], y[i])
	}
	return out
}

// Add returns (x+y) mod 2^w via a ripple-carry adder.
func (b *Builder) Add(x, y Vec) Vec {
	b.checkSame("add", x, y)
	out := make(Vec, len(x))
	carry := b.False()
	for i := range x {
		s := b.Xor(x[i], y[i])
		out[i] = b.Xor(s, carry)
		// carry' = (x∧y) ∨ (carry∧(x⊕y))
		carry = b.Or(b.And(x[i], y[i]), b.And(carry, s))
	}
	return out
}

// NotVec returns the bitwise complement.
func (b *Builder) NotVec(x Vec) Vec {
	out := make(Vec, len(x))
	for i := range x {
		out[i] = x[i].Not()
	}
	return out
}

// Neg returns two's-complement negation.
func (b *Builder) Neg(x Vec) Vec {
	one := b.Const(len(x), 1)
	return b.Add(b.NotVec(x), one)
}

// Sub returns (x-y) mod 2^w.
func (b *Builder) Sub(x, y Vec) Vec {
	b.checkSame("sub", x, y)
	// x + ¬y + 1 via ripple carry with initial carry 1.
	out := make(Vec, len(x))
	carry := b.True()
	for i := range x {
		yi := y[i].Not()
		s := b.Xor(x[i], yi)
		out[i] = b.Xor(s, carry)
		carry = b.Or(b.And(x[i], yi), b.And(carry, s))
	}
	return out
}

// Mul returns (x*y) mod 2^w via shift-and-add.
func (b *Builder) Mul(x, y Vec) Vec {
	b.checkSame("mul", x, y)
	w := len(x)
	acc := b.Const(w, 0)
	for i := 0; i < w; i++ {
		// partial = (x << i) masked by y[i]
		partial := make(Vec, w)
		for j := 0; j < w; j++ {
			if j < i {
				partial[j] = b.False()
			} else {
				partial[j] = b.And(x[j-i], y[i])
			}
		}
		acc = b.Add(acc, partial)
	}
	return acc
}

// Eq returns the literal x == y.
func (b *Builder) Eq(x, y Vec) sat.Lit {
	b.checkSame("eq", x, y)
	acc := b.True()
	for i := range x {
		acc = b.And(acc, b.Xor(x[i], y[i]).Not())
	}
	return acc
}

// Ne returns the literal x != y.
func (b *Builder) Ne(x, y Vec) sat.Lit { return b.Eq(x, y).Not() }

// Ult returns the literal x < y (unsigned).
func (b *Builder) Ult(x, y Vec) sat.Lit {
	b.checkSame("ult", x, y)
	// From LSB to MSB: lt = (¬x∧y) ∨ ((x↔y) ∧ lt_prev)
	lt := b.False()
	for i := range x {
		eqi := b.Xor(x[i], y[i]).Not()
		lti := b.And(x[i].Not(), y[i])
		lt = b.Or(lti, b.And(eqi, lt))
	}
	return lt
}

// Ule returns the literal x <= y (unsigned).
func (b *Builder) Ule(x, y Vec) sat.Lit { return b.Ult(y, x).Not() }

// IsZero returns the literal x == 0.
func (b *Builder) IsZero(x Vec) sat.Lit {
	acc := b.True()
	for _, l := range x {
		acc = b.And(acc, l.Not())
	}
	return acc
}

// Truthy returns the literal x != 0 (the DSL's boolean coercion).
func (b *Builder) Truthy(x Vec) sat.Lit { return b.IsZero(x).Not() }

// FromBool widens a boolean literal to a 0/1 vector of width w.
func (b *Builder) FromBool(l sat.Lit, w int) Vec {
	out := make(Vec, w)
	out[0] = l
	for i := 1; i < w; i++ {
		out[i] = b.False()
	}
	return out
}

// DivMod returns x/y and x%y (unsigned), with the Druzhba convention that
// both are 0 when y is 0. The circuit is restoring long division.
func (b *Builder) DivMod(x, y Vec) (quo, rem Vec) {
	b.checkSame("divmod", x, y)
	w := len(x)
	q := make(Vec, w)
	r := b.Const(w, 0)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		r = append(Vec{x[i]}, r[:w-1]...)
		// If r >= y: r -= y, q[i] = 1.
		ge := b.Ult(r, y).Not()
		r = b.Ite(ge, b.Sub(r, y), r)
		q[i] = ge
	}
	zero := b.Const(w, 0)
	yIsZero := b.IsZero(y)
	quo = b.Ite(yIsZero, zero, q)
	rem = b.Ite(yIsZero, zero, r)
	return quo, rem
}

// Div returns x/y with div-by-zero = 0.
func (b *Builder) Div(x, y Vec) Vec {
	q, _ := b.DivMod(x, y)
	return q
}

// Mod returns x%y with mod-by-zero = 0.
func (b *Builder) Mod(x, y Vec) Vec {
	_, r := b.DivMod(x, y)
	return r
}

// --- Assertions, emission and models ------------------------------------------

// Assert records that the literal must hold.
func (b *Builder) Assert(l sat.Lit) { b.addRoot(l, l) }

// AssertEq records x == y.
func (b *Builder) AssertEq(x, y Vec) {
	b.checkSame("assert-eq", x, y)
	for i := range x {
		// xi ↔ yi
		b.addRoot(x[i].Not(), y[i])
		b.addRoot(x[i], y[i].Not())
	}
}

// addRoot records the clause p ∨ q, folding constants: a satisfied clause
// is dropped, a falsified one makes the formula unsatisfiable.
func (b *Builder) addRoot(p, q sat.Lit) {
	switch {
	case b.isTrue(p) || b.isTrue(q) || p == q.Not():
		return
	case b.isFalse(p):
		p = q
	case b.isFalse(q):
		q = p
	}
	if b.isFalse(p) {
		b.falseRoot = true
		return
	}
	b.roots = append(b.roots, [2]sat.Lit{p, q})
}

// Emit hands the solver what the assertions recorded since the last Emit
// can see: it walks their cone, gives every reached node that has none a
// solver variable — in node order, so the numbering is a function of the
// graph alone, not of the walk — writes the Tseitin clauses of the reached
// gates and then the assertions themselves. Nodes no assertion reaches
// never cost the solver anything.
func (b *Builder) Emit() {
	b.reach(b.True())
	if b.falseRoot {
		b.number()
		b.S.AddClause(b.solverLit(b.False()))
		return
	}
	for _, r := range b.roots[b.emitted:] {
		b.reach(r[0])
		b.reach(r[1])
	}
	b.number()
	for _, r := range b.roots[b.emitted:] {
		b.S.AddClause(b.solverLit(r[0]), b.solverLit(r[1]))
	}
	b.emitted = len(b.roots)
}

// reach marks every unemitted node in l's cone as pending.
func (b *Builder) reach(l sat.Lit) {
	push := func(l sat.Lit) {
		if i := l.Var(); b.vars[i] == unemitted {
			b.vars[i] = pending
			b.stack = append(b.stack, int32(i))
		}
	}
	push(l)
	for len(b.stack) > 0 {
		n := &b.nodes[b.stack[len(b.stack)-1]]
		b.stack = b.stack[:len(b.stack)-1]
		switch n.kind {
		case kindAnd, kindXor:
			push(n.a)
			push(n.b)
		case kindIte:
			push(n.a)
			push(n.b)
			push(n.c)
		}
	}
}

// number gives every pending node its solver variable and clauses, in node
// order; a gate's operands precede it in that order.
func (b *Builder) number() {
	for i, v := range b.vars {
		if v != pending {
			continue
		}
		b.vars[i] = int32(b.S.NewVar())
		o := sat.MkLit(int(b.vars[i]), false)
		n := &b.nodes[i]
		if n.kind == kindInput {
			if i == 0 {
				b.S.AddClause(o)
			}
			continue
		}
		b.emittedGates++
		x, y := b.solverLit(n.a), b.solverLit(n.b)
		switch n.kind {
		case kindAnd:
			b.S.AddClause(o.Not(), x)
			b.S.AddClause(o.Not(), y)
			b.S.AddClause(o, x.Not(), y.Not())
		case kindXor:
			b.S.AddClause(o.Not(), x, y)
			b.S.AddClause(o.Not(), x.Not(), y.Not())
			b.S.AddClause(o, x, y.Not())
			b.S.AddClause(o, x.Not(), y)
		case kindIte:
			// o ↔ (x∧y) ∨ (¬x∧z)
			z := b.solverLit(n.c)
			b.S.AddClause(o.Not(), x.Not(), y)
			b.S.AddClause(o.Not(), x, z)
			b.S.AddClause(o, x.Not(), y.Not())
			b.S.AddClause(o, x, z.Not())
		}
	}
}

// solverLit translates the literal of an emitted node.
func (b *Builder) solverLit(l sat.Lit) sat.Lit {
	return sat.MkLit(int(b.vars[l.Var()]), l.Sign())
}

// Solve emits the recorded assertions and decides them.
func (b *Builder) Solve() sat.Status {
	b.Emit()
	clear(b.evals)
	return b.S.Solve()
}

// Value reads the vector's value from the model of the last Solve. A node
// the solver has seen reads from the model; a node outside every cone is
// unconstrained, so its inputs read 0 and its gates are evaluated from the
// graph.
func (b *Builder) Value(v Vec) int64 {
	var out int64
	for i, l := range v {
		if b.value(l) {
			out |= 1 << uint(i)
		}
	}
	return out
}

func (b *Builder) value(l sat.Lit) bool {
	i := l.Var()
	if i == 0 {
		return !l.Sign()
	}
	if v := b.vars[i]; v >= 0 {
		return b.S.ModelValue(sat.MkLit(int(v), l.Sign()))
	}
	if len(b.evals) < len(b.nodes) {
		b.evals = append(b.evals, make([]int8, len(b.nodes)-len(b.evals))...)
	}
	if b.evals[i] == 0 {
		n := b.nodes[i]
		var v bool
		switch n.kind {
		case kindAnd:
			v = b.value(n.a) && b.value(n.b)
		case kindXor:
			v = b.value(n.a) != b.value(n.b)
		case kindIte:
			if b.value(n.a) {
				v = b.value(n.b)
			} else {
				v = b.value(n.c)
			}
		}
		b.evals[i] = 1
		if v {
			b.evals[i] = 2
		}
	}
	return (b.evals[i] == 2) != l.Sign()
}
