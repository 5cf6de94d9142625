package bv

import (
	"testing"

	"druzhba/internal/sat"
)

// naiveGate is one gate of the reference circuit: no folding, no hashing,
// operands exactly as decoded. Operands index the pool (0 is the constant
// true, then the inputs, then earlier gates) with a sign.
type naiveGate struct {
	op         byte // 0 and, 1 xor, 2 ite
	a, b, c    int
	na, nb, nc bool
}

// decodeGateDAG reads a gate DAG from fuzz bytes: the first byte is the
// number of inputs (1..10), then four bytes per gate — operator and three
// operands, each (pool index << 1 | sign) reduced modulo the pool built so
// far. At most 48 gates are read, which keeps the exhaustive check at
// 2^10 × 48 evaluations.
func decodeGateDAG(data []byte) (inputs int, gates []naiveGate) {
	if len(data) == 0 {
		return 1, nil
	}
	inputs = 1 + int(data[0])%10
	data = data[1:]
	for len(data) >= 4 && len(gates) < 48 {
		pool := 1 + inputs + len(gates)
		g := naiveGate{op: data[0] % 3}
		g.a, g.na = int(data[1]>>1)%pool, data[1]&1 == 1
		g.b, g.nb = int(data[2]>>1)%pool, data[2]&1 == 1
		g.c, g.nc = int(data[3]>>1)%pool, data[3]&1 == 1
		gates = append(gates, g)
		data = data[4:]
	}
	return inputs, gates
}

// evalNaive evaluates the reference circuit under one input assignment
// (bit i of assign is input i) and returns the value of every pool entry.
func evalNaive(inputs int, gates []naiveGate, assign int) []bool {
	pool := make([]bool, 0, 1+inputs+len(gates))
	pool = append(pool, true)
	for i := 0; i < inputs; i++ {
		pool = append(pool, assign>>uint(i)&1 == 1)
	}
	for _, g := range gates {
		a, b, c := pool[g.a] != g.na, pool[g.b] != g.nb, pool[g.c] != g.nc
		var v bool
		switch g.op {
		case 0:
			v = a && b
		case 1:
			v = a != b
		case 2:
			v = c
			if a {
				v = b
			}
		}
		pool = append(pool, v)
	}
	return pool
}

// evalGraph evaluates every node of the builder's graph under one input
// assignment; inputs lists the input literals in assignment-bit order.
func evalGraph(b *Builder, inputs []sat.Lit, assign int) []bool {
	vals := make([]bool, len(b.nodes))
	vals[0] = true
	for i, l := range inputs {
		vals[l.Var()] = assign>>uint(i)&1 == 1
	}
	at := func(l sat.Lit) bool { return vals[l.Var()] != l.Sign() }
	for i, n := range b.nodes {
		switch n.kind {
		case kindAnd:
			vals[i] = at(n.a) && at(n.b)
		case kindXor:
			vals[i] = at(n.a) != at(n.b)
		case kindIte:
			vals[i] = at(n.c)
			if at(n.a) {
				vals[i] = at(n.b)
			}
		}
	}
	return vals
}

// gateSeed spells one gate for the corpus; operands are pool indices,
// negative for a negated operand (so -0 cannot be written: the constant
// false is opFalse).
const opFalse = -1 << 20

func gateSeed(inputs int, gates ...[4]int) []byte {
	out := []byte{byte(inputs - 1)}
	operand := func(k int) byte {
		switch {
		case k == opFalse:
			return 1
		case k < 0:
			return byte(-k<<1 | 1)
		}
		return byte(k << 1)
	}
	for _, g := range gates {
		out = append(out, byte(g[0]), operand(g[1]), operand(g[2]), operand(g[3]))
	}
	return out
}

// FuzzGateGraph builds a gate DAG decoded from the input twice — through
// the folding, canonicalising, hashing constructors and as a naive circuit
// — and requires (a) every literal to evaluate the same under every input
// assignment, (b) asserting a root to be Sat exactly when brute force finds
// a model, with the returned model satisfying the naive circuit and
// Builder.Value agreeing with it on every literal, in the cone or not.
func FuzzGateGraph(f *testing.F) {
	const and, xor, ite = 0, 1, 2
	// Pool with two inputs: 0 true, 1 x, 2 y, 3.. gates.
	f.Add(gateSeed(2, [4]int{and, 1, 2, 0}, [4]int{and, 2, 1, 0}, [4]int{xor, 3, 4, 0}))                                   // AND operands ordered
	f.Add(gateSeed(2, [4]int{xor, -1, 2, 0}, [4]int{xor, 1, -2, 0}, [4]int{xor, -2, -1, 0}, [4]int{xor, 2, 1, 0}))         // XOR signs to the output
	f.Add(gateSeed(3, [4]int{ite, -1, 2, 3}, [4]int{ite, 1, 3, 2}, [4]int{xor, 4, 5, 0}))                                  // ITE positive condition
	f.Add(gateSeed(3, [4]int{ite, 1, -2, 3}, [4]int{ite, 1, 2, -3}, [4]int{xor, 4, 5, 0}))                                 // ITE positive then-branch
	f.Add(gateSeed(2, [4]int{ite, 1, 2, -2}, [4]int{ite, 1, -2, 2}))                                                       // x == ¬y: XOR
	f.Add(gateSeed(2, [4]int{ite, 1, 0, 2}, [4]int{ite, 1, opFalse, 2}, [4]int{ite, 1, 2, 0}, [4]int{ite, 1, 2, opFalse})) // constant branches
	f.Add(gateSeed(2, [4]int{ite, 1, 1, 2}, [4]int{ite, 1, -1, 2}, [4]int{ite, 1, 2, -1}, [4]int{ite, 1, 2, 1}))           // condition-equal branches
	f.Add(gateSeed(2, [4]int{ite, 0, 1, 2}, [4]int{ite, opFalse, 1, 2}, [4]int{ite, 1, 2, 2}))                             // constant condition, equal branches
	f.Add(gateSeed(1, [4]int{and, 1, -1, 0}, [4]int{xor, 1, 1, 0}))                                                        // roots that fold to false
	f.Add(gateSeed(4, [4]int{and, 1, 2, 0}, [4]int{xor, 3, 4, 0}, [4]int{and, 1, -1, 0}))                                  // an input and gates outside the root's cone
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs, gates := decodeGateDAG(data)
		b := NewBuilder(sat.New())
		pool := []sat.Lit{b.True()}
		in := b.Var(inputs)
		pool = append(pool, in...)
		lit := func(k int, neg bool) sat.Lit {
			if neg {
				return pool[k].Not()
			}
			return pool[k]
		}
		for _, g := range gates {
			x, y, z := lit(g.a, g.na), lit(g.b, g.nb), lit(g.c, g.nc)
			switch g.op {
			case 0:
				pool = append(pool, b.And(x, y))
			case 1:
				pool = append(pool, b.Xor(x, y))
			case 2:
				pool = append(pool, b.IteLit(x, y, z))
			}
		}
		if built, _ := b.Gates(); built > len(gates) {
			t.Fatalf("%d gates asked for, %d built", len(gates), built)
		}

		root := len(pool) - 1
		satisfiable := false
		for assign := 0; assign < 1<<uint(inputs); assign++ {
			want := evalNaive(inputs, gates, assign)
			got := evalGraph(b, in, assign)
			for k, l := range pool {
				if v := got[l.Var()] != l.Sign(); v != want[k] {
					t.Fatalf("assignment %b: pool entry %d (%v) evaluates to %v, the naive circuit to %v", assign, k, l, v, want[k])
				}
			}
			satisfiable = satisfiable || want[root]
		}

		b.Assert(pool[root])
		status := b.Solve()
		if (status == sat.Sat) != satisfiable || status == sat.Unknown {
			t.Fatalf("asserting pool entry %d: solver says %v, brute force satisfiable=%v", root, status, satisfiable)
		}
		if status != sat.Sat {
			return
		}
		want := evalNaive(inputs, gates, int(b.Value(in)))
		if !want[root] {
			t.Fatalf("model %b does not satisfy the naive root", b.Value(in))
		}
		for k, l := range pool {
			if got := b.Value(Vec{l}) == 1; got != want[k] {
				t.Fatalf("model %b: Value of pool entry %d is %v, the naive circuit says %v", b.Value(in), k, got, want[k])
			}
		}
	})
}
