package flat

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"druzhba/internal/bv"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
)

// privateRegs reports which registers of p Optimize may leave with other
// values than p does, given the observed ones, as the contract says and not
// as Optimize finds them: registers, neither constants nor bank cells nor
// observed, that every path writes before reading (Link's setsFirst, one
// register at a time), whatever their names.
func privateRegs(p *Program, observed []int) []bool {
	priv := make([]bool, len(p.init))
	for r := range priv {
		priv[r] = !p.fixed[r] && !p.cell(r) && !slices.Contains(observed, r) && p.setsFirst(r)
	}
	return priv
}

// ProveOptimized proves with Sym that q, an Optimize of p with the given
// observed registers and end map, is p on every frame of p's width: from one
// frame — but for p's private registers, which q starts with other values
// in — both stop at a Trap under the same condition, and every register r
// but the private ones ends p with the value q leaves in end[r].
func ProveOptimized(t testing.TB, p, q *Program, end, observed []int) {
	t.Helper()
	priv := privateRegs(p, observed)
	bits := p.w.Bits()
	b := bv.NewBuilder(sat.New())
	in := p.SymFrame(b, bits, func(int) bv.Vec { return b.Var(bits) })
	outP, trapP := p.Sym(b, in)
	outQ, trapQ := q.Sym(b, q.SymFrame(b, bits, func(r int) bv.Vec {
		if priv[r] {
			return b.Var(bits)
		}
		return in[r]
	}))
	differ := b.Xor(trapP, trapQ)
	for r := range outP {
		if !priv[r] {
			differ = b.Or(differ, b.Ne(outP[r], outQ[end[r]]))
		}
	}
	b.Assert(differ)
	if st := b.Solve(); st != sat.Unsat {
		var regs []string
		for r := range outP {
			if !priv[r] && b.Value(outP[r]) != b.Value(outQ[end[r]]) {
				regs = append(regs, p.RegName(r))
			}
		}
		t.Fatalf("%d bits: the optimized program differs (%v) in %v\nprogram:\n%s\noptimized:\n%s", bits, st, regs, p, q)
	}
}

// TestOptimizeRewrites pins each rewrite, and each condition that keeps one
// from applying, to the listing it leaves, and proves every result equal to
// its program (ProveOptimized).
func TestOptimizeRewrites(t *testing.T) {
	type regs struct {
		x, y, z, t, u, zero int
		seen                []int // x, y and z: what most cases observe
	}
	cases := []struct {
		name  string
		bits  int
		build func(b *Builder, r regs) (observed []int)
		want  string
	}{
		{"a compare and its branch fuse", 32, func(b *Builder, r regs) []int {
			b.Op(Lt, r.t, r.x, r.y)
			j := b.Branch(Jne, r.t, r.zero)
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(j)
			return r.seen
		}, "jlt x, y -> 2|mov z, #1"},
		{"a jeq fuses to the negation, a test of #0 either way round", 32, func(b *Builder, r regs) []int {
			b.Op(Le, r.t, r.x, r.y)
			j := b.Branch(Jeq, r.zero, r.t)
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(j)
			return r.seen
		}, "jgt x, y -> 2|mov z, #1"},
		{"a write to x between keeps the compare", 32, func(b *Builder, r regs) []int {
			b.Op(Lt, r.t, r.x, r.y)
			b.Op(Mov, r.x, b.Const(5), 0)
			j := b.Branch(Jne, r.t, r.zero)
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(j)
			return r.seen
		}, "lt t4, x, y|mov x, #5|jne t4, #0 -> 4|mov z, #1"},
		{"so does an observed register", 32, func(b *Builder, r regs) []int {
			b.Op(Lt, r.t, r.x, r.y)
			j := b.Branch(Jne, r.t, r.zero)
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(j)
			return append(r.seen, r.t)
		}, "lt t4, x, y|jne t4, #0 -> 3|mov z, #1"},
		{"and a jump onto the branch", 32, func(b *Builder, r regs) []int {
			b.Op(Lt, r.t, r.x, r.y)
			skip := b.Branch(Jeq, r.x, r.y)
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(skip)
			j := b.Branch(Jne, r.t, r.zero)
			b.Op(Mov, r.z, b.Const(2), 0)
			b.Land(j)
			return r.seen
		}, "lt t4, x, y|jeq x, y -> 3|mov z, #1|jne t4, #0 -> 5|mov z, #2"},
		{"identities", 32, func(b *Builder, r regs) []int {
			b.Op(Add, r.x, r.y, r.zero)
			b.Op(Add, r.y, r.zero, r.z)
			b.Op(Sub, r.z, r.x, r.zero)
			b.Op(Mov, r.x, r.x, 0)
			return r.seen
		}, "mov x, y|mov y, z|mov z, x"},
		{"a test of a compare's 0/1 is the compare", 32, func(b *Builder, r regs) []int {
			b.Op(Eq, r.u, r.x, r.y)
			b.Op(Ne, r.z, r.u, r.zero)
			b.Op(Ne, r.y, r.zero, r.u)
			return r.seen
		}, "eq t5, x, y|mov y, t5|end z: t5"},
		{"but not of a register something else writes", 32, func(b *Builder, r regs) []int {
			b.Op(Eq, r.u, r.x, r.y)
			j := b.Branch(Jeq, r.x, r.zero)
			b.Op(Add, r.u, r.x, r.y)
			b.Land(j)
			b.Op(Ne, r.z, r.u, r.zero)
			return r.seen
		}, "eq t5, x, y|jeq x, #0 -> 3|add t5, x, y|ne z, t5, #0"},
		{"nor of one a path reads unwritten", 32, func(b *Builder, r regs) []int {
			j := b.Branch(Jeq, r.x, r.zero)
			b.Op(Eq, r.u, r.x, r.y)
			b.Land(j)
			b.Op(Ne, r.z, r.u, r.zero)
			return r.seen
		}, "jeq x, #0 -> 2|eq t5, x, y|ne z, t5, #0"},
		{"a read of a register a mov set reads the mov's source", 32, func(b *Builder, r regs) []int {
			b.Op(Mov, r.t, r.x, 0)
			b.Op(Mov, r.y, b.Const(3), 0)
			b.Op(Add, r.z, r.y, r.t)
			return r.seen
		}, "add z, #3, x|end y: #3"},
		{"unless its source is written first", 32, func(b *Builder, r regs) []int {
			b.Op(Mov, r.t, r.x, 0)
			b.Op(Mov, r.x, b.Const(3), 0)
			b.Op(Add, r.z, r.y, r.t)
			return r.seen
		}, "mov t4, x|mov x, #3|add z, y, t4"},
		{"but not only in its block", 32, func(b *Builder, r regs) []int {
			b.Op(Mov, r.t, r.x, 0)
			j := b.Branch(Jeq, r.y, r.zero)
			b.Op(Mov, r.y, b.Const(3), 0)
			b.Land(j)
			b.Op(Add, r.z, r.y, r.t)
			return r.seen
		}, "jeq y, #0 -> 2|mov y, #3|add z, y, x"},
		{"jumps thread through jmps and decided branches", 32, func(b *Builder, r regs) []int {
			lt := b.Branch(Jlt, r.x, r.y)
			b.Op(Mov, r.z, b.Const(1), 0)
			j := b.Jump()
			b.Land(lt)
			ge := b.Branch(Jge, r.y, r.x) // reached where x < y: taken
			b.Op(Mov, r.z, b.Const(2), 0)
			b.Land(j)
			j2 := b.Jump() // j lands on it
			b.Op(Mov, r.z, b.Const(3), 0)
			b.Land(ge, j2)
			b.Op(Add, r.y, r.y, r.z)
			return r.seen
		}, "jlt x, y -> 2|mov z, #1|add y, y, z"},
		{"a branch onto one its outcome rules out goes past it", 32, func(b *Builder, r regs) []int {
			lt := b.Branch(Jlt, r.x, r.y)
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(lt)
			gt := b.Branch(Jgt, r.x, r.y)
			b.Op(Mov, r.z, b.Const(2), 0)
			b.Land(gt)
			return r.seen
		}, "jlt x, y -> 3|mov z, #1|jgt x, y -> 4|mov z, #2"},
		{"code no path reaches goes", 32, func(b *Builder, r regs) []int {
			j := b.Jump()
			b.Op(Mov, r.z, b.Const(1), 0)
			b.Land(j)
			b.Op(Add, r.y, r.y, b.Const(2))
			return r.seen
		}, "add y, y, #2"},
		{"dead jumps and dead writes go", 32, func(b *Builder, r regs) []int {
			b.Op(Mul, r.t, r.x, r.y)
			b.Op(Mul, r.u, r.x, r.z)
			j := b.Branch(Jeq, r.x, r.y)
			b.Land(j)
			b.Op(Add, r.z, r.u, r.y)
			return r.seen
		}, "mul t5, x, z|add z, t5, y"},
		{"a value a register holds is read there, across blocks", 32, func(b *Builder, r regs) []int {
			b.Op(Mul, r.t, r.x, b.Const(3))
			j := b.Branch(Jeq, r.y, r.zero)
			b.Op(Add, r.z, r.z, r.y)
			b.Land(j)
			b.Op(Mul, r.u, r.x, b.Const(3))
			b.Op(Add, r.z, r.z, r.u)
			return r.seen
		}, "mul t4, x, #3|jeq y, #0 -> 3|add z, z, y|add z, z, t4"},
		{"with its operands swapped, and through a copy", 32, func(b *Builder, r regs) []int {
			b.Op(Lt, r.t, r.x, r.y)
			b.Op(Mov, r.u, r.x, 0)
			b.Op(Gt, r.u, r.y, r.u)
			b.Op(Add, r.z, r.t, r.u)
			return r.seen
		}, "lt t4, x, y|add z, t4, t4"},
		{"but not after a path writes an operand", 32, func(b *Builder, r regs) []int {
			b.Op(Mul, r.t, r.x, b.Const(3))
			j := b.Branch(Jeq, r.y, r.zero)
			b.Op(Mov, r.x, r.y, 0)
			b.Land(j)
			b.Op(Mul, r.u, r.x, b.Const(3))
			b.Op(Add, r.z, r.t, r.u)
			return r.seen
		}, "mul t4, x, #3|jeq y, #0 -> 3|mov x, y|mul t5, x, #3|add z, t4, t5"},
		{"nor of another constant", 32, func(b *Builder, r regs) []int {
			b.Op(Mul, r.t, r.x, b.Const(3))
			b.Op(Mul, r.u, r.x, b.Const(5))
			b.Op(Add, r.z, r.t, r.u)
			return r.seen
		}, "mul t4, x, #3|mul t5, x, #5|add z, t4, t5"},
		{"a named register nobody observes is private", 32, func(b *Builder, r regs) []int {
			b.Op(Mul, r.x, r.y, r.y)
			b.Op(Add, r.z, r.x, r.y)
			return []int{r.z}
		}, "mul x, y, y|add z, x, y"},
		{"a write every path overwrites goes", 32, func(b *Builder, r regs) []int {
			b.Op(Add, r.z, r.x, r.y)
			j := b.Branch(Jeq, r.x, r.zero)
			b.Op(Sub, r.z, r.x, r.y)
			k := b.Jump()
			b.Land(j)
			b.Op(Mul, r.z, r.x, r.y)
			b.Land(k)
			return r.seen
		}, "jeq x, #0 -> 3|sub z, x, y|jmp -> 4|mul z, x, y"},
		{"but not one a Trap can leave", 32, func(b *Builder, r regs) []int {
			b.Op(Add, r.z, r.x, r.y)
			b.Op(Trap, r.u, r.y, 1)
			b.Op(Mul, r.z, r.x, r.y)
			return append(r.seen, r.u)
		}, "add z, x, y|trap t5, y, 1|mul z, x, y"},
		{"an observed register that ends a copy ends in its source", 32, func(b *Builder, r regs) []int {
			b.Op(Add, r.t, r.x, r.y)
			j := b.Branch(Jeq, r.x, r.zero)
			b.Op(Mov, r.z, r.t, 0)
			k := b.Jump()
			b.Land(j)
			b.Op(Mov, r.z, r.t, 0)
			b.Land(k)
			return r.seen
		}, "add t4, x, y|end z: t4"},
		{"unless a path writes the source after the copy", 32, func(b *Builder, r regs) []int {
			b.Op(Add, r.t, r.x, r.y)
			b.Op(Mov, r.z, r.t, 0)
			j := b.Branch(Jeq, r.x, r.zero)
			b.Op(Add, r.t, r.t, r.y)
			b.Land(j)
			b.Op(Add, r.y, r.y, r.t)
			return r.seen
		}, "add t4, x, y|mov z, t4|jeq x, #0 -> 4|add t4, t4, y|add y, y, t4"},
		{"or the exits leave copies of two registers", 32, func(b *Builder, r regs) []int {
			j := b.Branch(Jeq, r.x, r.zero)
			b.Op(Mov, r.z, r.x, 0)
			k := b.Jump()
			b.Land(j)
			b.Op(Mov, r.z, r.y, 0)
			b.Land(k)
			return r.seen
		}, "jeq x, #0 -> 3|mov z, x|jmp -> 4|mov z, y"},
		{"or a Trap leaves another", 32, func(b *Builder, r regs) []int {
			b.Op(Mov, r.z, r.x, 0)
			b.Op(Trap, r.u, r.y, 1)
			b.Op(Mov, r.z, r.y, 0)
			return append(r.seen, r.u)
		}, "mov z, x|trap t5, y, 1|mov z, y"},
		{"a branch a branch before it decides goes", 32, func(b *Builder, r regs) []int {
			gt := b.Branch(Jgt, r.x, r.y)
			b.Op(Add, r.z, r.z, r.x)
			again := b.Branch(Jgt, r.x, r.y) // reached where x <= y: never taken
			b.Op(Add, r.z, r.z, r.y)
			b.Land(gt, again)
			return r.seen
		}, "jgt x, y -> 3|add z, z, x|add z, z, y"},
		{"or becomes a jmp", 32, func(b *Builder, r regs) []int {
			gt := b.Branch(Jgt, r.x, r.y)
			b.Op(Add, r.z, r.z, r.x)
			ge := b.Branch(Jge, r.y, r.x) // reached where x <= y: always taken
			b.Op(Add, r.z, r.z, r.y)
			b.Land(gt, ge)
			return r.seen
		}, "jgt x, y -> 2|add z, z, x"},
		{"but not past a write of what it compares", 32, func(b *Builder, r regs) []int {
			gt := b.Branch(Jgt, r.x, r.y)
			b.Op(Add, r.x, r.z, r.x)
			again := b.Branch(Jgt, r.x, r.y)
			b.Op(Add, r.z, r.z, r.y)
			b.Land(gt, again)
			return r.seen
		}, "jgt x, y -> 4|add x, z, x|jgt x, y -> 4|add z, z, y"},
		{"a branch of a register with itself is decided", 32, func(b *Builder, r regs) []int {
			eq := b.Branch(Jeq, r.x, r.x)
			b.Op(Add, r.z, r.z, r.x)
			b.Land(eq)
			lt := b.Branch(Jlt, b.Const(2), b.Const(2))
			b.Op(Add, r.z, r.z, r.y)
			b.Land(lt)
			return r.seen
		}, "add z, z, y"},
		{"a mod by 2^k is an and where 2^k-1 is a constant", 32, func(b *Builder, r regs) []int {
			b.Op(Mod, r.z, r.x, b.Const(8))
			b.Op(Mod, r.y, r.x, b.Const(4))
			b.Const(7)
			return r.seen
		}, "and z, x, #7|mod y, x, #4"},
	}
	for _, c := range cases {
		b := NewBuilder(phv.MustWidth(c.bits))
		var r regs
		r.x, r.y, r.z = b.Reg("x", 0), b.Reg("y", 0), b.Reg("z", 0)
		r.zero = b.Const(0)
		r.t, r.u = b.reg("", 0, false), b.reg("", 0, false) // t4 and t5
		r.seen = []int{r.x, r.y, r.z}
		observed := c.build(b, r)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		q, end, err := Optimize(p, observed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(q.String()), "\n") {
			if line != "" {
				got = append(got, strings.Join(strings.Fields(line)[1:], " "))
			}
		}
		for r, e := range end {
			if e != r {
				got = append(got, fmt.Sprintf("end %s: %s", p.RegName(r), p.RegName(e)))
			}
		}
		if strings.Join(got, "|") != c.want {
			t.Errorf("%s: got\n%s\nwant %s\nfrom\n%s", c.name, q, c.want, p)
		}
		ProveOptimized(t, p, q, end, observed)
	}
}

// TestOptimizeFusesEveryCompare: each compare and a jeq or jne of its result
// against #0 fuse to the compare-and-branch of the same predicate — the
// compare's own for a jne, its negation for a jeq (Eq→Jne Ne→Jeq Lt→Jge
// Gt→Jle Le→Jgt Ge→Jlt) — and the fused program runs as the two did on
// operands below, at and above one another, negative ones too.
func TestOptimizeFusesEveryCompare(t *testing.T) {
	fused := map[Op][2]Op{ // compare -> the fusion with Jeq, with Jne
		Eq: {Jne, Jeq}, Ne: {Jeq, Jne}, Lt: {Jge, Jlt}, Gt: {Jle, Jgt}, Le: {Jgt, Jle}, Ge: {Jlt, Jge},
	}
	for cmp, want := range fused {
		for i, br := range []Op{Jeq, Jne} {
			for _, bits := range []int{8, 62} {
				b := NewBuilder(phv.MustWidth(bits))
				x, y, z := b.Reg("x", 0), b.Reg("y", 0), b.Reg("z", 0)
				j := b.Branch(br, b.Op(cmp, -1, x, y), b.Const(0))
				b.Op(Mov, z, b.Const(1), 0)
				b.Land(j)
				p, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				seen := []int{x, y, z}
				q, end, err := Optimize(p, seen)
				if err != nil {
					t.Fatal(err)
				}
				if q.Len() != 2 || q.code[0].Op != want[i] {
					t.Fatalf("%s then %s: got\n%swant %s x, y", ops[cmp].name, ops[br].name, q, ops[want[i]].name)
				}
				for _, vx := range []int64{-2, 0, 1, 2, 3} {
					for _, vy := range []int64{-2, 0, 1, 2, 3} {
						fp, fq := p.NewFrame(), q.NewFrame()
						fp[x], fp[y], fq[x], fq[y] = vx, vy, vx, vy
						p.Run(fp)
						q.Run(fq)
						if fp[z] != fq[end[z]] {
							t.Fatalf("%s then %s on %d, %d: z = %d, fused %s: %d", ops[cmp].name, ops[br].name, vx, vy, fp[z], ops[want[i]].name, fq[z])
						}
					}
				}
				ProveOptimized(t, p, q, end, seen)
			}
		}
	}
}

// FuzzOptimize pins Optimize to Run: a decoded program (FuzzLink's decoder,
// with two more registers, out0 and out1, that copies write and nothing
// reads) and a fuzzed set of observed registers, out0 and out1 always among
// them; from frames of values of the program's width, the optimized program
// — its private registers started from other values — must stop where the
// program does and leave in end[r] what the program leaves in every other
// register r.
func FuzzOptimize(f *testing.F) {
	// A compare and the jne on it fuse, a jmp onto a jmp threads, code no
	// path reaches goes; g2 is observed, so its dead write stays.
	f.Add([]byte{7, 1, 2, 20, 0x45, 8, 0, 1, 3, 12, 0, 1, 0, 1, 3, 12, 0, 1, 1, 1, 3, 2, 1, 7}, uint8(0x08), int64(1))
	// The same with the compare's register observed too: nothing fuses.
	f.Add([]byte{7, 1, 2, 20, 0x45, 8, 0, 1, 3, 12, 0, 1, 0, 1, 3, 12, 0, 1, 1, 1, 3, 2, 1, 7}, uint8(0x18), int64(2))
	// A write to a compared register between the compare and its branch.
	f.Add([]byte{9, 1, 2, 11, 3, 3, 19, 0x45, 8, 0, 2, 3, 0, 1, 1}, uint8(0x06), int64(3))
	// A test of a compare's 0/1, mov g2, g2, an identity.
	f.Add([]byte{5, 1, 2, 6, 4, 14, 11, 3, 1, 0, 1, 8, 0, 3, 3}, uint8(0x0e), int64(4))
	// Branches that decide one another; a mod by 4 beside the constant 3.
	f.Add([]byte{21, 0x41, 2, 21, 0x41, 2, 24, 0x02, 1, 4, 1, 0x48, 0, 2, 0x38, 1, 1, 3}, uint8(0x06), int64(5))
	// Banks and a Trap between a compare and its branch.
	f.Add([]byte{17, 1, 2, 8, 3, 4, 13, 2, 1, 20, 0x43, 8, 15, 1, 0x81}, uint8(0x01), int64(6))
	// One value computed twice, the second time with its operands swapped,
	// and copied into out0: out0 ends in the first one's register.
	f.Add([]byte{2, 1, 2, 2, 7, 1, 0x80, 0, 3}, uint8(0), int64(7))
	// Copies of g2 into out1 on both arms of a branch, and a write of g2
	// after the copy on one of them.
	f.Add([]byte{19, 0xc4, 2, 0x80, 1, 3, 11, 1, 3, 12, 0, 1, 0x80, 1, 3}, uint8(0), int64(8))
	// A copy of g0 into out0 before a Trap, and one of g1 after it.
	f.Add([]byte{0x80, 0, 1, 13, 2, 1, 0x80, 0, 2}, uint8(0), int64(9))
	// Every pure operation on two constants folds: #7 op #3 into g0, copied
	// into out0; division and modulo by #0; and a sum that wraps at 8 bits,
	// 15*15 into g0 and #15 added three times, g3 = 270 - 256 = 14.
	for _, op := range []Op{Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Gt, Le, Ge, And} {
		f.Add([]byte{byte(op), 0x78, 0x38, 0x80, 0, 1}, uint8(0), int64(10+op))
	}
	f.Add([]byte{byte(Div), 0x78, 0x08, 0x80, 0, 1}, uint8(0), int64(30))
	f.Add([]byte{byte(Mod), 0x78, 0x08, 0x80, 0, 1}, uint8(0), int64(31))
	f.Add([]byte{byte(Mul), 0xf8, 0xf8, byte(Add), 1, 0xf8, byte(Add), 2, 0xf8, byte(Add), 3, 0xf8, 0x80, 0, 4}, uint8(0), int64(32))
	// Each compare-and-branch on #7 and #3 jumps over a copy of #5 into out0,
	// or does not: it becomes a jmp or goes.
	for _, op := range []Op{Jeq, Jne, Jlt, Jgt, Jle, Jge} {
		f.Add([]byte{byte(op), 0x78, 0x38, 0x80, 0, 0x58, 0x80, 1, 1}, uint8(0), int64(20+op))
	}
	f.Fuzz(func(t *testing.T, code []byte, observedBits uint8, seed int64) {
		p, outs := decode(t, phv.MustWidth(8), code, 2)
		observed := outs
		for r := range p.init {
			if observedBits>>(r%8)&1 != 0 {
				observed = append(observed, r)
			}
		}
		q, end, err := Optimize(p, observed)
		if err != nil {
			t.Fatalf("%v\n%s", err, p)
		}
		private := privateRegs(p, observed)
		rng := rand.New(rand.NewSource(seed))
		for range 8 {
			start := p.NewFrame()
			for r := range start {
				if !p.fixed[r] {
					start[r] = rng.Int63n(1 << 8)
				}
			}
			want, got := slices.Clone(start), q.NewFrame() // a fold may append constants to q's frame
			copy(got, start)
			for r := range start {
				if private[r] {
					got[r] = rng.Int63n(1 << 8)
				}
			}
			p.Run(want)
			q.Run(got)
			for r := range want {
				if !private[r] && got[end[r]] != want[r] {
					t.Fatalf("register %s, at %s: optimized %d, program %d\nfrom %v\nprogram:\n%s\noptimized:\n%s", p.RegName(r), p.RegName(end[r]), got[end[r]], want[r], start, p, q)
				}
			}
		}
	})
}
