package flat

import (
	"math/rand"
	"slices"
	"testing"

	"druzhba/internal/bv"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
)

// FuzzSymVsRun pins Sym to Run: a decoded program (every opcode, banks that
// wrap by modulo and by mask, compare-and-branches and Traps) runs on a frame
// of concrete values — full-range, negative, small and all-ones ones — and
// Sym over the same values as constants must fold to exactly the frame Run
// leaves, with the trap condition the constant that says whether a Trap
// stopped it. Over free variables instead, every branch splits and every join
// merges; pinned to the same values, the frame and the trap condition Sym
// returns must evaluate to Run's. Where the program's constants fit its
// width, both checks run again on a frame of that width, from the values
// masked to it.
func FuzzSymVsRun(f *testing.F) {
	// Arithmetic on everything: div and mod of negatives, signed compares.
	f.Add([]byte{3, 1, 2, 4, 2, 1, 7, 3, 4, 8, 2, 3, 9, 4, 1, 10, 1, 3, 1, 8, 2, 5, 3, 9, 6, 4, 10}, uint8(62), int64(1))
	f.Add([]byte{0, 1, 2, 1, 3, 4, 2, 2, 3, 5, 4, 1, 6, 1, 1, 11, 2, 3, 14, 3, 0x48}, uint8(8), int64(2))
	// Branches against #0 that join, a Jmp over a Trap, a Trap that fires.
	f.Add([]byte{19, 0x83, 8, 0, 1, 2, 20, 0x43, 8, 1, 3, 3, 12, 0, 1, 13, 1, 0, 2, 4, 4}, uint8(16), int64(3))
	f.Add([]byte{13, 0x08, 2, 0, 1, 1}, uint8(62), int64(4)) // at width 1 the Trap's code 3 is cut to 1
	// Banks: a modulo store and load at negative indices, a mask store; at
	// width 1 only cells 0 and 1 can be indexed.
	f.Add([]byte{17, 1, 2, 15, 1, 3, 18, 0x81, 4, 16, 2, 0x82, 15, 3, 0x01}, uint8(62), int64(5))
	f.Add([]byte{17, 2, 0x29, 19, 1, 0x2a, 17, 3, 4, 16, 3, 0x83, 19, 0x14, 0x6b, 0, 3, 4}, uint8(8), int64(6))
	f.Add([]byte("*00"), uint8(0x1c), int64(-24)) // a store at a negative index into the modulo bank
	// Compare-and-branches that land on one another and on the end, one of
	// them comparing a register with itself.
	f.Add([]byte{19, 1, 0xe0, 20, 2, 2, 0, 1, 2, 19, 0x43, 0x38, 1, 2, 3, 11, 4, 1}, uint8(32), int64(7))
	// A jlt, jgt, jle and jge, one each: signed at 64 bits over negative and
	// full-range values, unsigned at the program's width.
	f.Add([]byte{21, 0x42, 2, 0, 1, 2, 1, 2, 1}, uint8(62), int64(11))
	f.Add([]byte{22, 0x43, 0x38, 11, 2, 0, 0, 3, 4}, uint8(7), int64(12))
	f.Add([]byte{23, 0x81, 4, 0, 1, 2, 1, 3, 4, 2, 2, 3}, uint8(9), int64(13))
	f.Add([]byte{24, 0x47, 3, 0, 2, 3, 14, 1, 7}, uint8(62), int64(14))
	// The widths verify proves at (8 and 10 bits) and Table 1 fuzzes at (32):
	// unsigned arithmetic, division and compares (seed 105 draws operands
	// with the top bit set, which a signed division misreads); branches and
	// a Trap; banks.
	f.Add([]byte{3, 1, 2, 4, 2, 1, 7, 3, 4, 8, 2, 3, 9, 4, 1, 10, 1, 3, 1, 8, 2, 5, 3, 9, 6, 4, 10}, uint8(7), int64(105))
	f.Add([]byte{19, 0x83, 8, 0, 1, 2, 20, 0x43, 8, 1, 3, 3, 12, 0, 1, 13, 1, 0, 2, 4, 4}, uint8(9), int64(9))
	f.Add([]byte{17, 1, 2, 15, 1, 3, 18, 0x81, 4, 16, 2, 0x82, 15, 3, 0x01}, uint8(31), int64(10))
	f.Fuzz(func(t *testing.T, code []byte, bits uint8, seed int64) {
		p := decodeProgram(t, phv.MustWidth(1+int(bits)%62), code)
		rng := rand.New(rand.NewSource(seed))
		start := p.NewFrame()
		for r := 1; r < len(start); r++ {
			if p.fixed[r] {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				start[r] = int64(rng.Uint64())
			case 1:
				start[r] = -rng.Int63n(8)
			case 2:
				start[r] = 1<<(1+rng.Intn(62)) - 1
			default:
				start[r] = rng.Int63n(8)
			}
		}
		symVsRun(t, p, SymBits, start)
		mask := p.w.Mask()
		for r, v := range p.init {
			if p.fixed[r] && v&mask != v {
				return
			}
		}
		for r := range start {
			start[r] &= mask
		}
		symVsRun(t, p, p.w.Bits(), start)
	})
}

// symVsRun runs p from start, and Sym on a frame of the given width: over
// constants it must fold to the frame Run leaves, over free vectors pinned to
// start it must evaluate to it. A register is compared at the frame's width,
// which cuts only a Trap code.
func symVsRun(t *testing.T, p *Program, bits int, start []int64) {
	t.Helper()
	frame := slices.Clone(start)
	p.Run(frame) // register 0, the trap register, starts 0: a Trap sets it to 1..5
	want := func(r int) int64 { return frame[r] & (1<<bits - 1) }
	if bits == SymBits {
		want = func(r int) int64 { return frame[r] }
	}
	b := bv.NewBuilder(sat.New())
	out, trapped := p.Sym(b, p.SymFrame(b, bits, func(r int) bv.Vec { return b.Const(bits, start[r]) }))
	if trapped != b.Lit(frame[0] != 0) {
		t.Fatalf("%d-bit frame: trap: Sym %v, Run stopped at a trap: %v\n%s", bits, trapped, frame[0] != 0, p)
	}
	for r, v := range out {
		got, ok := b.ConstValue(v)
		if !ok || got != want(r) {
			t.Fatalf("%d-bit frame: register %s: Sym %d (constant %v), Run %d\n%s", bits, p.RegName(r), got, ok, want(r), p)
		}
	}

	b = bv.NewBuilder(sat.New())
	free := p.SymFrame(b, bits, func(r int) bv.Vec { return b.Var(bits) })
	out, trapped = p.Sym(b, free)
	for r, v := range free {
		b.AssertEq(v, b.Const(bits, start[r]))
	}
	if st := b.Solve(); st != sat.Sat {
		t.Fatalf("%d-bit frame: pinning the free frame: %v", bits, st)
	}
	if got := b.Value(bv.Vec{trapped}) != 0; got != (frame[0] != 0) {
		t.Fatalf("%d-bit frame: trap over free registers: Sym %v, Run %v\n%s", bits, got, frame[0] != 0, p)
	}
	for r, v := range out {
		if got := b.Value(v); got != want(r) {
			t.Fatalf("%d-bit frame: register %s over free registers: Sym %d, Run %d\n%s", bits, p.RegName(r), got, want(r), p)
		}
	}
}

// TestSymZeroFact: on the path where a Jeq or Jne found a register equal to
// the constant-0 register, Sym holds it as the constant 0, so a second test
// of it there folds — no decision, no split, and at the join of that test's
// target no ITE for it — and the program evaluates, literal for literal, as
// the program without that test and the instruction it skips. A compare
// with any other constant leaves the register as it was.
func TestSymZeroFact(t *testing.T) {
	build := func(edit func(b *Builder, x, y int)) *Program {
		b := NewBuilder(phv.Default32)
		x, y := b.Reg("x", 0), b.Reg("y", 0)
		edit(b, x, y)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// once's registers are the first of twice's: x, y, #0, #2.
	twice := build(func(b *Builder, x, y int) {
		zero, two := b.Const(0), b.Const(2)
		nonzero := b.Branch(Jne, x, zero)
		again := b.Branch(Jeq, x, zero) // x is 0 here: always taken
		b.Op(Add, y, y, b.Const(1))
		b.Land(again)
		b.Op(Add, y, y, two)
		b.Land(nonzero)
	})
	once := build(func(b *Builder, x, y int) {
		nonzero := b.Branch(Jne, x, b.Const(0))
		b.Op(Add, y, y, b.Const(2))
		b.Land(nonzero)
	})
	bb := bv.NewBuilder(sat.New())
	free := twice.SymFrame(bb, SymBits, func(int) bv.Vec { return bb.Var(SymBits) })
	got, trapped := twice.Sym(bb, free)
	want, _ := once.Sym(bb, free[:len(once.init)])
	if trapped != bb.False() {
		t.Fatalf("a program without a Trap traps on %v", trapped)
	}
	for r := range want {
		if !same(got[r], want[r]) {
			t.Errorf("%s: the second test of x did not fold\n%s", twice.RegName(r), twice)
		}
	}
	if same(got[0], free[0]) {
		t.Error("x is not the constant 0 on the path where it equals #0")
	}

	five := build(func(b *Builder, x, _ int) { b.Land(b.Branch(Jeq, x, b.Const(5))) })
	free = five.SymFrame(bb, SymBits, func(int) bv.Vec { return bb.Var(SymBits) })
	if out, _ := five.Sym(bb, free); !same(out[0], free[0]) {
		t.Errorf("jeq x, #5 changed x: %v, was %v", out[0], free[0])
	}
}
