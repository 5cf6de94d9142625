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
// wrap by modulo and by mask, Matches and Traps) runs on a frame of concrete
// values — full-range, negative, small and all-ones ones — and Sym over the
// same values as constants must fold to exactly the frame Run leaves, with
// the trap condition the constant that says whether a Trap stopped it. Over
// free variables instead, every branch splits and every join merges; pinned
// to the same values, the frame and the trap condition Sym returns must
// evaluate to Run's.
func FuzzSymVsRun(f *testing.F) {
	// Arithmetic on everything: div and mod of negatives, signed compares.
	f.Add([]byte{3, 1, 2, 4, 2, 1, 7, 3, 4, 8, 2, 3, 9, 4, 1, 10, 1, 3, 11, 2, 4, 12, 3, 1, 13, 4, 2}, uint8(62), int64(1))
	f.Add([]byte{0, 1, 2, 1, 3, 4, 2, 2, 3, 5, 4, 1, 6, 1, 1, 14, 2, 3, 19, 3, 0x48}, uint8(8), int64(2))
	// Branches that join, a Jmp over a Trap, a Trap that fires.
	f.Add([]byte{15, 1, 2, 0, 1, 2, 16, 2, 1, 1, 3, 3, 17, 0, 1, 18, 1, 0, 2, 4, 4}, uint8(16), int64(3))
	f.Add([]byte{18, 0x08, 2, 0, 1, 1}, uint8(62), int64(4))
	// Banks: a modulo store and load at negative indices, a mask store.
	f.Add([]byte{22, 1, 2, 20, 1, 3, 23, 0x81, 4, 21, 2, 0x82, 20, 3, 0x01}, uint8(62), int64(5))
	f.Add([]byte{22, 2, 0x29, 24, 1, 0x2a, 22, 3, 4, 21, 3, 0x83, 24, 0x14, 0x6b, 0, 3, 4}, uint8(8), int64(6))
	f.Add([]byte("000"), uint8(0x1c), int64(-24)) // a store at a negative index into the modulo bank
	// Matches whose outcomes land on one another and on the end.
	f.Add([]byte{24, 1, 0xe0, 24, 2, 0x10, 0, 1, 2, 24, 3, 0x38, 1, 2, 3, 14, 4, 1}, uint8(32), int64(7))
	f.Fuzz(func(t *testing.T, code []byte, bits uint8, seed int64) {
		p := decodeProgram(t, phv.MustWidth(1+int(bits)%62), code)
		rng := rand.New(rand.NewSource(seed))
		frame := p.NewFrame()
		for r := 1; r < len(frame); r++ {
			if p.fixed[r] {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				frame[r] = int64(rng.Uint64())
			case 1:
				frame[r] = -rng.Int63n(8)
			case 2:
				frame[r] = 1<<(1+rng.Intn(62)) - 1
			default:
				frame[r] = rng.Int63n(8)
			}
		}
		start := slices.Clone(frame)
		b := bv.NewBuilder(sat.New())
		out, trapped := p.Sym(b, p.SymFrame(b, func(r int) bv.Vec { return b.Const(SymBits, frame[r]) }))
		p.Run(frame) // register 0, the trap register, starts 0: a Trap sets it to 1..5
		if want := b.Lit(frame[0] != 0); trapped != want {
			t.Fatalf("trap: Sym %v, Run stopped at a trap: %v\n%s", trapped, frame[0] != 0, p)
		}
		for r, v := range out {
			got, ok := b.ConstValue(v)
			if !ok || got != frame[r] {
				t.Fatalf("register %s: Sym %d (constant %v), Run %d\n%s", p.RegName(r), got, ok, frame[r], p)
			}
		}

		b = bv.NewBuilder(sat.New())
		free := p.SymFrame(b, func(r int) bv.Vec { return b.Var(SymBits) })
		out, trapped = p.Sym(b, free)
		for r, v := range free {
			b.AssertEq(v, b.Const(SymBits, start[r]))
		}
		if st := b.Solve(); st != sat.Sat {
			t.Fatalf("pinning the free frame: %v", st)
		}
		if got := b.Value(bv.Vec{trapped}) != 0; got != (frame[0] != 0) {
			t.Fatalf("trap over free registers: Sym %v, Run %v\n%s", got, frame[0] != 0, p)
		}
		for r, v := range out {
			if got := b.Value(v); got != frame[r] {
				t.Fatalf("register %s over free registers: Sym %d, Run %d\n%s", p.RegName(r), got, frame[r], p)
			}
		}
	})
}
