package flat

import (
	"strings"
	"testing"

	"druzhba/internal/phv"
)

// linkRegs is how many general registers a decoded program has after its
// trap register, register 0, which only a Trap writes.
const linkRegs = 4

// decodeProgram builds a program from data, three bytes per instruction: an
// opcode (value ops, jumps, Trap, bank loads and stores, Match) and two
// operand bytes. Register 0 is the trap register; values are written to
// registers 1..linkRegs and read from any of those or a constant; a bank of
// three cells wraps by modulo, one of four by mask; a jump, and each of a
// Match's two outcomes, lands a byte-chosen distance ahead. The datapath is
// w bits wide.
func decodeProgram(t *testing.T, w phv.Width, data []byte) *Program {
	t.Helper()
	b := NewBuilder(w)
	first := b.Reg("trap", 0)
	b.Regs("g", linkRegs)
	odd, _ := b.Bank("odd", 3, 0x3f)
	four, _ := b.Bank("four", 4, 0xff)
	reg := func(v byte) int {
		if v&8 != 0 {
			return b.Const(int64(v >> 4))
		}
		return first + int(v)%(linkRegs+1)
	}
	dst := func(v byte) int { return first + 1 + int(v)%linkRegs }
	bank := func(v byte) int { return []int{odd, four}[v>>7] }
	landAt := map[int][]int{} // instruction index -> jumps that land there
	outAt := map[int][]int{}  // ... and outcomes
	for pc := 0; len(data) >= 3 && pc < 40; data, pc = data[3:], pc+1 {
		b.Land(landAt[pc]...)
		b.LandOutcome(outAt[pc]...)
		delete(landAt, pc)
		delete(outAt, pc)
		op, x, y := data[0]%(byte(Match)+1), data[1], data[2]
		switch Op(op) {
		case Jz, Jnz, Jmp:
			j := b.Jump(Op(op), reg(x))
			target := pc + 1 + int(y)%4
			landAt[target] = append(landAt[target], j)
		case Trap:
			b.Op(Trap, first, reg(x), 1+int(y)%5)
		case Load, LoadMask:
			b.Load(dst(x), bank(y), reg(y))
		case Store, StoreMask:
			b.Store(bank(x), reg(x), reg(y))
		case Match:
			k := b.Outcomes(Outcome{Reg: uint32(reg(x)), Mask: int64(y & 7), Key: int64(y >> 3 & 3)}, Outcome{})
			b.Match(k, 2)
			hit, miss := pc+1+int(y>>5)%4, pc+1+int(x>>4)%3
			outAt[hit] = append(outAt[hit], k)
			outAt[miss] = append(outAt[miss], k+1)
		default:
			b.Op(Op(op), dst(x^y), reg(x), reg(y))
		}
	}
	for _, js := range landAt {
		b.Land(js...)
	}
	for _, ks := range outAt {
		b.LandOutcome(ks...)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzLink pins Link to running its two programs one after the other: a on
// its own frame, then — unless a trapped — b on its own frame with every
// bound register copied in from a's final frame. On the linked frame every
// register of a must equal a's own (so b never reached one) and every
// register of b, found through the returned map, b's own, trap registers
// included; when a trapped, b's registers must still hold their initial
// values.
func FuzzLink(f *testing.F) {
	// a: arithmetic, a forward jz and a jmp; b: reads two bound registers,
	// writes a third bound one, and traps when g1 is zero.
	f.Add([]byte{0, 1, 2, 15, 3, 1, 17, 2, 3, 2, 4, 0}, []byte{1, 1, 2, 14, 3, 3, 18, 2, 1, 6, 4, 1}, uint16(0x1e), int64(0x0102030405))
	// b adds registers it reads bound, then traps.
	f.Add([]byte{2, 3, 4}, []byte{0, 1, 2, 0, 3, 3, 18, 4, 0}, uint16(0x06), int64(0x0a00000b0c))
	// a traps at once on its zero trap-input register: b never runs.
	f.Add([]byte{18, 0, 2, 0, 1, 2}, []byte{0, 1, 1, 18, 2, 0}, uint16(0xff), int64(7))
	// b writes bound g2 only after a Trap that fires, or only on the branch
	// not taken: either way the value copied in is the one b leaves.
	f.Add([]byte{}, []byte{18, 1, 0, 14, 2, 0}, uint16(0x08), int64(0x0007000009000003))
	f.Add([]byte{}, []byte{15, 1, 1, 14, 2, 0}, uint16(0x08), int64(0x0007000009000003))
	// Jumps in b to its end, and a constant read; nothing bound.
	f.Add([]byte{4, 9, 25}, []byte{15, 1, 3, 16, 2, 2, 17, 0, 1, 5, 2, 40}, uint16(0), int64(0x7f7f7f7f7f))
	// Banks and Matches on both sides: a stores into its four-cell bank and
	// loads back, b matches a bound register, stores into its three-cell bank
	// and loads by mask; Link rebases b's banks, outcomes and their targets.
	f.Add([]byte{22, 0x81, 2, 20, 1, 0x81, 24, 2, 0x29, 19, 1, 2}, []byte{24, 1, 0x2a, 22, 2, 3, 21, 3, 0x83, 24, 0x14, 0x6b, 0, 3, 4}, uint16(0x0e), int64(0x0302010405))
	// b's Match reads a register it writes after, bound: the mov comes first.
	f.Add([]byte{2, 3, 4}, []byte{24, 3, 0x10, 14, 3, 1, 20, 2, 0x84}, uint16(0x08), int64(0x0105000309))
	f.Fuzz(func(t *testing.T, codeA, codeB []byte, bindBits uint16, vals int64) {
		a, b := decodeProgram(t, phv.MustWidth(8), codeA), decodeProgram(t, phv.MustWidth(8), codeB)
		na := len(a.init)
		bind := map[int]int{}
		for r := range b.init {
			if bindBits>>(r%16)&1 != 0 && !b.fixed[r] && !b.cell(r) {
				bind[r] = (r*5 + int(vals&0xff)) % na
			}
		}
		p, regs, err := Link(a, b, bind)
		if err != nil {
			t.Fatal(err)
		}
		// Inputs: the general registers of both programs start at bytes of vals.
		start := func(frame []int64, salt int) {
			for i := 1; i <= linkRegs; i++ {
				frame[i] = (vals >> (8 * (i + salt))) & 0xff
			}
		}
		fa := a.NewFrame()
		start(fa, 0)
		a.Run(fa)
		fb := b.NewFrame()
		start(fb, 3)
		initB := append([]int64(nil), fb...)
		aTrapped := fa[0] != 0
		if !aTrapped {
			for r, src := range bind {
				fb[r] = fa[src]
			}
			b.Run(fb)
		}
		frame := p.NewFrame()
		start(frame, 0)
		for r := range initB {
			if regs[r] >= na {
				frame[regs[r]] = initB[r]
			}
		}
		p.Run(frame)
		for r := range fa {
			if frame[r] != fa[r] {
				t.Fatalf("register %s of a: linked %d, alone %d\nlinked:\n%s", a.RegName(r), frame[r], fa[r], p)
			}
		}
		for r := range fb {
			want := fb[r]
			if aTrapped {
				want = initB[r]
				if regs[r] < na {
					continue // renamed to a register of a, compared above
				}
			}
			if frame[regs[r]] != want {
				t.Fatalf("register %s of b (linked %s): linked %d, alone %d\nlinked:\n%s", b.RegName(r), p.RegName(regs[r]), frame[regs[r]], want, p)
			}
		}
	})
}

// TestLinkRefuses: what Link cannot link is an error, not a program.
func TestLinkRefuses(t *testing.T) {
	build := func(w phv.Width) (*Program, int, int) {
		b := NewBuilder(w)
		x := b.Reg("x", 0)
		one := b.Const(1)
		b.Op(Add, x, x, one)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p, x, one
	}
	a, _, _ := build(phv.Default32)
	b, x, one := build(phv.Default32)
	narrow, _, _ := build(phv.MustWidth(8))
	for want, tc := range map[string]struct {
		b    *Program
		bind map[int]int
	}{
		"link of a 8-bit program after a 32-bit one": {narrow, nil},
		"cannot bind #1 to register 0":               {b, map[int]int{one: 0}},
		"cannot bind x to register 2":                {b, map[int]int{x: 2}},
		"cannot bind x to register -1":               {b, map[int]int{x: -1}},
		"1 bound registers are not registers":        {b, map[int]int{x: 0, 7: 0}},
	} {
		if _, _, err := Link(a, tc.b, tc.bind); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want %q: err %v", want, err)
		}
	}
	// A bank's cells stay consecutive: none can be renamed to a's register.
	bb := NewBuilder(phv.Default32)
	_, cell := bb.Bank("bk", 2, -1)
	banked, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Link(a, banked, map[int]int{cell + 1: 0}); err == nil || !strings.Contains(err.Error(), "cannot bind bk[1]") {
		t.Errorf("bound a bank cell: err %v", err)
	}
}

// TestLinkListing: the linked program disassembles with both parts' register
// names, temporaries and constants named by their linked index and value, the
// mov that copies a bound register b writes, b's jump targets moved past a's,
// and a renamed read in place.
func TestLinkListing(t *testing.T) {
	ab := NewBuilder(phv.Default32)
	in := ab.Regs("in", 2)
	s := ab.Op(Add, -1, in, in+1)
	ab.Op(Neg, in, in, 0)
	a, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBuilder(phv.Default32)
	f, g := bb.Reg("pkt.f", 0), bb.Reg("pkt.g", 0)
	skip := bb.Jump(Jz, g)
	bb.Op(Add, f, f, bb.Const(5))
	bb.Land(skip)
	bb.Op(Mul, -1, f, g)
	b, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, regs, err := Link(a, b, map[int]int{f: s, g: in + 1})
	if err != nil {
		t.Fatal(err)
	}
	if regs[f] != 3 || regs[g] != in+1 {
		t.Errorf("regs %v: want f in its own register after a's three, g renamed to in1", regs)
	}
	const listing = `  0  add  t2, in0, in1
  1  neg  in0, in0
  2  mov  pkt.f, t2
  3  jz   in1 -> 5
  4  add  pkt.f, pkt.f, #5
  5  mul  t6, pkt.f, in1
`
	if got := p.String(); got != listing {
		t.Errorf("disassembly:\n%s\nwant:\n%s", got, listing)
	}
}
