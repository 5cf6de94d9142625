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
// opcode (value ops, Jmp, compare-and-branches, Trap, bank loads and stores)
// and two operand bytes. Register 0 is the trap register; values are written
// to registers 1..linkRegs, named g0, g1, …, and read from any of those or a
// constant (an operand byte 8..15 is the constant 0); a bank of three cells
// wraps by modulo, one of four by mask; a jump lands a byte-chosen distance
// ahead: a Jmp's by its second operand, a compare-and-branch's by the top two
// bits of its first. The datapath is w bits wide.
func decodeProgram(t *testing.T, w phv.Width, data []byte) *Program {
	p, _ := decode(t, w, data, 0)
	return p
}

// decode is decodeProgram with outs more registers after the general ones,
// out0, out1, …, which it returns: an opcode byte with its top bit set is a
// copy into one of them, mov out(x), reg(y), where outs is not 0. Nothing
// reads them.
func decode(t *testing.T, w phv.Width, data []byte, outs int) (*Program, []int) {
	t.Helper()
	b := NewBuilder(w)
	first := b.Reg("trap", 0)
	b.Regs("g", linkRegs)
	var out []int
	if outs > 0 {
		for r := b.Regs("out", outs); len(out) < outs; r++ {
			out = append(out, r)
		}
	}
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
	for pc := 0; len(data) >= 3 && pc < 40; data, pc = data[3:], pc+1 {
		b.Land(landAt[pc]...)
		delete(landAt, pc)
		op, x, y := Op(data[0]%(byte(Jge)+1)), data[1], data[2]
		switch {
		case outs > 0 && data[0]&0x80 != 0:
			b.Op(Mov, out[int(x)%outs], reg(y), 0)
		case op == Jmp:
			j := b.Jump()
			target := pc + 1 + int(y)%4
			landAt[target] = append(landAt[target], j)
		case op.branch():
			j := b.Branch(op, reg(x), reg(y))
			target := pc + 1 + int(x>>6)
			landAt[target] = append(landAt[target], j)
		case op == Trap:
			b.Op(Trap, first, reg(x), 1+int(y)%5)
		case op == Load || op == LoadMask:
			b.Load(dst(x), bank(y), reg(y))
		case op == Store || op == StoreMask:
			b.Store(bank(x), reg(x), reg(y))
		default:
			b.Op(op, dst(x^y), reg(x), reg(y))
		}
	}
	for _, js := range landAt {
		b.Land(js...)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, out
}

// FuzzLink pins Link to running its two programs one after the other: a on
// its own frame, then — unless a trapped — b on its own frame with every
// bound register copied in from a's final frame. On the linked frame every
// register of a must equal a's own (so b never reached one) and every
// register of b, found through the returned map, b's own, trap registers
// included; when a trapped, b's registers must still hold their initial
// values.
func FuzzLink(f *testing.F) {
	// a: arithmetic, a forward jeq against #0 and a jmp; b: reads two bound
	// registers, writes a third bound one, and traps when g1 is zero.
	f.Add([]byte{0, 1, 2, 19, 68, 8, 12, 2, 3, 2, 4, 0}, []byte{1, 1, 2, 11, 3, 3, 13, 2, 1, 6, 4, 1}, uint16(0x1e), int64(0x0102030405))
	// b adds registers it reads bound, then traps.
	f.Add([]byte{2, 3, 4}, []byte{0, 1, 2, 0, 3, 3, 13, 4, 0}, uint16(0x06), int64(0x0a00000b0c))
	// a traps at once on its zero trap-input register: b never runs.
	f.Add([]byte{13, 0, 2, 0, 1, 2}, []byte{0, 1, 1, 13, 2, 0}, uint16(0xff), int64(7))
	// b writes bound g2 only after a Trap that fires, or only on the branch
	// not taken: either way the value copied in is the one b leaves.
	f.Add([]byte{}, []byte{13, 1, 0, 11, 2, 0}, uint16(0x08), int64(0x0007000009000003))
	f.Add([]byte{}, []byte{19, 66, 8, 11, 2, 0}, uint16(0x08), int64(0x0007000009000003))
	// Jumps in b to its end, and a constant read; nothing bound.
	f.Add([]byte{4, 9, 25}, []byte{19, 196, 8, 20, 132, 8, 12, 0, 1, 5, 2, 40}, uint16(0), int64(0x7f7f7f7f7f))
	// Banks and compare-and-branches on both sides: a stores into its
	// four-cell bank and loads back, b compares a bound register with a
	// constant, stores into its three-cell bank and loads by mask; Link
	// rebases b's banks and its branch targets.
	f.Add([]byte{17, 0x81, 2, 15, 1, 0x81, 19, 2, 0x29, 14, 1, 2}, []byte{19, 1, 0x2a, 17, 2, 3, 16, 3, 0x83, 19, 0x14, 0x6b, 0, 3, 4}, uint16(0x0e), int64(0x0302010405))
	// b's jeq reads a register it writes after, bound: the mov comes first.
	f.Add([]byte{2, 3, 4}, []byte{19, 3, 0x10, 11, 3, 1, 15, 2, 0x84}, uint16(0x08), int64(0x0105000309))
	// A jlt, jgt, jle and jge in b, one each, of two bound registers, a
	// register and a constant, a register and itself, and a bound register
	// and one b writes.
	f.Add([]byte{0, 1, 2}, []byte{21, 0x42, 2, 0, 1, 2, 1, 2, 1}, uint16(0x06), int64(0x0203040506))
	f.Add([]byte{2, 3, 4}, []byte{22, 0x43, 0x38, 11, 2, 0, 0, 3, 4}, uint16(0x0c), int64(0x0900000407))
	f.Add([]byte{}, []byte{23, 0x81, 4, 0, 1, 2, 1, 3, 4, 2, 2, 3}, uint16(0x12), int64(0x0000050005))
	f.Add([]byte{1, 1, 3}, []byte{24, 0x47, 3, 0, 2, 3, 14, 1, 7}, uint16(0x1e), int64(0x0801020304))
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
// mov that copies a bound register b writes, b's jump and branch targets
// moved past a's, and a renamed read in place.
func TestLinkListing(t *testing.T) {
	ab := NewBuilder(phv.Default32)
	in := ab.Regs("in", 2)
	s := ab.Op(Add, -1, in, in+1)
	ab.Op(Sub, in, ab.Const(0), in)
	a, err := ab.Build()
	if err != nil {
		t.Fatal(err)
	}
	bb := NewBuilder(phv.Default32)
	f, g := bb.Reg("pkt.f", 0), bb.Reg("pkt.g", 0)
	skip := bb.Branch(Jeq, g, bb.Const(0))
	bb.Op(Add, f, f, bb.Const(5))
	bb.Land(skip)
	other := bb.Branch(Jne, f, bb.Const(5))
	bb.Op(Mul, -1, f, g)
	bb.Land(other)
	b, err := bb.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, regs, err := Link(a, b, map[int]int{f: s, g: in + 1})
	if err != nil {
		t.Fatal(err)
	}
	if regs[f] != 4 || regs[g] != in+1 {
		t.Errorf("regs %v: want f in its own register after a's four, g renamed to in1", regs)
	}
	const listing = `  0  add  t2, in0, in1
  1  sub  in0, #0, in0
  2  mov  pkt.f, t2
  3  jeq  in1, #0 -> 5
  4  add  pkt.f, pkt.f, #5
  5  jne  pkt.f, #5 -> 7
  6  mul  t8, pkt.f, in1
`
	if got := p.String(); got != listing {
		t.Errorf("disassembly:\n%s\nwant:\n%s", got, listing)
	}
}
