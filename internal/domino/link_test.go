package domino_test

import (
	"slices"
	"testing"

	"druzhba/internal/bv"
	"druzhba/internal/domino"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
	"druzhba/internal/spec"
)

// TestLinkIsComposition proves, for every Table-1 program at 4 and 8 bits,
// that the program the fuzzer's oracle is built from and verify proves — the
// output cone with the bound Domino transaction linked after it
// (Binding.Link), before flat.Optimize — is the composition of its halves:
// the cone run on its frame, then the transaction run on a frame of its own
// as its instances run it, the bound fields reading the packet and the flags
// and the error register at zero. Every register of both, and whether the
// transaction traps, must agree from every frame.
func TestLinkIsComposition(t *testing.T) {
	for _, bm := range spec.All() {
		r, err := bm.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		n, err := r.Spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		read, err := n.Read(r.Code)
		if err != nil {
			t.Fatal(err)
		}
		live := read.Muxes.Live(slices.Repeat([]bool{true}, n.PHVLen), nil)
		for _, bits := range []int{4, 8} {
			at := n
			at.Bits = phv.MustWidth(bits)
			cone, err := at.Lower(read, live)
			if err != nil {
				t.Fatal(err)
			}
			binding, err := domino.Bind(r.Program, bm.Fields, at.Bits)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]int, n.PHVLen)
			for c := range in {
				in[c] = cone.InputReg(c)
			}
			l, err := binding.Link(cone.Program, in)
			if err != nil {
				t.Fatal(err)
			}
			lowered, fields, clear := binding.Lowered()

			b := bv.NewBuilder(sat.New())
			// The linked frame: free registers, but for the flags and the
			// error register, which start at zero.
			zero := map[int]bool{}
			for _, reg := range clear {
				zero[l.Regs()[reg]] = true
			}
			start := l.SymFrame(b, bits, func(reg int) bv.Vec {
				if zero[reg] {
					return b.Const(bits, 0)
				}
				return b.Var(bits)
			})
			linked, linkedTrap := l.Sym(b, slices.Clone(start))

			// The composition: the cone from the same frame, then the
			// transaction with its fields reading the packet, its flags and
			// error register at zero, and every other register as it starts
			// in the linked frame.
			pipe, _ := cone.Sym(b, slices.Clone(start[:len(cone.NewFrame())]))
			specStart := lowered.SymFrame(b, bits, func(reg int) bv.Vec {
				if c, ok := fields[reg]; ok {
					return start[in[c]]
				}
				return start[l.Regs()[reg]]
			})
			composed, composedTrap := lowered.Sym(b, specStart)

			differ := b.Xor(linkedTrap, composedTrap)
			for reg, v := range pipe {
				differ = b.Or(differ, b.Ne(linked[reg], v))
			}
			for reg, v := range composed {
				differ = b.Or(differ, b.Ne(linked[l.Regs()[reg]], v))
			}
			b.Assert(differ)
			if st := b.Solve(); st != sat.Unsat {
				t.Errorf("%s at %d bits: the linked program is not the composition (%v)\n%s", bm.Name, bits, st, l.Program)
			}
		}
	}
}
