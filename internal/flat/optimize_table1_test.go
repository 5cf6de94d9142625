package flat_test

import (
	"slices"
	"testing"

	"druzhba/internal/domino"
	"druzhba/internal/flat"
	"druzhba/internal/phv"
	"druzhba/internal/spec"
)

// TestOptimizeProved proves with Sym that Optimize keeps every Table-1 oracle
// the fuzzer runs: the output cone lowered from the machine code and the
// Domino program bound, both at 4 and at 8 bits, linked as package sim links
// them and optimized observing what sim reads back — the pipeline's outputs,
// the expected ones, the flags, trap register and state — each read where
// the end map says it ends.
func TestOptimizeProved(t *testing.T) {
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
				t.Fatalf("%s at %d bits: %v", bm.Name, bits, err)
			}
			b, err := domino.Bind(r.Program, bm.Fields, at.Bits)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]int, n.PHVLen)
			for c := range in {
				in[c] = cone.InputReg(c)
			}
			l, err := b.Link(cone.Program, in)
			if err != nil {
				t.Fatal(err)
			}
			seen := slices.Concat(cone.Out(), l.Want, l.Clear, l.State)
			if l.Trap >= 0 {
				seen = append(seen, l.Trap)
			}
			q, end, err := flat.Optimize(l.Program, seen)
			if err != nil {
				t.Fatal(err)
			}
			flat.ProveOptimized(t, l.Program, q, end, seen)
		}
	}
}
