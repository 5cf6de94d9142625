package domino

import (
	"strings"
	"testing"

	"druzhba/internal/phv"
)

// TestOnlyUnprovenReadsKeepACheck pins what the definite-assignment analysis
// buys: a bound program whose locals are assigned on every path lowers to
// code with no Trap and no flag register, a local assigned on one path only
// keeps exactly one checked read (and the flag writes that feed it), and
// through Step's map view every field read is checked, because the map may
// not hold the field.
func TestOnlyUnprovenReadsKeepACheck(t *testing.T) {
	for _, tc := range []struct {
		name, src    string
		bound        bool
		traps, flags int
		instructions int
	}{
		{"sampling", samplingSrc, true, 0, 0, 7},
		{"local assigned on both paths",
			"transaction { if (pkt.a == 1) { int t = 5; } else { int t = pkt.a; } pkt.b = t; }", true, 0, 0, 6},
		{"local assigned on one path",
			"transaction { if (pkt.a == 1) { int t = 5; } pkt.b = t; }", true, 1, 1, 6},
		{"map view",
			"transaction { if (pkt.a == 1) { int t = 5; } else { int t = pkt.a; } pkt.b = t; }", false, 2, 2, 9},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		var bind FieldMap
		if tc.bound {
			bind = FieldMap{}
			for i, f := range p.Fields() {
				bind[f] = i
			}
		}
		c := resolve(p, phv.Default32, bind)
		listing := c.prog.String()
		if got := strings.Count(listing, "trap"); got != tc.traps || len(c.errs) != tc.traps || len(c.flags) != tc.flags || c.prog.Len() != tc.instructions {
			t.Errorf("%s: %d traps (%d errors), %d flags, %d instructions; want %d, %d, %d:\n%s",
				tc.name, got, len(c.errs), len(c.flags), c.prog.Len(), tc.traps, tc.flags, tc.instructions, listing)
		}
	}
	p, err := Parse(samplingSrc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(p, FieldMap{"sample": 0}, phv.Default32)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lowered() != b.code.prog || b.Lowered().Len() != 7 {
		t.Errorf("Binding.Lowered is not the %d-instruction program its instances run", b.code.prog.Len())
	}
}
