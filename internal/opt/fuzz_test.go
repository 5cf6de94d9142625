package opt

import (
	"slices"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/phv"
)

// FuzzSpecializeMatchesEval fuzzes SCC against the interpreter on the atom
// library, out-of-domain machine code included. The input picks an atom,
// a byte per hole (a value from -1 to the hole's domain, -1 to 15 for C; a
// missing byte is 0), two operands and two state values. When SCC accepts
// the values, the unspecialised program, Inline(SCC(...)) and the SCC output
// it was inlined from must return the same outputs and leave the same state
// over three executions; when it refuses them, its error must name a hole
// whose value is outside that builtin's domain. Either way neither pass may
// change its input: the outputs share its unchanged nodes, so its Format,
// Holes and HoleVars must read as they did before.
func FuzzSpecializeMatchesEval(f *testing.F) {
	for i, name := range atoms.Names() {
		f.Add(uint8(i), []byte(nil), int64(7), int64(3), int64(5), int64(0)) // every value 0
		// The first hole's value is its domain: out of range, except for
		// stateless_const, whose one hole is a C().
		first := atoms.MustLoad(name).Holes[0]
		f.Add(uint8(i), []byte{byte(first.Domain)}, int64(3), int64(7), int64(250), int64(9))
	}
	f.Fuzz(func(t *testing.T, atom uint8, values []byte, a, b, s0, s1 int64) {
		names := atoms.Names()
		prog := atoms.MustLoad(names[int(atom)%len(names)])
		w := phv.MustWidth(8)
		code := make(map[string]int64, len(prog.Holes))
		for i, h := range prog.Holes {
			span := int64(h.Domain) + 1 // values 0..span-1, then -1
			if h.Domain == 0 {
				span = 16
			}
			v := int64(0)
			if i < len(values) {
				v = int64(values[i]) % (span + 1)
			}
			if v == span {
				v = -1
			}
			code[h.Name] = v
		}
		unchanged := func(pass string, p *aludsl.Program, format string, holes []aludsl.Hole, holeVars []string) {
			t.Helper()
			if p.Format() != format || !slices.Equal(p.Holes, holes) || !slices.Equal(p.HoleVars, holeVars) {
				t.Fatalf("%s: %s changed its input:\n%s\nwas\n%s", prog.Name, pass, p.Format(), format)
			}
		}
		format, holes, holeVars := prog.Format(), slices.Clone(prog.Holes), slices.Clone(prog.HoleVars)
		q, err := SCC(prog, aludsl.MapLookup(code), w)
		unchanged("SCC", prog, format, holes, holeVars)
		if err != nil {
			var ce *ConfigError
			if !asConfigError(err, &ce) {
				t.Fatalf("%s: SCC error %v is not a ConfigError", prog.Name, err)
			}
			h, v := prog.FindHole(ce.Hole), code[ce.Hole]
			if h == nil || h.Domain == 0 || (v >= 0 && v < int64(h.Domain)) {
				t.Fatalf("%s: SCC refused %q = %d, which is not outside a builtin's domain: %v", prog.Name, ce.Hole, v, err)
			}
			return
		}
		qFormat, qHoles, qHoleVars := q.Format(), slices.Clone(q.Holes), slices.Clone(q.HoleVars)
		inlined := Inline(q, w)
		unchanged("Inline", q, qFormat, qHoles, qHoleVars)
		unchanged("SCC and Inline", prog, format, holes, holeVars)
		ops := []phv.Value{w.Trunc(a), w.Trunc(b)}[:prog.NumOperands()]
		st1 := []phv.Value{w.Trunc(s0), w.Trunc(s1)}[:prog.NumState()]
		st2 := append([]phv.Value(nil), st1...)
		st3 := append([]phv.Value(nil), st1...)
		for step := 0; step < 3; step++ {
			v1, err1 := aludsl.Run(prog, &aludsl.Env{Width: w, Operands: ops, State: st1, Holes: aludsl.MapLookup(code)})
			v2, err2 := aludsl.Run(inlined, &aludsl.Env{Width: w, Operands: ops, State: st2})
			v3, err3 := aludsl.Run(q, &aludsl.Env{Width: w, Operands: ops, State: st3})
			if err1 != nil || err2 != nil || err3 != nil || v1 != v2 || v1 != v3 {
				t.Fatalf("%s step %d, code %v: interpreter %d (%v), SCC + inlining %d (%v), SCC after inlining %d (%v)", prog.Name, step, code, v1, err1, v2, err2, v3, err3)
			}
			for i := range st1 {
				if st1[i] != st2[i] || st1[i] != st3[i] {
					t.Fatalf("%s step %d, code %v: state %d is %d after the interpreter, %d after SCC + inlining, %d after SCC", prog.Name, step, code, i, st1[i], st2[i], st3[i])
				}
			}
		}
	})
}
