package aludsl_test

import (
	"fmt"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/opt"
	"druzhba/internal/phv"
)

// builtinPairs are the (a, b) operands every builtin is run on. Any two
// entries of one builtin differ on at least one pair, so a table with two
// entries swapped fails TestBuiltinSemantics: (7,3) and (3,7) tell the order
// of the operands, (5,5) equality, (6,0) a zero operand (&& from ||).
var builtinPairs = [][2]phv.Value{{7, 3}, {3, 7}, {5, 5}, {6, 0}}

// TestBuiltinSemantics pins the builtin table with literal expectations,
// written out by hand at 8 bits: per builtin its domain as Parse records it
// and, per in-domain value, the result on each of builtinPairs, both through
// the interpreter and through the interpreter on SCC + inlining. Values -1
// and the domain are errors at both.
func TestBuiltinSemantics(t *testing.T) {
	cases := []struct {
		expr   string
		domain int
		want   [][4]phv.Value // want[value][pair]
	}{
		{"Opt(a)", 2, [][4]phv.Value{{7, 3, 5, 6}, {0, 0, 0, 0}}},
		{"Mux2(a, b)", 2, [][4]phv.Value{{7, 3, 5, 6}, {3, 7, 5, 0}}},
		{"Mux3(a, b, a + b)", 3, [][4]phv.Value{{7, 3, 5, 6}, {3, 7, 5, 0}, {10, 10, 10, 6}}},
		{"Mux4(a, b, a + b, a * b)", 4, [][4]phv.Value{{7, 3, 5, 6}, {3, 7, 5, 0}, {10, 10, 10, 6}, {21, 21, 25, 0}}},
		{"Mux5(a, b, a + b, a * b, a - b)", 5, [][4]phv.Value{
			{7, 3, 5, 6}, {3, 7, 5, 0}, {10, 10, 10, 6}, {21, 21, 25, 0}, {4, 252, 0, 6},
		}},
		{"rel_op(a, b)", 4, [][4]phv.Value{
			{0, 0, 1, 0}, // ==
			{1, 1, 0, 1}, // !=
			{1, 0, 1, 1}, // >=
			{0, 1, 1, 0}, // <=
		}},
		{"arith_op(a, b)", 2, [][4]phv.Value{
			{10, 10, 10, 6}, // +
			{4, 252, 0, 6},  // -
		}},
		{"alu_op(a, b)", 15, [][4]phv.Value{
			{10, 10, 10, 6}, // +
			{4, 252, 0, 6},  // -
			{21, 21, 25, 0}, // *
			{2, 0, 1, 0},    // / (by zero is 0)
			{1, 3, 0, 0},    // % (by zero is 0)
			{0, 0, 1, 0},    // ==
			{1, 1, 0, 1},    // !=
			{1, 0, 1, 1},    // >=
			{0, 1, 1, 0},    // <=
			{0, 1, 0, 0},    // <
			{1, 0, 0, 1},    // >
			{1, 1, 1, 0},    // &&
			{1, 1, 1, 1},    // ||
			{7, 3, 5, 6},    // pass a
			{3, 7, 5, 0},    // pass b
		}},
	}
	w := phv.MustWidth(8)
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			p := aludsl.MustParse("type: stateless\npacket fields: {a, b}\nreturn " + tc.expr + ";")
			if len(p.Holes) != 1 || p.Holes[0].Domain != tc.domain || len(tc.want) != tc.domain {
				t.Fatalf("holes %+v, want one with domain %d (and %d rows of results)", p.Holes, tc.domain, tc.domain)
			}
			hole := p.Holes[0].Name
			for v, row := range tc.want {
				for i, pair := range builtinPairs {
					got := runBoth(t, p, hole, int64(v), w, pair)
					if got != row[i] {
						t.Errorf("value %d on %v = %d, want %d", v, pair, got, row[i])
					}
				}
			}
			for _, v := range []int64{-1, int64(tc.domain)} {
				wantErr := fmt.Sprintf("value %d out of range [0,%d)", v, tc.domain)
				code := aludsl.MapLookup(map[string]int64{hole: v})
				_, err := aludsl.Run(p, &aludsl.Env{Width: w, Operands: []phv.Value{1, 2}, Holes: code})
				if err == nil || !strings.Contains(err.Error(), wantErr) || !strings.Contains(err.Error(), hole) {
					t.Errorf("Run with %s = %d: %v, want an error naming the hole with %q", hole, v, err, wantErr)
				}
				var ce *opt.ConfigError
				if _, err := opt.SCC(p, code, w); !asConfigError(err, &ce) || ce.Hole != hole || !strings.Contains(ce.Msg, wantErr) {
					t.Errorf("SCC with %s = %d: %v, want a ConfigError for the hole with %q", hole, v, err, wantErr)
				}
			}
		})
	}

	// C has no entries: every value is its own result, truncated to the width.
	p := aludsl.MustParse("type: stateless\npacket fields: {a, b}\nreturn C();")
	if len(p.Holes) != 1 || p.Holes[0].Domain != 0 {
		t.Fatalf("C(): holes %+v, want one with domain 0", p.Holes)
	}
	for _, c := range []struct{ value, want int64 }{{0, 0}, {9, 9}, {255, 255}, {300, 44}, {-1, 255}} {
		if got := runBoth(t, p, "const_0", c.value, w, builtinPairs[0]); got != c.want {
			t.Errorf("C() with value %d = %d, want %d", c.value, got, c.want)
		}
	}
}

// runBoth runs p on one operand pair with the hole set to v, through the
// interpreter and through the interpreter on opt.Inline(opt.SCC(p)), and
// returns the result both agree on.
func runBoth(t *testing.T, p *aludsl.Program, hole string, v int64, w phv.Width, pair [2]phv.Value) phv.Value {
	t.Helper()
	code := aludsl.MapLookup(map[string]int64{hole: v})
	got, err := aludsl.Run(p, &aludsl.Env{Width: w, Operands: pair[:], Holes: code})
	if err != nil {
		t.Fatalf("Run with %s = %d: %v", hole, v, err)
	}
	q, err := opt.SCC(p, code, w)
	if err != nil {
		t.Fatalf("SCC with %s = %d: %v", hole, v, err)
	}
	specialised, err := aludsl.Run(opt.Inline(q, w), &aludsl.Env{Width: w, Operands: pair[:]})
	if err != nil || specialised != got {
		t.Fatalf("%s = %d on %v: interpreter %d, SCC + inlining %d (%v)", hole, v, pair, got, specialised, err)
	}
	return got
}

func asConfigError(err error, target **opt.ConfigError) bool {
	ce, ok := err.(*opt.ConfigError)
	*target = ce
	return ok
}

// TestWrongArityIsRefused: a builtin call with the wrong number of arguments
// (an AST built or edited by hand) is a Resolve error naming the hole, and
// Run and SCC refuse it as an error instead of indexing past its arguments.
// So does a call of a builtin the table does not have.
func TestWrongArityIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(*aludsl.HoleCall)
	}{
		{"one argument short", func(c *aludsl.HoleCall) { c.Args = c.Args[:1] }},
		{"one argument extra", func(c *aludsl.HoleCall) { c.Args = append(c.Args, c.Args[0]) }},
		{"unknown builtin", func(c *aludsl.HoleCall) { c.Builtin = 99 }},
	} {
		name := tc.name
		p := aludsl.MustParse("type: stateless\npacket fields: {a, b}\nreturn rel_op(a, b);")
		tc.damage(p.Body[0].(*aludsl.Return).Value.(*aludsl.HoleCall))
		if err := aludsl.Resolve(p); err == nil || !strings.Contains(err.Error(), `hole "rel_op_0"`) {
			t.Errorf("%s: Resolve = %v, want an error naming the hole", name, err)
		}
		code := aludsl.MapLookup(map[string]int64{"rel_op_0": aludsl.RelEq})
		_, err := aludsl.Run(p, &aludsl.Env{Width: phv.Default32, Operands: []phv.Value{1, 2}, Holes: code})
		if err == nil || !strings.Contains(err.Error(), `hole "rel_op_0"`) {
			t.Errorf("%s: Run = %v, want an error naming the hole", name, err)
		}
		if _, err := opt.SCC(p, code, phv.Default32); err == nil {
			t.Errorf("%s: SCC accepted the call", name)
		}
	}
}
