package p4

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// validBase is a minimal correct program; each error case perturbs it.
const validBase = `
header_type h_t {
    fields {
        v : 8;
    }
}
header h_t h;

action setv(x) {
    modify_field(h.v, x);
}

table t {
    reads { h.v : exact; }
    actions { setv; }
    default_action : setv(1);
}

control ingress {
    apply(t);
}
`

func TestParseValidBase(t *testing.T) {
	if _, err := Parse(validBase); err != nil {
		t.Fatalf("base program should parse: %v", err)
	}
}

// TestParseErrors drives the parser through malformed programs; every case
// must produce an error (and never panic).
func TestParseErrorsMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty header type", `header_type h_t { }`},
		{"missing field width", `header_type h_t { fields { v : ; } }`},
		{"zero field width", strings.Replace(validBase, "v : 8;", "v : 0;", 1)},
		{"unterminated block", `header_type h_t { fields { v : 8; }`},
		{"header of unknown type", validBase + "\nheader nosuch_t x;"},
		{"duplicate header instance", validBase + "\nheader h_t h;"},
		{"register zero cells", `register r { width : 8; instance_count : 0; }`},
		{"action unknown field", strings.Replace(validBase, "modify_field(h.v, x)", "modify_field(h.nope, x)", 1)},
		{"action unknown primitive", strings.Replace(validBase, "modify_field(h.v, x)", "frobnicate(h.v, x)", 1)},
		{"register op on unknown register", strings.Replace(validBase, "modify_field(h.v, x)", "register_write(nosuch, 0, x)", 1)},
		{"table reads unknown field", strings.Replace(validBase, "reads { h.v : exact; }", "reads { h.z : exact; }", 1)},
		{"table unknown match kind", strings.Replace(validBase, "h.v : exact;", "h.v : fuzzy;", 1)},
		{"table unknown action", strings.Replace(validBase, "actions { setv; }", "actions { nosuch; }", 1)},
		{"default unknown action", strings.Replace(validBase, "default_action : setv(1);", "default_action : nosuch(1);", 1)},
		{"default wrong arity", strings.Replace(validBase, "default_action : setv(1);", "default_action : setv(1, 2);", 1)},
		{"control applies unknown table", strings.Replace(validBase, "apply(t);", "apply(nosuch);", 1)},
		{"garbage top level", validBase + "\nwibble wobble;"},
		{"unclosed paren", strings.Replace(validBase, "modify_field(h.v, x);", "modify_field(h.v, x;", 1)},
		{"duplicate table", validBase + `
table t {
    reads { h.v : exact; }
    actions { setv; }
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Fatalf("malformed program accepted:\n%s", tc.src)
			}
		})
	}
}

// TestRegisterDefaults: a register without an explicit width defaults to
// 32 bits and one cell.
func TestRegisterDefaults(t *testing.T) {
	prog, err := Parse(validBase + "\nregister r { instance_count : 4; }\n")
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Register("r")
	if r == nil || r.Bits != 32 || r.Count != 4 {
		t.Fatalf("register defaults: %+v", r)
	}
}

// TestRegisterCellsBounded: the registers' cells may total MaxRegisterCells
// and no more, however they are split; the error names the register that
// crosses the bound. A huge instance_count is refused, not allocated.
func TestRegisterCellsBounded(t *testing.T) {
	reg := func(name string, n int) string {
		return fmt.Sprintf("register %s { width : 8; instance_count : %d; }\n", name, n)
	}
	for _, tc := range []struct {
		src, over string // over: the register named in the error, "" for none
	}{
		{reg("r", MaxRegisterCells), ""},
		{reg("r", MaxRegisterCells+1), "r"},
		{reg("a", MaxRegisterCells-1) + reg("b", 1), ""},
		{reg("a", MaxRegisterCells-1) + reg("b", 2) + reg("c", 1), "b"},
		{reg("a", 1) + reg("b", 2147483647), "b"},
	} {
		_, err := Parse(validBase + tc.src)
		if tc.over == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.src, err)
			}
			continue
		}
		if want := fmt.Sprintf("p4: register %q (instance_count", tc.over); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want one beginning %q", tc.src, err, want)
		}
	}
}

// TestFieldBitsUnknown covers the error return.
func TestFieldBitsUnknown(t *testing.T) {
	prog, err := Parse(validBase)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.FieldBits("h.nope"); err == nil {
		t.Fatal("unknown field should error")
	}
	if b, err := prog.FieldBits("h.v"); err != nil || b != 8 {
		t.Fatalf("FieldBits(h.v) = %d, %v", b, err)
	}
}

// TestLookupsReturnNil covers the nil-returning lookups.
func TestLookupsReturnNil(t *testing.T) {
	prog, err := Parse(validBase)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Table("nosuch") != nil || prog.Action("nosuch") != nil ||
		prog.Register("nosuch") != nil || prog.HeaderType("nosuch") != nil {
		t.Fatal("unknown lookups should return nil")
	}
}

// TestParseDeepInput: mini-P4 has no recursive construct — its deepest is a
// section inside a table — so megabytes of openers are rejected at the
// first one that does not belong, by a parser that never recursed.
func TestParseDeepInput(t *testing.T) {
	for name, src := range map[string]string{
		"parens":   strings.Repeat("(", 1<<20),
		"braces":   "table t " + strings.Repeat("{", 1<<16),
		"sections": "table t { reads " + strings.Repeat("{ reads ", 1<<16),
		"calls":    "action a() { " + strings.Repeat("drop(", 1<<16),
	} {
		_, err := Parse(src)
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 1 {
			t.Errorf("%s: error %v, want a syntax error on line 1", name, err)
		}
	}
}
