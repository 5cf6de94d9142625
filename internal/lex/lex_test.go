package lex

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// testLang has every operator the ladder knows, two keywords and hex
// literals: a superset of the three real languages.
var testLang = Language{
	Keywords: Set("if", "else"),
	Punct: Set(":", ",", ";", "{", "}", "(", ")", ".", "=", "+", "-", "*", "/", "%",
		"==", "!=", "<", ">", "<=", ">=", "&&", "||", "!"),
	Hex: true,
}

func TestLexerPositions(t *testing.T) {
	toks, err := testLang.Scan("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("token a at %d:%d, want 1:1", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("token b at %d:%d, want 2:3", toks[1].Line, toks[1].Col)
	}
}

func TestLexerTwoCharOperators(t *testing.T) {
	toks, err := testLang.Scan("== != <= >= && || = ! < >")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{"==", "!=", "<=", ">=", "&&", "||", "=", "!", "<", ">", EOF}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestScanClasses(t *testing.T) {
	toks, err := testLang.Scan("if iffy 0x1F 10 # c\n// c\nelse")
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(toks)
	if want := "['if' ident(iffy) number(31) number(10) 'else' EOF]"; got != want {
		t.Errorf("tokens %s, want %s", got, want)
	}
	decimal := Language{}
	if _, err := decimal.Scan("0x1F"); err != nil {
		t.Fatal(err) // number(0) ident(x1F): legal tokens in a language without hex
	}
}

// TestScanErrors: a lexical error carries the position of the lexeme that
// caused it, in every language.
func TestScanErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"a @ 1", `1:3: unexpected character "@"`},
		{"a\n  & b", `2:3: unexpected character "&"`},
		{"a |", `1:3: unexpected character "|"`},
		{"x = 99999999999999999999;", `1:5: invalid number "99999999999999999999": strconv.ParseInt: parsing "99999999999999999999": value out of range`},
		{"0xZ", `1:1: invalid number "0x": strconv.ParseInt: parsing "0x": invalid syntax`},
	} {
		_, err := testLang.Scan(tc.src)
		var le *Error
		if !errors.As(err, &le) || le.Error() != tc.want {
			t.Errorf("Scan(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

// sexpr builds fully parenthesised strings, so a test reads the tree shape.
func sexpr(toks []Token) *Ladder[string] {
	l := &Ladder[string]{Cursor: NewCursor(toks)}
	l.Binary = func(op Kind, x, y string) string { return "(" + x + " " + string(op) + " " + y + ")" }
	l.Unary = func(op Kind, x string) string { return string(op) + x }
	l.Primary = func() (string, error) {
		t := l.Cur()
		if t.Kind != Ident && t.Kind != Number {
			return "", l.Errorf(t, "expected expression, found %s", t)
		}
		return l.Advance().Text, nil
	}
	return l
}

func parseExpr(t *testing.T, src string) (string, *Ladder[string], error) {
	t.Helper()
	toks, err := testLang.Scan(src)
	if err != nil {
		t.Fatal(err)
	}
	l := sexpr(toks)
	s, err := l.Expr()
	return s, l, err
}

func TestLadderPrecedence(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"a + b * 2 == a && b < 3 || a > 7", "((((a + (b * 2)) == a) && (b < 3)) || (a > 7))"},
		{"a - b - c", "((a - b) - c)"},
		{"a / b % c * d", "(((a / b) % c) * d)"},
		{"a || b && c || d", "((a || (b && c)) || d)"},
		{"-a * !b", "(-a * !b)"},
		{"--a - -b", "(--a - -b)"},
		{"(a + b) * c", "((a + b) * c)"},
		{"a * (b + c)", "(a * (b + c))"},
		{"!(a < b)", "!(a < b)"},
		{"a < b == c", "(a < b)"},            // relational operators do not chain:
		{"a && b < c < d", "(a && (b < c))"}, // the second one is left for the caller to reject
		{"a + b < c + d && e", "(((a + b) < (c + d)) && e)"},
	} {
		got, _, err := parseExpr(t, tc.src)
		if err != nil || got != tc.want {
			t.Errorf("%s: got %s, %v; want %s", tc.src, got, err, tc.want)
		}
	}
}

func TestLadderStopsAtUnchainedRelational(t *testing.T) {
	_, l, err := parseExpr(t, "a && b < c < d")
	if err != nil {
		t.Fatal(err)
	}
	if cur := l.Cur(); cur.Kind != "<" || cur.Col != 12 {
		t.Errorf("ladder stopped at %s (col %d), want the second '<' at col 12", cur, cur.Col)
	}
}

func TestLadderErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"a + ;", "1:5: expected expression, found ';'"},
		{"(a + b", "1:7: expected ')', found EOF"},
		{"a * (", "1:6: expected expression, found EOF"},
	} {
		_, _, err := parseExpr(t, tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %s", tc.src, err, tc.want)
		}
	}
}

// TestNestingBound: every way an expression can deepen the tree is counted;
// MaxDepth levels parse and one more is a positioned syntax error. (The
// front ends' tests feed the megabyte inputs that used to overflow the
// stack.)
func TestNestingBound(t *testing.T) {
	shapes := map[string]func(n int) string{
		"parens": func(n int) string { return strings.Repeat("(", n) + "a" + strings.Repeat(")", n) },
		"unary":  func(n int) string { return strings.Repeat("-", n) + "a" },
		"nots":   func(n int) string { return strings.Repeat("!", n) + "a" },
		"chain":  func(n int) string { return "a" + strings.Repeat(" + a", n) },
		"right":  func(n int) string { return strings.Repeat("a + (", n) + "a" + strings.Repeat(")", n) },
	}
	for name, shape := range shapes {
		// Expr itself is one level, so MaxDepth-1 more fit ("right" spends
		// two per repetition: the operator and the parenthesis).
		fits := MaxDepth - 1
		if name == "right" {
			fits /= 2
		}
		if _, _, err := parseExpr(t, shape(fits)); err != nil {
			t.Errorf("%s: %d levels rejected: %v", name, fits, err)
		}
		for _, n := range []int{fits + 1, 8 * MaxDepth} {
			_, l, err := parseExpr(t, shape(n))
			var le *Error
			if !errors.As(err, &le) || !strings.Contains(le.Msg, "nesting deeper than") {
				t.Errorf("%s: %d levels: error %v, want the nesting bound", name, n, err)
			}
			if l.depth != 0 {
				t.Errorf("%s: depth %d after a failed parse, want 0", name, l.depth)
			}
		}
	}
}

// FuzzScan: on arbitrary bytes the scanner never panics, token positions
// strictly advance, every token's text is the source slice at its position,
// and the stream ends with exactly one EOF.
func FuzzScan(f *testing.F) {
	f.Add("if (a <= 0x1F && !b) { s = s + 1; } // c\n# d\nelse")
	f.Add("a\r\n\tb @")
	f.Add("9999999999999999999999")
	f.Add("\xff\x00&|")
	f.Fuzz(func(t *testing.T, src string) {
		for _, lang := range []*Language{&testLang, {}} {
			toks, err := lang.Scan(src)
			if err != nil {
				var le *Error
				if !errors.As(err, &le) || le.Line < 1 || le.Col < 1 {
					t.Fatalf("error %v is not a positioned *Error", err)
				}
				continue
			}
			lines := strings.SplitAfter(src, "\n")
			prev := Token{}
			for i, tk := range toks {
				if tk.Line < prev.Line || tk.Line == prev.Line && tk.Col <= prev.Col {
					t.Fatalf("token %d at %d:%d does not advance past %d:%d", i, tk.Line, tk.Col, prev.Line, prev.Col)
				}
				prev = tk
				if (tk.Kind == EOF) != (i == len(toks)-1) {
					t.Fatalf("token %d of %d is %s", i, len(toks), tk)
				}
				if tk.Kind == EOF {
					continue
				}
				line := lines[tk.Line-1]
				if tk.Text == "" || !strings.HasPrefix(line[tk.Col-1:], tk.Text) {
					t.Fatalf("token %d text %q is not the source at %d:%d (%q)", i, tk.Text, tk.Line, tk.Col, line)
				}
			}
		}
	})
}
