// Package lex is the one scanner, token cursor and expression ladder behind
// Druzhba's three source languages: the ALU DSL (package aludsl), the Domino
// specification language (package domino) and mini-P4 (package p4). The
// languages share their lexical shape — identifiers, integer literals, '#'
// and '//' line comments, one- and two-character punctuation — and, for the
// first two, one operator-precedence ladder; a Language value lists what
// genuinely differs. Each front end keeps its own AST, statement grammar and
// error type, and converts *Error at its Parse boundary.
//
// Everything here runs on untrusted source text: scanning is linear, and the
// cursor bounds nesting (MaxDepth) so that no input can exhaust the stack,
// here or in the recursive passes that later walk the tree.
package lex

import (
	"fmt"
	"strconv"
)

// Kind is a token's lexical class. Punctuation and keywords are their own
// kind — the kind of "<=" is "<=", of the keyword "if" is "if" — so parsers
// switch on literals; EOF, Ident and Number cover everything else. (A
// language must not reserve one of those three names as a keyword.)
type Kind string

// The kinds that are not their own text.
const (
	EOF    Kind = "EOF"
	Ident  Kind = "identifier"
	Number Kind = "number"
)

// String names the kind the way syntax errors quote it.
func (k Kind) String() string {
	switch k {
	case EOF, Ident, Number:
		return string(k)
	}
	return "'" + string(k) + "'"
}

// Token is one lexeme with its source position.
type Token struct {
	Kind Kind
	Text string // the lexeme as written; empty for EOF
	Num  int64  // value of a Number
	Line int    // 1-based line
	Col  int    // 1-based column, in bytes
}

func (t Token) String() string {
	switch t.Kind {
	case Ident:
		return "ident(" + t.Text + ")"
	case Number:
		return fmt.Sprintf("number(%d)", t.Num)
	}
	return t.Kind.String()
}

// An Error reports a lexical or syntax failure with its position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// Language describes what differs between the source languages.
type Language struct {
	// Keywords are the reserved words; each scans as its own Kind.
	Keywords map[string]bool
	// Punct is the punctuation, one or two characters each; the scanner
	// prefers the longer match.
	Punct map[string]bool
	// Hex admits 0x… literals: a number runs over hex digits and 'x' and
	// is read in the base its prefix names.
	Hex bool
}

// Set builds a Language's keyword or punctuation set.
func Set(words ...string) map[string]bool {
	set := make(map[string]bool, len(words))
	for _, w := range words {
		set[w] = true
	}
	return set
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isHexDigit(c byte) bool {
	return isDigit(c) || c == 'x' || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Scan splits src into tokens, ending with EOF. A lexical error is
// positioned at the start of the offending lexeme.
func (l *Language) Scan(src string) ([]Token, error) {
	toks := make([]Token, 0, len(src)/3+1) // real sources run a token per three to four bytes
	line, lineStart := 1, 0
	for pos := 0; ; {
	skip: // white space and '#' / '//' comments
		for pos < len(src) {
			switch c := src[pos]; {
			case c == '\n':
				pos++
				line, lineStart = line+1, pos
			case c == ' ' || c == '\t' || c == '\r':
				pos++
			case c == '#', c == '/' && pos+1 < len(src) && src[pos+1] == '/':
				for pos < len(src) && src[pos] != '\n' {
					pos++
				}
			default:
				break skip
			}
		}
		t := Token{Kind: EOF, Line: line, Col: pos - lineStart + 1}
		if pos >= len(src) {
			return append(toks, t), nil
		}
		end := pos + 1
		switch c := src[pos]; {
		case isIdentStart(c):
			for end < len(src) && isIdentCont(src[end]) {
				end++
			}
			t.Kind = Ident
			if l.Keywords[src[pos:end]] {
				t.Kind = Kind(src[pos:end])
			}
		case isDigit(c):
			base, digit := 10, isDigit
			if l.Hex {
				base, digit = 0, isHexDigit
			}
			for end < len(src) && digit(src[end]) {
				end++
			}
			n, err := strconv.ParseInt(src[pos:end], base, 64)
			if err != nil {
				return nil, &Error{t.Line, t.Col, fmt.Sprintf("invalid number %q: %v", src[pos:end], err)}
			}
			t.Kind, t.Num = Number, n
		default:
			if end < len(src) && l.Punct[src[pos:end+1]] {
				end++
			} else if !l.Punct[src[pos:end]] {
				return nil, &Error{t.Line, t.Col, fmt.Sprintf("unexpected character %q", string(c))}
			}
			t.Kind = Kind(src[pos:end])
		}
		t.Text = src[pos:end]
		toks = append(toks, t)
		pos = end
	}
}
