package lex

import "fmt"

// MaxDepth bounds how deeply expressions and blocks may nest — far above
// any real program, far below what the stack holds.
const MaxDepth = 256

// Cursor walks a scanned token stream.
type Cursor struct {
	toks  []Token
	pos   int
	depth int
}

// NewCursor positions a cursor on the first token of a Scan result.
func NewCursor(toks []Token) *Cursor { return &Cursor{toks: toks} }

// Cur returns the current token.
func (c *Cursor) Cur() Token { return c.toks[c.pos] }

// Peek returns the token after the current one (EOF at the end).
func (c *Cursor) Peek() Token { return c.toks[min(c.pos+1, len(c.toks)-1)] }

// Advance returns the current token and moves past it; EOF is never passed.
func (c *Cursor) Advance() Token {
	t := c.toks[c.pos]
	if t.Kind != EOF {
		c.pos++
	}
	return t
}

// Accept moves past the current token if it has kind k.
func (c *Cursor) Accept(k Kind) bool {
	if c.Cur().Kind != k {
		return false
	}
	c.Advance()
	return true
}

// Expect moves past the current token, which must have kind k.
func (c *Cursor) Expect(k Kind) (Token, error) {
	t := c.Cur()
	if t.Kind != k {
		return t, c.Errorf(t, "expected %s, found %s", k, t)
	}
	return c.Advance(), nil
}

// Errorf returns a syntax error positioned at t.
func (c *Cursor) Errorf(t Token, format string, args ...any) error {
	return &Error{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// Enter descends one nesting level, failing past MaxDepth; Leave undoes it.
// The ladder calls them for every level an expression adds to the tree;
// front ends call them for every block that recurses.
func (c *Cursor) Enter() error {
	if c.depth >= MaxDepth {
		return c.Errorf(c.Cur(), "nesting deeper than %d levels", MaxDepth)
	}
	c.depth++
	return nil
}

// Leave ascends one nesting level.
func (c *Cursor) Leave() { c.depth-- }

// Ladder parses the expression grammar the ALU DSL and Domino share, lowest
// to highest precedence:
//
//	expr    = and   { '||' and }
//	and     = rel   { '&&' rel }
//	rel     = add   [ ('=='|'!='|'<'|'>'|'<='|'>=') add ]
//	add     = mul   { ('+'|'-') mul }
//	mul     = unary { ('*'|'/'|'%') unary }
//	unary   = ('-'|'!') unary | '(' expr ')' | primary
//
// building a language's own nodes of type E through the three hooks.
type Ladder[E any] struct {
	*Cursor
	Binary  func(op Kind, x, y E) E
	Unary   func(op Kind, x E) E
	Primary func() (E, error) // literals, names, calls
}

var precedence = map[Kind]int{
	"||": 1, "&&": 2,
	"==": relational, "!=": relational, "<": relational, ">": relational, "<=": relational, ">=": relational,
	"+": 4, "-": 4,
	"*": tightest, "/": tightest, "%": tightest,
}

const (
	relational = 3 // these do not chain: a < b < c is a syntax error
	tightest   = 5
)

// Expr parses one expression.
func (l *Ladder[E]) Expr() (E, error) {
	if err := l.Enter(); err != nil {
		var zero E
		return zero, err
	}
	defer l.Leave()
	return l.binary(1)
}

// binary parses operators of precedence lo and above by precedence
// climbing: after an operator of precedence p only operators up to p may
// follow at this level (below p for a relational one). Every operator of a
// left-leaning chain deepens the tree by one, so each counts as a nesting
// level until the chain ends.
func (l *Ladder[E]) binary(lo int) (E, error) {
	var zero E
	x, err := l.unary()
	if err != nil {
		return zero, err
	}
	outer := l.depth
	defer func() { l.depth = outer }()
	for hi := tightest; ; {
		op := l.Cur().Kind
		p := precedence[op]
		if p < lo || p > hi {
			return x, nil
		}
		if err := l.Enter(); err != nil {
			return zero, err
		}
		l.Advance()
		y, err := l.binary(p + 1)
		if err != nil {
			return zero, err
		}
		x = l.Binary(op, x, y)
		if hi = p; p == relational {
			hi = p - 1
		}
	}
}

func (l *Ladder[E]) unary() (E, error) {
	var zero E
	switch t := l.Cur(); t.Kind {
	case "-", "!":
		if err := l.Enter(); err != nil {
			return zero, err
		}
		defer l.Leave()
		l.Advance()
		x, err := l.unary()
		if err != nil {
			return zero, err
		}
		return l.Unary(t.Kind, x), nil
	case "(":
		l.Advance()
		x, err := l.Expr()
		if err != nil {
			return zero, err
		}
		if _, err := l.Expect(")"); err != nil {
			return zero, err
		}
		return x, nil
	}
	return l.Primary()
}
