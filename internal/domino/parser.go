package domino

import (
	"errors"
	"fmt"
	"strings"

	"druzhba/internal/lex"
)

// ParseError reports a syntax error with its position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("domino: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lang is what the shared scanner needs to know about Domino.
var lang = lex.Language{
	Keywords: lex.Set("state", "transaction", "if", "else", "int", "pkt"),
	Punct: lex.Set("{", "}", "(", ")", ";", "=", "+", "-", "*", "/", "%", "<", ">", "!", ".", ",",
		"==", "!=", "<=", ">=", "&&", "||"),
}

// Parse parses a Domino program.
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	var le *lex.Error
	if errors.As(err, &le) {
		return nil, &ParseError{Line: le.Line, Col: le.Col, Msg: le.Msg}
	}
	return prog, err
}

func parse(src string) (*Program, error) {
	toks, err := lang.Scan(src)
	if err != nil {
		return nil, err
	}
	p := &dparser{Cursor: lex.NewCursor(toks), prog: &Program{}, fieldsSeen: map[string]bool{}, states: map[string]bool{}, locals: map[string]bool{}}
	p.exprs = lex.Ladder[Expr]{
		Cursor:  p.Cursor,
		Binary:  func(op lex.Kind, x, y Expr) Expr { return &Bin{Op: binKinds[op], X: x, Y: y} },
		Unary:   func(op lex.Kind, x Expr) Expr { return &Un{Neg: op == "-", X: x} },
		Primary: p.primary,
	}
	if err := p.parse(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse is Parse for known-good sources; it panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type dparser struct {
	*lex.Cursor
	exprs      lex.Ladder[Expr]
	prog       *Program
	fieldsSeen map[string]bool
	states     map[string]bool
	locals     map[string]bool
}

func (p *dparser) parse() error {
	// state declarations
	for p.Accept("state") {
		name, err := p.Expect(lex.Ident)
		if err != nil {
			return err
		}
		if p.states[name.Text] {
			return p.Errorf(name, "duplicate state variable %q", name.Text)
		}
		if _, err := p.Expect("="); err != nil {
			return err
		}
		neg := p.Accept("-")
		val, err := p.Expect(lex.Number)
		if err != nil {
			return err
		}
		if _, err := p.Expect(";"); err != nil {
			return err
		}
		init := val.Num
		if neg {
			init = -init
		}
		p.states[name.Text] = true
		p.prog.States = append(p.prog.States, StateDecl{Name: name.Text, Init: init})
	}
	if _, err := p.Expect("transaction"); err != nil {
		return err
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	if _, err := p.Expect(lex.EOF); err != nil {
		return err
	}
	p.prog.Body = body
	return nil
}

// block parses "{ stmts }".
func (p *dparser) block() ([]Stmt, error) {
	if _, err := p.Expect("{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for p.Cur().Kind != "}" && p.Cur().Kind != lex.EOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if _, err := p.Expect("}"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *dparser) stmt() (Stmt, error) {
	t := p.Cur()
	switch t.Kind {
	case "if":
		return p.ifStmt()
	case "int":
		// local declaration: int x = expr; — in scope after its initializer
		p.Advance()
		name, err := p.Expect(lex.Ident)
		if err != nil {
			return nil, err
		}
		s, err := p.assign(Target{Kind: TargetLocal, Name: name.Text})
		p.locals[name.Text] = true
		return s, err
	case "pkt":
		name, err := p.field()
		if err != nil {
			return nil, err
		}
		return p.assign(Target{Kind: TargetField, Name: name})
	case lex.Ident:
		p.Advance()
		kind := TargetLocal
		switch {
		case p.states[t.Text]:
			kind = TargetState
		case p.locals[t.Text]:
		default:
			return nil, p.Errorf(t, "assignment to undeclared variable %q (declare with 'int %s = ...' or 'state %s = ...')", t.Text, t.Text, t.Text)
		}
		return p.assign(Target{Kind: kind, Name: t.Text})
	default:
		return nil, p.Errorf(t, "expected statement, found %s", t)
	}
}

// assign parses the "= expr ;" that follows an assignment's target.
func (p *dparser) assign(target Target) (Stmt, error) {
	if _, err := p.Expect("="); err != nil {
		return nil, err
	}
	e, err := p.exprs.Expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(";"); err != nil {
		return nil, err
	}
	return &Assign{Target: target, Expr: e}, nil
}

// field parses "pkt.name" and records the field.
func (p *dparser) field() (string, error) {
	p.Advance() // pkt
	if _, err := p.Expect("."); err != nil {
		return "", err
	}
	name, err := p.Expect(lex.Ident)
	if err != nil {
		return "", err
	}
	if !p.fieldsSeen[name.Text] {
		p.fieldsSeen[name.Text] = true
		p.prog.fields = append(p.prog.fields, name.Text)
	}
	return name.Text, nil
}

func (p *dparser) ifStmt() (Stmt, error) {
	if err := p.Enter(); err != nil {
		return nil, err
	}
	defer p.Leave()
	p.Advance() // if
	if _, err := p.Expect("("); err != nil {
		return nil, err
	}
	cond, err := p.exprs.Expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect(")"); err != nil {
		return nil, err
	}
	thenStmts, err := p.block()
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: thenStmts}
	if p.Accept("else") {
		if p.Cur().Kind == "if" {
			nested, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			node.Else = []Stmt{nested}
			return node, nil
		}
		if node.Else, err = p.block(); err != nil {
			return nil, err
		}
	}
	return node, nil
}

var binKinds = map[lex.Kind]BinKind{
	"||": BOr, "&&": BAnd,
	"==": BEq, "!=": BNeq, "<": BLt, ">": BGt, "<=": BLe, ">=": BGe,
	"+": BAdd, "-": BSub, "*": BMul, "/": BDiv, "%": BMod,
}

// primary parses what the shared ladder leaves to the language: a literal,
// a packet field, or a declared state variable or local.
func (p *dparser) primary() (Expr, error) {
	t := p.Cur()
	switch t.Kind {
	case lex.Number:
		p.Advance()
		return &Lit{Value: t.Num}, nil
	case "pkt":
		name, err := p.field()
		if err != nil {
			return nil, err
		}
		return &Ref{Kind: RefField, Name: name}, nil
	case lex.Ident:
		p.Advance()
		switch {
		case p.states[t.Text]:
			return &Ref{Kind: RefState, Name: t.Text}, nil
		case p.locals[t.Text]:
			return &Ref{Kind: RefLocal, Name: t.Text}, nil
		default:
			return nil, p.Errorf(t, "undeclared identifier %q", t.Text)
		}
	default:
		return nil, p.Errorf(t, "expected expression, found %s", t)
	}
}

// String renders the program back to source (not used for round-tripping in
// tests of exactness, but handy for debugging).
func (p *Program) String() string {
	var b strings.Builder
	for _, s := range p.States {
		fmt.Fprintf(&b, "state %s = %d;\n", s.Name, s.Init)
	}
	b.WriteString("transaction {\n")
	writeStmts(&b, p.Body, 1)
	b.WriteString("}\n")
	return b.String()
}

func writeStmts(b *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			switch s.Target.Kind {
			case TargetField:
				fmt.Fprintf(b, "%spkt.%s = %s;\n", ind, s.Target.Name, exprString(s.Expr))
			case TargetLocal:
				fmt.Fprintf(b, "%sint %s = %s;\n", ind, s.Target.Name, exprString(s.Expr))
			default:
				fmt.Fprintf(b, "%s%s = %s;\n", ind, s.Target.Name, exprString(s.Expr))
			}
		case *If:
			fmt.Fprintf(b, "%sif (%s) {\n", ind, exprString(s.Cond))
			writeStmts(b, s.Then, depth+1)
			if s.Else != nil {
				fmt.Fprintf(b, "%s} else {\n", ind)
				writeStmts(b, s.Else, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		}
	}
}

var binNames = map[BinKind]string{
	BAdd: "+", BSub: "-", BMul: "*", BDiv: "/", BMod: "%",
	BEq: "==", BNeq: "!=", BLt: "<", BGt: ">", BLe: "<=", BGe: ">=",
	BAnd: "&&", BOr: "||",
}

func exprString(e Expr) string {
	switch e := e.(type) {
	case *Lit:
		return fmt.Sprintf("%d", e.Value)
	case *Ref:
		if e.Kind == RefField {
			return "pkt." + e.Name
		}
		return e.Name
	case *Un:
		if e.Neg {
			return "-" + exprString(e.X)
		}
		return "!" + exprString(e.X)
	case *Bin:
		return fmt.Sprintf("(%s %s %s)", exprString(e.X), binNames[e.Op], exprString(e.Y))
	default:
		return "?"
	}
}
