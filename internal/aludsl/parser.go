package aludsl

import (
	"errors"
	"fmt"

	"druzhba/internal/lex"
)

// Parse parses an ALU DSL program, resolves identifiers, assigns hole names
// and validates the result. The input follows Fig. 4 of the paper:
//
//	type: stateful
//	state variables: {state_0}
//	hole variables: {}
//	packet fields: {pkt_0, pkt_1}
//	if (rel_op(Opt(state_0), Mux3(pkt_0, pkt_1, C()))) {
//	    state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());
//	} else {
//	    state_0 = Opt(state_0) + Mux3(pkt_0, pkt_1, C());
//	}
//
// Header lines may appear in any order; "hole variables" and
// "state variables" may be omitted (stateless ALUs usually omit both).
func Parse(src string) (*Program, error) {
	prog, err := parse(src)
	var le *lex.Error
	if errors.As(err, &le) {
		return nil, &SyntaxError{Line: le.Line, Col: le.Col, Msg: le.Msg}
	}
	return prog, err
}

// MustParse is Parse for known-good sources; it panics on error.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// A SyntaxError reports a lexical or parse failure with its position.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("aludsl: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lang is what the shared scanner needs to know about the ALU DSL.
var lang = lex.Language{
	Keywords: lex.Set("if", "else", "return"),
	Punct: lex.Set(":", ",", ";", "{", "}", "(", ")", "=", "+", "-", "*", "/", "%",
		"==", "!=", "<", ">", "<=", ">=", "&&", "||", "!"),
}

type parser struct {
	*lex.Cursor
	exprs      lex.Ladder[Expr]
	holeCounts [len(builtins)]int // per-builtin counters for hole naming
}

func parse(src string) (*Program, error) {
	toks, err := lang.Scan(src)
	if err != nil {
		return nil, err
	}
	p := &parser{Cursor: lex.NewCursor(toks)}
	p.exprs = lex.Ladder[Expr]{
		Cursor:  p.Cursor,
		Binary:  func(op lex.Kind, x, y Expr) Expr { return &Binary{Op: binOps[op], X: x, Y: y} },
		Unary:   func(op lex.Kind, x Expr) Expr { return &Unary{Op: unOps[op], X: x} },
		Primary: p.parsePrimary,
	}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	if err := Resolve(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

var binOps = map[lex.Kind]BinOp{
	"||": OpOr, "&&": OpAnd,
	"==": OpEq, "!=": OpNeq, "<": OpLt, ">": OpGt, "<=": OpLe, ">=": OpGe,
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpMod,
}

var unOps = map[lex.Kind]UnOp{"-": OpNeg, "!": OpNot}

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{Kind: Stateless}

	sawType := false
	for {
		t := p.Cur()
		if t.Kind != lex.Ident {
			break
		}
		// Header lines: "type:", "state variables:", "hole variables:",
		// "packet fields:". A bare identifier followed by anything else
		// starts the body.
		switch t.Text {
		case "type":
			p.Advance()
			if _, err := p.Expect(":"); err != nil {
				return nil, err
			}
			kt, err := p.Expect(lex.Ident)
			if err != nil {
				return nil, err
			}
			switch kt.Text {
			case "stateful":
				prog.Kind = Stateful
			case "stateless":
				prog.Kind = Stateless
			default:
				return nil, p.Errorf(kt, "unknown ALU type %q (want stateful or stateless)", kt.Text)
			}
			sawType = true
			continue
		case "state", "hole", "packet":
			second := map[string]string{"state": "variables", "hole": "variables", "packet": "fields"}[t.Text]
			// Look ahead: ident ident ':' confirms a header line.
			if next := p.Peek(); next.Kind == lex.Ident && next.Text == second {
				p.Advance()
				p.Advance()
				if _, err := p.Expect(":"); err != nil {
					return nil, err
				}
				names, err := p.parseNameSet()
				if err != nil {
					return nil, err
				}
				switch t.Text {
				case "state":
					prog.StateVars = names
				case "hole":
					prog.HoleVars = names
				case "packet":
					prog.PacketFields = names
				}
				continue
			}
		}
		break
	}
	if !sawType {
		return nil, p.Errorf(p.Cur(), "missing 'type:' header")
	}

	body, err := p.parseStmts(lex.EOF)
	if err != nil {
		return nil, err
	}
	prog.Body = body
	if _, err := p.Expect(lex.EOF); err != nil {
		return nil, err
	}
	return prog, nil
}

// parseNameSet parses "{a, b, c}" (possibly empty).
func (p *parser) parseNameSet() ([]string, error) {
	if _, err := p.Expect("{"); err != nil {
		return nil, err
	}
	var names []string
	if p.Accept("}") {
		return names, nil
	}
	for {
		t, err := p.Expect(lex.Ident)
		if err != nil {
			return nil, err
		}
		names = append(names, t.Text)
		if !p.Accept(",") {
			break
		}
	}
	if _, err := p.Expect("}"); err != nil {
		return nil, err
	}
	return names, nil
}

// parseStmts parses statements until the terminator kind (not consumed).
func (p *parser) parseStmts(end lex.Kind) ([]Stmt, error) {
	var stmts []Stmt
	for p.Cur().Kind != end && p.Cur().Kind != lex.EOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return stmts, nil
}

// parseBlock parses "{ stmts }".
func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.Expect("{"); err != nil {
		return nil, err
	}
	stmts, err := p.parseStmts("}")
	if err != nil {
		return nil, err
	}
	if _, err := p.Expect("}"); err != nil {
		return nil, err
	}
	return stmts, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.Cur()
	switch t.Kind {
	case "if":
		return p.parseIf()
	case "return":
		p.Advance()
		e, err := p.exprs.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(";"); err != nil {
			return nil, err
		}
		return &Return{Value: e}, nil
	case lex.Ident:
		p.Advance()
		if _, err := p.Expect("="); err != nil {
			return nil, err
		}
		rhs, err := p.exprs.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.Expect(";"); err != nil {
			return nil, err
		}
		return &Assign{LHS: &Ident{Name: t.Text}, RHS: rhs}, nil
	default:
		return nil, p.Errorf(t, "expected statement, found %s", t)
	}
}

func (p *parser) parseIf() (Stmt, error) {
	if err := p.Enter(); err != nil {
		return nil, err
	}
	defer p.Leave()
	p.Advance() // 'if'
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
	thenStmts, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &If{Cond: cond, Then: thenStmts}
	if p.Accept("else") {
		if p.Cur().Kind == "if" {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			node.Else = []Stmt{elseIf}
			return node, nil
		}
		if node.Else, err = p.parseBlock(); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// parsePrimary parses what the shared ladder leaves to the language:
//
//	primary = number | ident | ident '(' args ')'
func (p *parser) parsePrimary() (Expr, error) {
	t := p.Cur()
	switch t.Kind {
	case lex.Number:
		p.Advance()
		return &Num{Value: t.Num}, nil
	case lex.Ident:
		p.Advance()
		if p.Cur().Kind != "(" {
			return &Ident{Name: t.Text}, nil
		}
		kind := -1
		for k, b := range builtins {
			if b.name == t.Text {
				kind = k
			}
		}
		if kind < 0 {
			return nil, p.Errorf(t, "unknown builtin %q", t.Text)
		}
		p.Advance() // '('
		var args []Expr
		if p.Cur().Kind != ")" {
			for {
				a, err := p.exprs.Expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.Accept(",") {
					break
				}
			}
		}
		if _, err := p.Expect(")"); err != nil {
			return nil, err
		}
		// Resolve checks the argument count against the builtin's arity.
		n := p.holeCounts[kind]
		p.holeCounts[kind]++
		return &HoleCall{
			Builtin: BuiltinKind(kind),
			Hole:    fmt.Sprintf("%s_%d", builtins[kind].prefix, n),
			Args:    args,
		}, nil
	default:
		return nil, p.Errorf(t, "expected expression, found %s", t)
	}
}
