package p4

import (
	"errors"
	"fmt"

	"druzhba/internal/lex"
)

// ParseError reports a syntax or semantic error with its position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("p4: %d:%d: %s", e.Line, e.Col, e.Msg)
}

// lang is what the shared scanner needs to know about mini-P4: no reserved
// words (declaration and section names are contextual), a small punctuation
// set and hexadecimal literals.
var lang = lex.Language{
	Punct: lex.Set("{", "}", "(", ")", ";", ":", ",", ".", "-"),
	Hex:   true,
}

// Parse parses a mini-P4 program and validates all cross-references.
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
	p := &pparser{Cursor: lex.NewCursor(toks), prog: &Program{}}
	if err := p.parse(); err != nil {
		return nil, err
	}
	if err := Check(p.prog); err != nil {
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

type pparser struct {
	*lex.Cursor
	prog *Program
}

// keyword moves past the contextual keyword word.
func (p *pparser) keyword(word string) error {
	t := p.Cur()
	if t.Kind != lex.Ident || t.Text != word {
		return p.Errorf(t, "expected '%s', found %s", word, t)
	}
	p.Advance()
	return nil
}

func (p *pparser) parse() error {
	for {
		t := p.Cur()
		if t.Kind == lex.EOF {
			return nil
		}
		if t.Kind != lex.Ident {
			return p.Errorf(t, "expected declaration, found %s", t)
		}
		var err error
		switch t.Text {
		case "header_type":
			err = p.headerType()
		case "header":
			err = p.header()
		case "register":
			err = p.register()
		case "action":
			err = p.action()
		case "table":
			err = p.table()
		case "control":
			err = p.control()
		default:
			return p.Errorf(t, "unknown declaration %q", t.Text)
		}
		if err != nil {
			return err
		}
	}
}

func (p *pparser) headerType() error {
	p.Advance()
	name, err := p.Expect(lex.Ident)
	if err != nil {
		return err
	}
	if _, err := p.Expect("{"); err != nil {
		return err
	}
	if err := p.keyword("fields"); err != nil {
		return err
	}
	if _, err := p.Expect("{"); err != nil {
		return err
	}
	ht := &HeaderType{Name: name.Text}
	for p.Cur().Kind == lex.Ident {
		fname := p.Advance()
		if _, err := p.Expect(":"); err != nil {
			return err
		}
		bits, err := p.Expect(lex.Number)
		if err != nil {
			return err
		}
		if bits.Num < 1 || bits.Num > 62 {
			return p.Errorf(bits, "field width %d out of range [1,62]", bits.Num)
		}
		if _, err := p.Expect(";"); err != nil {
			return err
		}
		ht.Fields = append(ht.Fields, FieldDecl{Name: fname.Text, Bits: int(bits.Num)})
	}
	if _, err := p.Expect("}"); err != nil {
		return err
	}
	if _, err := p.Expect("}"); err != nil {
		return err
	}
	p.prog.HeaderTypes = append(p.prog.HeaderTypes, ht)
	return nil
}

func (p *pparser) header() error {
	p.Advance()
	typeName, err := p.Expect(lex.Ident)
	if err != nil {
		return err
	}
	name, err := p.Expect(lex.Ident)
	if err != nil {
		return err
	}
	if _, err := p.Expect(";"); err != nil {
		return err
	}
	p.prog.Headers = append(p.prog.Headers, &Header{Name: name.Text, TypeName: typeName.Text})
	return nil
}

func (p *pparser) register() error {
	p.Advance()
	name, err := p.Expect(lex.Ident)
	if err != nil {
		return err
	}
	if _, err := p.Expect("{"); err != nil {
		return err
	}
	reg := &Register{Name: name.Text, Bits: 32, Count: 1}
	for p.Cur().Kind == lex.Ident {
		prop := p.Advance()
		if _, err := p.Expect(":"); err != nil {
			return err
		}
		val, err := p.Expect(lex.Number)
		if err != nil {
			return err
		}
		if _, err := p.Expect(";"); err != nil {
			return err
		}
		switch prop.Text {
		case "width":
			reg.Bits = int(val.Num)
		case "instance_count":
			reg.Count = int(val.Num)
		default:
			return p.Errorf(prop, "unknown register property %q", prop.Text)
		}
	}
	if _, err := p.Expect("}"); err != nil {
		return err
	}
	p.prog.Registers = append(p.prog.Registers, reg)
	return nil
}

// fieldRef parses "hdr.field" and returns the dotted name.
func (p *pparser) fieldRef(first lex.Token) (string, error) {
	if _, err := p.Expect("."); err != nil {
		return "", err
	}
	f, err := p.Expect(lex.Ident)
	if err != nil {
		return "", err
	}
	return first.Text + "." + f.Text, nil
}

// operand parses a primitive argument: literal, -literal, param or field.
func (p *pparser) operand() (Operand, error) {
	t := p.Cur()
	switch t.Kind {
	case lex.Number:
		p.Advance()
		return Operand{Kind: OpLiteral, Value: t.Num}, nil
	case "-":
		p.Advance()
		n, err := p.Expect(lex.Number)
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpLiteral, Value: -n.Num}, nil
	case lex.Ident:
		p.Advance()
		if p.Cur().Kind == "." {
			name, err := p.fieldRef(t)
			if err != nil {
				return Operand{}, err
			}
			return Operand{Kind: OpField, Name: name}, nil
		}
		return Operand{Kind: OpParam, Name: t.Text}, nil
	default:
		return Operand{}, p.Errorf(t, "expected operand, found %s", t)
	}
}

func (p *pparser) action() error {
	p.Advance()
	name, err := p.Expect(lex.Ident)
	if err != nil {
		return err
	}
	act := &Action{Name: name.Text}
	if _, err := p.Expect("("); err != nil {
		return err
	}
	for p.Cur().Kind == lex.Ident {
		param := p.Advance()
		act.Params = append(act.Params, param.Text)
		p.Accept(",")
	}
	if _, err := p.Expect(")"); err != nil {
		return err
	}
	if _, err := p.Expect("{"); err != nil {
		return err
	}
	for p.Cur().Kind == lex.Ident {
		prim, err := p.primitive()
		if err != nil {
			return err
		}
		act.Prims = append(act.Prims, prim)
	}
	if _, err := p.Expect("}"); err != nil {
		return err
	}
	p.prog.Actions = append(p.prog.Actions, act)
	return nil
}

func (p *pparser) primitive() (Primitive, error) {
	name := p.Advance()
	var prim Primitive
	if _, err := p.Expect("("); err != nil {
		return prim, err
	}
	var args []Operand
	for p.Cur().Kind != ")" {
		op, err := p.operand()
		if err != nil {
			return prim, err
		}
		args = append(args, op)
		p.Accept(",")
	}
	p.Advance() // ')'
	if _, err := p.Expect(";"); err != nil {
		return prim, err
	}

	need := func(n int) error {
		if len(args) != n {
			return p.Errorf(name, "%s takes %d argument(s), got %d", name.Text, n, len(args))
		}
		return nil
	}
	fieldArg := func(i int) (string, error) {
		if args[i].Kind != OpField {
			return "", p.Errorf(name, "%s argument %d must be a header field", name.Text, i+1)
		}
		return args[i].Name, nil
	}
	regArg := func(i int) (string, error) {
		if args[i].Kind != OpParam {
			return "", p.Errorf(name, "%s argument %d must be a register name", name.Text, i+1)
		}
		return args[i].Name, nil
	}

	switch name.Text {
	case "modify_field", "add_to_field":
		if err := need(2); err != nil {
			return prim, err
		}
		f, err := fieldArg(0)
		if err != nil {
			return prim, err
		}
		prim = Primitive{Field: f, Args: args[1:]}
		if name.Text == "modify_field" {
			prim.Op = PrimModifyField
		} else {
			prim.Op = PrimAddToField
		}
	case "register_write", "register_add":
		if err := need(3); err != nil {
			return prim, err
		}
		r, err := regArg(0)
		if err != nil {
			return prim, err
		}
		prim = Primitive{Reg: r, Args: args[1:]}
		if name.Text == "register_write" {
			prim.Op = PrimRegWrite
		} else {
			prim.Op = PrimRegAdd
		}
	case "register_read":
		if err := need(3); err != nil {
			return prim, err
		}
		f, err := fieldArg(0)
		if err != nil {
			return prim, err
		}
		r, err := regArg(1)
		if err != nil {
			return prim, err
		}
		prim = Primitive{Op: PrimRegRead, Field: f, Reg: r, Args: args[2:]}
	case "drop":
		if err := need(0); err != nil {
			return prim, err
		}
		prim = Primitive{Op: PrimDrop}
	case "no_op":
		if err := need(0); err != nil {
			return prim, err
		}
		prim = Primitive{Op: PrimNoOp}
	default:
		return prim, p.Errorf(name, "unknown primitive %q", name.Text)
	}
	return prim, nil
}

func (p *pparser) table() error {
	p.Advance()
	name, err := p.Expect(lex.Ident)
	if err != nil {
		return err
	}
	tbl := &Table{Name: name.Text}
	if _, err := p.Expect("{"); err != nil {
		return err
	}
	for p.Cur().Kind == lex.Ident {
		section := p.Advance()
		switch section.Text {
		case "reads":
			if _, err := p.Expect("{"); err != nil {
				return err
			}
			for p.Cur().Kind == lex.Ident {
				first := p.Advance()
				fname, err := p.fieldRef(first)
				if err != nil {
					return err
				}
				if _, err := p.Expect(":"); err != nil {
					return err
				}
				kindTok, err := p.Expect(lex.Ident)
				if err != nil {
					return err
				}
				var kind MatchKind
				switch kindTok.Text {
				case "exact":
					kind = MatchExact
				case "ternary":
					kind = MatchTernary
				default:
					return p.Errorf(kindTok, "unknown match kind %q", kindTok.Text)
				}
				if _, err := p.Expect(";"); err != nil {
					return err
				}
				tbl.Reads = append(tbl.Reads, Match{Field: fname, Kind: kind})
			}
			if _, err := p.Expect("}"); err != nil {
				return err
			}
		case "actions":
			if _, err := p.Expect("{"); err != nil {
				return err
			}
			for p.Cur().Kind == lex.Ident {
				a := p.Advance()
				tbl.Actions = append(tbl.Actions, a.Text)
				if _, err := p.Expect(";"); err != nil {
					return err
				}
			}
			if _, err := p.Expect("}"); err != nil {
				return err
			}
		case "default_action":
			if _, err := p.Expect(":"); err != nil {
				return err
			}
			a, err := p.Expect(lex.Ident)
			if err != nil {
				return err
			}
			call := &ActionCall{Name: a.Text}
			if p.Accept("(") {
				for p.Cur().Kind != ")" {
					neg := p.Accept("-")
					n, err := p.Expect(lex.Number)
					if err != nil {
						return err
					}
					v := n.Num
					if neg {
						v = -v
					}
					call.Args = append(call.Args, v)
					p.Accept(",")
				}
				p.Advance() // ')'
			}
			if _, err := p.Expect(";"); err != nil {
				return err
			}
			tbl.Default = call
		default:
			return p.Errorf(section, "unknown table section %q", section.Text)
		}
	}
	if _, err := p.Expect("}"); err != nil {
		return err
	}
	p.prog.Tables = append(p.prog.Tables, tbl)
	return nil
}

func (p *pparser) control() error {
	p.Advance()
	if err := p.keyword("ingress"); err != nil {
		return err
	}
	if _, err := p.Expect("{"); err != nil {
		return err
	}
	for p.Cur().Kind == lex.Ident {
		if err := p.keyword("apply"); err != nil {
			return err
		}
		if _, err := p.Expect("("); err != nil {
			return err
		}
		name, err := p.Expect(lex.Ident)
		if err != nil {
			return err
		}
		if _, err := p.Expect(")"); err != nil {
			return err
		}
		if _, err := p.Expect(";"); err != nil {
			return err
		}
		p.prog.Control = append(p.prog.Control, name.Text)
	}
	if _, err := p.Expect("}"); err != nil {
		return err
	}
	return nil
}

// MaxRegisterCells bounds the register cells a program declares in all: each
// is a frame register of both dRMT machines and their linked program (≈ 64 B
// in a differential fuzzer). The largest registered benchmark declares 80.
const MaxRegisterCells = 1 << 16

// Check validates cross-references: header types, fields, registers, action
// names, parameter references, control targets, declaration uniqueness and
// register shapes and sizes.
func Check(prog *Program) error {
	dup := map[string]bool{}
	unique := func(kind, name string) error {
		key := kind + "\x00" + name
		if dup[key] {
			return fmt.Errorf("p4: duplicate %s %q", kind, name)
		}
		dup[key] = true
		return nil
	}
	for _, ht := range prog.HeaderTypes {
		if err := unique("header type", ht.Name); err != nil {
			return err
		}
	}
	for _, h := range prog.Headers {
		if err := unique("header", h.Name); err != nil {
			return err
		}
	}
	for _, a := range prog.Actions {
		if err := unique("action", a.Name); err != nil {
			return err
		}
	}
	for _, t := range prog.Tables {
		if err := unique("table", t.Name); err != nil {
			return err
		}
	}
	cells := 0
	for _, r := range prog.Registers {
		if err := unique("register", r.Name); err != nil {
			return err
		}
		if r.Bits < 1 || r.Bits > 62 {
			return fmt.Errorf("p4: register %q width %d out of range [1,62]", r.Name, r.Bits)
		}
		if r.Count < 1 {
			return fmt.Errorf("p4: register %q instance_count %d < 1", r.Name, r.Count)
		}
		if cells += r.Count; r.Count > MaxRegisterCells || cells > MaxRegisterCells {
			return fmt.Errorf("p4: register %q (instance_count %d) takes the program past %d register cells", r.Name, r.Count, MaxRegisterCells)
		}
	}
	fields := map[string]bool{}
	for _, h := range prog.Headers {
		ht := prog.HeaderType(h.TypeName)
		if ht == nil {
			return fmt.Errorf("p4: header %q instantiates unknown type %q", h.Name, h.TypeName)
		}
		for _, f := range ht.Fields {
			fields[h.Name+"."+f.Name] = true
		}
	}
	checkOperand := func(a *Action, o Operand) error {
		switch o.Kind {
		case OpField:
			if !fields[o.Name] {
				return fmt.Errorf("p4: action %q references unknown field %q", a.Name, o.Name)
			}
		case OpParam:
			for _, p := range a.Params {
				if p == o.Name {
					return nil
				}
			}
			return fmt.Errorf("p4: action %q references unknown parameter %q", a.Name, o.Name)
		}
		return nil
	}
	for _, a := range prog.Actions {
		for _, pr := range a.Prims {
			if pr.Field != "" && !fields[pr.Field] {
				return fmt.Errorf("p4: action %q targets unknown field %q", a.Name, pr.Field)
			}
			if pr.Reg != "" && prog.Register(pr.Reg) == nil {
				return fmt.Errorf("p4: action %q uses unknown register %q", a.Name, pr.Reg)
			}
			for _, o := range pr.Args {
				if err := checkOperand(a, o); err != nil {
					return err
				}
			}
		}
	}
	for _, t := range prog.Tables {
		for _, m := range t.Reads {
			if !fields[m.Field] {
				return fmt.Errorf("p4: table %q matches unknown field %q", t.Name, m.Field)
			}
		}
		for _, a := range t.Actions {
			if prog.Action(a) == nil {
				return fmt.Errorf("p4: table %q lists unknown action %q", t.Name, a)
			}
		}
		if t.Default != nil {
			act := prog.Action(t.Default.Name)
			if act == nil {
				return fmt.Errorf("p4: table %q default uses unknown action %q", t.Name, t.Default.Name)
			}
			if len(t.Default.Args) != len(act.Params) {
				return fmt.Errorf("p4: table %q default %q: %d args for %d params",
					t.Name, t.Default.Name, len(t.Default.Args), len(act.Params))
			}
		}
	}
	seen := map[string]bool{}
	for _, name := range prog.Control {
		if prog.Table(name) == nil {
			return fmt.Errorf("p4: control applies unknown table %q", name)
		}
		if seen[name] {
			return fmt.Errorf("p4: control applies table %q twice", name)
		}
		seen[name] = true
	}
	return nil
}
