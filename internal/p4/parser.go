package p4

import (
	"fmt"
	"strconv"
)

// ParseError reports a syntax or semantic error with its position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("p4: %d:%d: %s", e.Line, e.Col, e.Msg)
}

type ptoken struct {
	kind string // "ident", "num", "eof", or literal punctuation
	text string
	num  int64
	line int
	col  int
}

func plex(src string) ([]ptoken, error) {
	var toks []ptoken
	line, col := 1, 1
	i := 0
	adv := func() {
		if src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
		i++
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv()
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				adv()
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				adv()
			}
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
			start, l0, c0 := i, line, col
			for i < len(src) && (src[i] == '_' || (src[i] >= 'a' && src[i] <= 'z') || (src[i] >= 'A' && src[i] <= 'Z') || (src[i] >= '0' && src[i] <= '9')) {
				adv()
			}
			toks = append(toks, ptoken{kind: "ident", text: src[start:i], line: l0, col: c0})
		case c >= '0' && c <= '9':
			start, l0, c0 := i, line, col
			for i < len(src) && ((src[i] >= '0' && src[i] <= '9') || src[i] == 'x' || (src[i] >= 'a' && src[i] <= 'f') || (src[i] >= 'A' && src[i] <= 'F')) {
				adv()
			}
			n, err := strconv.ParseInt(src[start:i], 0, 64)
			if err != nil {
				return nil, &ParseError{Line: l0, Col: c0, Msg: fmt.Sprintf("bad number %q", src[start:i])}
			}
			toks = append(toks, ptoken{kind: "num", text: src[start:i], num: n, line: l0, col: c0})
		default:
			switch c {
			case '{', '}', '(', ')', ';', ':', ',', '.', '-':
				toks = append(toks, ptoken{kind: string(c), line: line, col: col})
				adv()
			default:
				return nil, &ParseError{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", string(c))}
			}
		}
	}
	toks = append(toks, ptoken{kind: "eof", line: line, col: col})
	return toks, nil
}

// Parse parses a mini-P4 program and validates all cross-references.
func Parse(src string) (*Program, error) {
	toks, err := plex(src)
	if err != nil {
		return nil, err
	}
	p := &pparser{toks: toks, prog: &Program{}}
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
	toks []ptoken
	pos  int
	prog *Program
}

func (p *pparser) cur() ptoken { return p.toks[p.pos] }

func (p *pparser) advance() ptoken {
	t := p.toks[p.pos]
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *pparser) errf(t ptoken, format string, args ...any) error {
	return &ParseError{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *pparser) expect(kind string) (ptoken, error) {
	t := p.cur()
	if t.kind != kind {
		return t, p.errf(t, "expected %q, found %q", kind, tokenText(t))
	}
	return p.advance(), nil
}

func (p *pparser) keyword(word string) error {
	t := p.cur()
	if t.kind != "ident" || t.text != word {
		return p.errf(t, "expected %q, found %q", word, tokenText(t))
	}
	p.advance()
	return nil
}

func tokenText(t ptoken) string {
	if t.kind == "ident" || t.kind == "num" {
		return t.text
	}
	return t.kind
}

func (p *pparser) parse() error {
	for {
		t := p.cur()
		if t.kind == "eof" {
			return nil
		}
		if t.kind != "ident" {
			return p.errf(t, "expected declaration, found %q", tokenText(t))
		}
		var err error
		switch t.text {
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
			return p.errf(t, "unknown declaration %q", t.text)
		}
		if err != nil {
			return err
		}
	}
}

func (p *pparser) headerType() error {
	p.advance()
	name, err := p.expect("ident")
	if err != nil {
		return err
	}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	if err := p.keyword("fields"); err != nil {
		return err
	}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	ht := &HeaderType{Name: name.text}
	for p.cur().kind == "ident" {
		fname := p.advance()
		if _, err := p.expect(":"); err != nil {
			return err
		}
		bits, err := p.expect("num")
		if err != nil {
			return err
		}
		if bits.num < 1 || bits.num > 62 {
			return p.errf(bits, "field width %d out of range [1,62]", bits.num)
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		ht.Fields = append(ht.Fields, FieldDecl{Name: fname.text, Bits: int(bits.num)})
	}
	if _, err := p.expect("}"); err != nil {
		return err
	}
	if _, err := p.expect("}"); err != nil {
		return err
	}
	p.prog.HeaderTypes = append(p.prog.HeaderTypes, ht)
	return nil
}

func (p *pparser) header() error {
	p.advance()
	typeName, err := p.expect("ident")
	if err != nil {
		return err
	}
	name, err := p.expect("ident")
	if err != nil {
		return err
	}
	if _, err := p.expect(";"); err != nil {
		return err
	}
	p.prog.Headers = append(p.prog.Headers, &Header{Name: name.text, TypeName: typeName.text})
	return nil
}

func (p *pparser) register() error {
	p.advance()
	name, err := p.expect("ident")
	if err != nil {
		return err
	}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	reg := &Register{Name: name.text, Bits: 32, Count: 1}
	for p.cur().kind == "ident" {
		prop := p.advance()
		if _, err := p.expect(":"); err != nil {
			return err
		}
		val, err := p.expect("num")
		if err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		switch prop.text {
		case "width":
			reg.Bits = int(val.num)
		case "instance_count":
			reg.Count = int(val.num)
		default:
			return p.errf(prop, "unknown register property %q", prop.text)
		}
	}
	if _, err := p.expect("}"); err != nil {
		return err
	}
	p.prog.Registers = append(p.prog.Registers, reg)
	return nil
}

// fieldRef parses "hdr.field" and returns the dotted name.
func (p *pparser) fieldRef(first ptoken) (string, error) {
	if _, err := p.expect("."); err != nil {
		return "", err
	}
	f, err := p.expect("ident")
	if err != nil {
		return "", err
	}
	return first.text + "." + f.text, nil
}

// operand parses a primitive argument: literal, -literal, param or field.
func (p *pparser) operand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case "num":
		p.advance()
		return Operand{Kind: OpLiteral, Value: t.num}, nil
	case "-":
		p.advance()
		n, err := p.expect("num")
		if err != nil {
			return Operand{}, err
		}
		return Operand{Kind: OpLiteral, Value: -n.num}, nil
	case "ident":
		p.advance()
		if p.cur().kind == "." {
			name, err := p.fieldRef(t)
			if err != nil {
				return Operand{}, err
			}
			return Operand{Kind: OpField, Name: name}, nil
		}
		return Operand{Kind: OpParam, Name: t.text}, nil
	default:
		return Operand{}, p.errf(t, "expected operand, found %q", tokenText(t))
	}
}

func (p *pparser) action() error {
	p.advance()
	name, err := p.expect("ident")
	if err != nil {
		return err
	}
	act := &Action{Name: name.text}
	if _, err := p.expect("("); err != nil {
		return err
	}
	for p.cur().kind == "ident" {
		param := p.advance()
		act.Params = append(act.Params, param.text)
		if p.cur().kind == "," {
			p.advance()
		}
	}
	if _, err := p.expect(")"); err != nil {
		return err
	}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	for p.cur().kind == "ident" {
		prim, err := p.primitive()
		if err != nil {
			return err
		}
		act.Prims = append(act.Prims, prim)
	}
	if _, err := p.expect("}"); err != nil {
		return err
	}
	p.prog.Actions = append(p.prog.Actions, act)
	return nil
}

func (p *pparser) primitive() (Primitive, error) {
	name := p.advance()
	var prim Primitive
	if _, err := p.expect("("); err != nil {
		return prim, err
	}
	var args []Operand
	for p.cur().kind != ")" {
		op, err := p.operand()
		if err != nil {
			return prim, err
		}
		args = append(args, op)
		if p.cur().kind == "," {
			p.advance()
		}
	}
	p.advance() // ')'
	if _, err := p.expect(";"); err != nil {
		return prim, err
	}

	need := func(n int) error {
		if len(args) != n {
			return p.errf(name, "%s takes %d argument(s), got %d", name.text, n, len(args))
		}
		return nil
	}
	fieldArg := func(i int) (string, error) {
		if args[i].Kind != OpField {
			return "", p.errf(name, "%s argument %d must be a header field", name.text, i+1)
		}
		return args[i].Name, nil
	}
	regArg := func(i int) (string, error) {
		if args[i].Kind != OpParam {
			return "", p.errf(name, "%s argument %d must be a register name", name.text, i+1)
		}
		return args[i].Name, nil
	}

	switch name.text {
	case "modify_field", "add_to_field":
		if err := need(2); err != nil {
			return prim, err
		}
		f, err := fieldArg(0)
		if err != nil {
			return prim, err
		}
		prim = Primitive{Field: f, Args: args[1:]}
		if name.text == "modify_field" {
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
		if name.text == "register_write" {
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
		return prim, p.errf(name, "unknown primitive %q", name.text)
	}
	return prim, nil
}

func (p *pparser) table() error {
	p.advance()
	name, err := p.expect("ident")
	if err != nil {
		return err
	}
	tbl := &Table{Name: name.text}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	for p.cur().kind == "ident" {
		section := p.advance()
		switch section.text {
		case "reads":
			if _, err := p.expect("{"); err != nil {
				return err
			}
			for p.cur().kind == "ident" {
				first := p.advance()
				fname, err := p.fieldRef(first)
				if err != nil {
					return err
				}
				if _, err := p.expect(":"); err != nil {
					return err
				}
				kindTok, err := p.expect("ident")
				if err != nil {
					return err
				}
				var kind MatchKind
				switch kindTok.text {
				case "exact":
					kind = MatchExact
				case "ternary":
					kind = MatchTernary
				default:
					return p.errf(kindTok, "unknown match kind %q", kindTok.text)
				}
				if _, err := p.expect(";"); err != nil {
					return err
				}
				tbl.Reads = append(tbl.Reads, Match{Field: fname, Kind: kind})
			}
			if _, err := p.expect("}"); err != nil {
				return err
			}
		case "actions":
			if _, err := p.expect("{"); err != nil {
				return err
			}
			for p.cur().kind == "ident" {
				a := p.advance()
				tbl.Actions = append(tbl.Actions, a.text)
				if _, err := p.expect(";"); err != nil {
					return err
				}
			}
			if _, err := p.expect("}"); err != nil {
				return err
			}
		case "default_action":
			if _, err := p.expect(":"); err != nil {
				return err
			}
			a, err := p.expect("ident")
			if err != nil {
				return err
			}
			call := &ActionCall{Name: a.text}
			if p.cur().kind == "(" {
				p.advance()
				for p.cur().kind != ")" {
					neg := false
					if p.cur().kind == "-" {
						neg = true
						p.advance()
					}
					n, err := p.expect("num")
					if err != nil {
						return err
					}
					v := n.num
					if neg {
						v = -v
					}
					call.Args = append(call.Args, v)
					if p.cur().kind == "," {
						p.advance()
					}
				}
				p.advance() // ')'
			}
			if _, err := p.expect(";"); err != nil {
				return err
			}
			tbl.Default = call
		default:
			return p.errf(section, "unknown table section %q", section.text)
		}
	}
	if _, err := p.expect("}"); err != nil {
		return err
	}
	p.prog.Tables = append(p.prog.Tables, tbl)
	return nil
}

func (p *pparser) control() error {
	p.advance()
	if err := p.keyword("ingress"); err != nil {
		return err
	}
	if _, err := p.expect("{"); err != nil {
		return err
	}
	for p.cur().kind == "ident" {
		if err := p.keyword("apply"); err != nil {
			return err
		}
		if _, err := p.expect("("); err != nil {
			return err
		}
		name, err := p.expect("ident")
		if err != nil {
			return err
		}
		if _, err := p.expect(")"); err != nil {
			return err
		}
		if _, err := p.expect(";"); err != nil {
			return err
		}
		p.prog.Control = append(p.prog.Control, name.text)
	}
	if _, err := p.expect("}"); err != nil {
		return err
	}
	return nil
}

// Check validates cross-references: header types, fields, registers, action
// names, parameter references, control targets, declaration uniqueness and
// register shapes.
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
