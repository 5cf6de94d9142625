package domino

import (
	"fmt"
	"slices"

	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// Evaluation lowers the transaction once, when it is bound (Bind), to a flat
// register program (package flat, the evaluator the fused pipeline runs on
// too): a state variable, a local and a packet field are registers of one
// frame, a literal is a constant register, an if is a forward jump. The
// lowered form is immutable, so every instance of a Binding shares it; an
// instance (PHVSpec) owns a frame.
//
// The language's only run-time failure is a read of a local that was never
// written this packet. Lowering runs a definite-assignment analysis and only
// a read it cannot prove assigned keeps a check: a Trap on the local's
// "assigned" flag, which stops the program with an index into code.errs in
// the error register, leaving the writes of the statements before it in
// place — what the tree walk this replaced did. A packet field always holds
// its container's value: Bind checks that a container is bound to every field
// the parser saw. An AST node the language does not have, and a field no
// container is bound to, which only a hand-built AST can name, become an
// unconditional Trap, reported if and when execution reaches it.

// code is a Program lowered for one width and one binding of packet fields to
// containers.
type code struct {
	prog  *flat.Program
	state map[string]int // state variable -> register

	// bound are the fields the program names, each with its register: a
	// PHVSpec copies them in before a run and back after it, and
	// Binding.Link binds them to the registers of the containers instead.
	bound []boundField

	errReg int     // holds 1+index into errs after a failed run, else 0
	flags  []int   // "assigned" flag registers, zero between packets
	errs   []error // what a Trap can report
}

type boundField struct{ reg, container int }

// lowering is one pass over the program. Only the locals in tracked get a
// flag register and flag writes, and which locals need tracking — those some
// read could find unassigned — is known only once every read has been seen:
// a pass records them in needs, and resolve lowers again with that set when
// the first pass found any. A local is numbered in the order the pass first
// meets it; a pass over the same program meets them in the same order, so
// the numbers carry from one pass to the next.
type lowering struct {
	c              *code
	b              *flat.Builder
	w              phv.Width
	bind           FieldMap
	fields         []string // fields[i]: the field of c.bound[i]
	locals         []local  // by number
	tracked, needs []bool   // by local number; tracked may be shorter: the rest are not
}

// local is a local variable and its registers; flag is -1 when the local is
// not tracked.
type local struct {
	name      string
	reg, flag int
}

// resolve never fails: a node it cannot make sense of becomes a Trap that
// reports its error if and when execution reaches it.
func resolve(p *Program, w phv.Width, bind FieldMap) *code {
	size := sizeOf(p)
	c, needs := lower(p, w, bind, nil, size)
	if slices.Contains(needs, true) {
		c, _ = lower(p, w, bind, needs, size)
	}
	return c
}

func lower(p *Program, w phv.Width, bind FieldMap, tracked []bool, size flat.Size) (*code, []bool) {
	l := &lowering{c: &code{state: make(map[string]int, len(p.States))}, b: flat.NewBuilder(w), w: w, bind: bind, tracked: tracked}
	l.b.Reserve(size)
	for _, s := range p.States {
		l.c.state[s.Name] = l.b.Reg(s.Name, w.Trunc(s.Init))
	}
	l.c.errReg = l.b.Reg("err", 0)
	l.stmts(p.Body, nil) // no local is assigned yet
	prog, err := l.b.Build()
	if err != nil {
		panic(err) // the lowering emitted an instruction flat refuses: a bug here
	}
	l.c.prog = prog
	return l.c, l.needs
}

// sizeOf estimates what lowering p emits, for flat.Builder.Reserve, from
// what each node costs at most: an operation an instruction and a temporary
// (a logical one four instructions), a literal a constant, a mention of a
// local or field a named register, an assignment the instruction that
// writes its target, an if a branch and a jump. A read renames and a
// constant folds where they can, so it errs high, but not by much.
func sizeOf(p *Program) flat.Size {
	var s flat.Size
	temps := 0
	var stmts func([]Stmt)
	var expr func(Expr)
	expr = func(e Expr) {
		switch e := e.(type) {
		case *Lit:
			s.Consts++
		case *Ref:
			if e.Kind != RefState {
				s.Names++
			}
		case *Un:
			s.Instrs++
			temps++
			expr(e.X)
		case *Bin:
			s.Instrs++
			if e.Op == BAnd || e.Op == BOr {
				s.Instrs += 3
			}
			temps++
			expr(e.X)
			expr(e.Y)
		}
	}
	stmts = func(list []Stmt) {
		for _, st := range list {
			switch st := st.(type) {
			case *Assign:
				s.Instrs++
				if st.Target.Kind != TargetState {
					s.Names++
				}
				expr(st.Expr)
			case *If:
				s.Instrs += 2
				expr(st.Cond)
				stmts(st.Then)
				stmts(st.Else)
			}
		}
	}
	stmts(p.Body)
	s.Consts += 2 // 0 and 1: branches, checks and flag writes use them
	s.Names += len(p.States) + 1
	s.Regs = s.Names + s.Consts + temps
	return s
}

// stateReg returns name's register. Only a hand-built AST can name an
// undeclared state; it reads as 0 until assigned.
func (l *lowering) stateReg(name string) int {
	r, ok := l.c.state[name]
	if !ok {
		r = l.b.Reg(name, 0)
		l.c.state[name] = r
	}
	return r
}

// fieldReg returns the register of the packet field name, allocating it on
// first use; ok is false when no container is bound to the field.
func (l *lowering) fieldReg(name string) (reg int, ok bool) {
	container, ok := l.bind[name]
	if !ok {
		return -1, false
	}
	if i := slices.Index(l.fields, name); i >= 0 {
		return l.c.bound[i].reg, true
	}
	reg = l.b.Reg("pkt."+name, 0)
	l.fields = append(l.fields, name)
	l.c.bound = append(l.c.bound, boundField{reg, container})
	return reg, true
}

// localOf returns the number of the local name, allocating its register on
// first use, together with its flag register when the local is tracked.
func (l *lowering) localOf(name string) int {
	for i, v := range l.locals {
		if v.name == name {
			return i
		}
	}
	i := len(l.locals)
	v := local{name: name, reg: l.b.Reg(name, 0), flag: -1}
	if i < len(l.tracked) && l.tracked[i] {
		v.flag = l.b.Reg(name+"?", 0)
		l.c.flags = append(l.c.flags, v.flag)
	}
	l.locals = append(l.locals, v)
	l.needs = append(l.needs, false)
	return i
}

// fail emits a Trap reporting err unless the flag register is nonzero; a
// negative flag fails unconditionally, and what is lowered after it is never
// reached.
func (l *lowering) fail(flag int, err error) {
	if flag < 0 {
		flag = l.b.Const(0)
	}
	l.c.errs = append(l.c.errs, err)
	l.b.Op(flat.Trap, l.c.errReg, flag, len(l.c.errs))
}

// stmts lowers a statement list. done[i] holds whether every path to this
// point has written local i this packet (past its end: not); stmts returns
// it updated, in place where it has room.
func (l *lowering) stmts(list []Stmt, done []bool) []bool {
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			switch s.Target.Kind {
			case TargetState:
				l.expr(s.Expr, l.stateReg(s.Target.Name), done)
			case TargetField:
				if r, ok := l.fieldReg(s.Target.Name); ok {
					l.expr(s.Expr, r, done)
				} else {
					l.fail(-1, unboundField(s.Target.Name))
				}
			case TargetLocal:
				i := l.localOf(s.Target.Name)
				l.expr(s.Expr, l.locals[i].reg, done)
				if f := l.locals[i].flag; f >= 0 {
					l.b.Move(f, l.b.Const(1))
				}
				for len(done) <= i {
					done = append(done, false)
				}
				done[i] = true
			default: // a target of any other kind stores nowhere
				l.expr(s.Expr, -1, done)
			}
		case *If:
			toElse := l.b.Branch(flat.Jeq, l.expr(s.Cond, -1, done), l.b.Const(0))
			then := l.stmts(s.Then, slices.Clone(done))
			if len(s.Else) > 0 {
				toEnd := l.b.Jump()
				l.b.Land(toElse)
				done = l.stmts(s.Else, done)
				toElse = toEnd
			}
			l.b.Land(toElse)
			// Assigned after the if: on both paths. Each path started from
			// done, so neither unassigns a local.
			done = done[:min(len(done), len(then))]
			for i := range done {
				done[i] = done[i] && then[i]
			}
		default:
			l.fail(-1, fmt.Errorf("domino: unknown statement %T", s))
		}
	}
	return done
}

// expr lowers an expression and returns the register holding its value: dst
// when dst >= 0, else wherever the value already lives or a fresh temporary.
// Only the last instruction writes dst, after every operand has been read,
// so dst may be a register the expression reads.
func (l *lowering) expr(e Expr, dst int, done []bool) int {
	switch e := e.(type) {
	case *Lit:
		return l.b.Move(dst, l.b.Const(l.w.Trunc(e.Value)))
	case *Ref:
		switch e.Kind {
		case RefState:
			return l.b.Move(dst, l.stateReg(e.Name))
		case RefField:
			if r, ok := l.fieldReg(e.Name); ok {
				return l.b.Move(dst, r)
			}
			l.fail(-1, unboundField(e.Name))
			return l.b.Const(0)
		case RefLocal:
			i := l.localOf(e.Name)
			if i >= len(done) || !done[i] {
				l.needs[i] = true
				if f := l.locals[i].flag; f >= 0 {
					l.fail(f, fmt.Errorf("domino: local %q read before assignment", e.Name))
				}
			}
			return l.b.Move(dst, l.locals[i].reg)
		}
		l.fail(-1, fmt.Errorf("domino: bad reference kind %d", e.Kind))
		return l.b.Const(0)
	case *Un:
		zero := l.b.Const(0)
		if e.Neg {
			return l.b.Op(flat.Sub, dst, zero, l.expr(e.X, -1, done))
		}
		return l.b.Op(flat.Eq, dst, l.expr(e.X, -1, done), zero)
	case *Bin:
		if e.Op < BAdd || e.Op > BOr {
			l.fail(-1, fmt.Errorf("domino: unknown operator %d", e.Op))
			return l.b.Const(0)
		}
		x := l.expr(e.X, -1, done)
		if e.Op == BAnd || e.Op == BOr {
			return l.b.Logic(e.Op == BOr, dst, x, func() int { return l.expr(e.Y, -1, done) })
		}
		return l.b.Op(flat.Op(e.Op), dst, x, l.expr(e.Y, -1, done))
	}
	l.fail(-1, fmt.Errorf("domino: unknown expression %T", e))
	return l.b.Const(0)
}

// finish clears the packet's flags and returns the error a Trap left.
func (c *code) finish(frame []int64) error {
	for _, r := range c.flags {
		frame[r] = 0
	}
	if e := frame[c.errReg]; e != 0 {
		frame[c.errReg] = 0
		return c.errs[e-1]
	}
	return nil
}
