package domino

import (
	"fmt"
	"slices"

	"druzhba/internal/flat"
	"druzhba/internal/phv"
)

// Evaluation lowers the transaction once, at construction, to a flat register
// program (package flat, the evaluator the fused pipeline runs on too): a
// state variable, a local and a packet field are registers of one frame, a
// literal is a constant register, an if is a forward jump. The lowered form
// is immutable, so any number of machines share it; a machine owns a frame.
//
// The language's only run-time failures are reads of something that was
// never written this packet: a local assigned on some other path, a field
// the map handed to Machine.Step does not hold. Lowering runs a
// definite-assignment analysis and only a read it cannot prove assigned
// keeps a check: a Trap on the slot's "assigned" flag, which stops the
// program with an index into code.errs in the error register, leaving the
// writes of the statements before it in place — what the tree walk this
// replaced did. An AST node the language does not have becomes an
// unconditional Trap, reported if and when execution reaches it.

// code is a Program lowered for one width and one binding of packet fields to
// containers.
type code struct {
	prog  *flat.Program
	state map[string]int // state variable -> register

	// bound are the fields a container is bound to, each with its register:
	// a PHVSpec copies them in before a run and back after it, and
	// Binding.Link binds them to the registers of the containers instead.
	bound []boundField
	// fields are the packet fields no container is bound to, each with its
	// value and flag registers. Machine.Step loads and stores these.
	fields []frameField

	errReg int     // holds 1+index into errs after a failed run, else 0
	flags  []int   // "assigned" flag registers, zero between packets
	errs   []error // what a Trap can report
}

type boundField struct{ reg, container int }

type frameField struct {
	name      string
	reg, flag int
}

// lowering is one pass over the program. Only the slots in tracked get a flag
// register and flag writes, and which slots need tracking — those some read
// could find unassigned, and every unbound field — is known only once every
// read has been seen: a pass records them in needs, and resolve lowers again
// with that set when the first pass found any. A slot is a local or a packet
// field, numbered in the order the pass first meets it; a pass over the same
// program meets them in the same order, so the numbers carry from one pass to
// the next.
type lowering struct {
	c              *code
	b              *flat.Builder
	w              phv.Width
	bind           FieldMap
	slots          []slot // by slot number
	tracked, needs []bool // by slot number; tracked may be shorter: the rest are not
}

// slot is a local (field false) or a packet field and its registers; flag is
// -1 when the slot is not tracked.
type slot struct {
	name      string
	field     bool
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
	l.stmts(p.Body, nil) // nothing is assigned yet; a field bound to a container always is
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

// slotOf returns the number of the local (field false) or packet field name,
// allocating its register on first use, together with its flag register
// when the slot is tracked.
func (l *lowering) slotOf(name string, field bool) int {
	for i, sl := range l.slots {
		if sl.name == name && sl.field == field {
			return i
		}
	}
	i, key := len(l.slots), name
	if field {
		key = "pkt." + name
	}
	sl := slot{name: name, field: field, reg: l.b.Reg(key, 0), flag: -1}
	l.needs = append(l.needs, false)
	if container, ok := l.bind[name]; field && ok {
		l.c.bound = append(l.c.bound, boundField{sl.reg, container})
		l.slots = append(l.slots, sl)
		return i
	}
	l.needs[i] = field
	if i < len(l.tracked) && l.tracked[i] {
		sl.flag = l.b.Reg(key+"?", 0)
		l.c.flags = append(l.c.flags, sl.flag)
		if field {
			l.c.fields = append(l.c.fields, frameField{name, sl.reg, sl.flag})
		}
	}
	l.slots = append(l.slots, sl)
	return i
}

// assigned reports whether slot i is written on every path to this point:
// a field bound to a container always is, since the PHV holds it.
func (l *lowering) assigned(done []bool, i int) bool {
	sl := l.slots[i]
	if _, ok := l.bind[sl.name]; sl.field && ok {
		return true
	}
	return i < len(done) && done[i]
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
// point has written slot i this packet (past its end: not); stmts returns it
// updated, in place where it has room.
func (l *lowering) stmts(list []Stmt, done []bool) []bool {
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			switch s.Target.Kind {
			case TargetState:
				l.expr(s.Expr, l.stateReg(s.Target.Name), done)
			case TargetField, TargetLocal:
				i := l.slotOf(s.Target.Name, s.Target.Kind == TargetField)
				l.expr(s.Expr, l.slots[i].reg, done)
				if f := l.slots[i].flag; f >= 0 {
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
			// done, so neither unassigns a slot.
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
		case RefField, RefLocal:
		default:
			l.fail(-1, fmt.Errorf("domino: bad reference kind %d", e.Kind))
			return l.b.Const(0)
		}
		i := l.slotOf(e.Name, e.Kind == RefField)
		if !l.assigned(done, i) {
			l.needs[i] = true
			if f := l.slots[i].flag; f >= 0 {
				if e.Kind == RefField {
					l.fail(f, fmt.Errorf("domino: packet has no field %q", e.Name))
				} else {
					l.fail(f, fmt.Errorf("domino: local %q read before assignment", e.Name))
				}
			}
		}
		return l.b.Move(dst, l.slots[i].reg)
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

// Machine executes a program packet by packet, maintaining state across
// packets ("program spec" of Fig. 5). It is the only Domino evaluator; the
// map-based AST walk it is tested against lives in reference_test.go.
type Machine struct {
	code  *code
	frame []int64
}

// NewMachine returns a machine with freshly initialized state, for use
// through Step's map view of the packet.
func NewMachine(p *Program, w phv.Width) *Machine { return newMachine(resolve(p, w, nil)) }

func newMachine(c *code) *Machine { return &Machine{code: c, frame: c.prog.NewFrame()} }

// Reset restores every state variable to its declared initial value.
func (m *Machine) Reset() { m.code.prog.Reset(m.frame) }

// State returns the current value of a state variable.
func (m *Machine) State(name string) (int64, bool) {
	r, ok := m.code.state[name]
	if !ok {
		return 0, false
	}
	return m.frame[r], true
}

// Step executes the transaction on one packet. fields maps packet field
// names to values; the map is mutated in place with the transaction's
// writes. It is an adapter for debuggers and tests: the map is copied into
// the frame and back around the same run a PHVSpec makes on a PHV.
func (m *Machine) Step(fields map[string]int64) error {
	for _, f := range m.code.fields {
		v, ok := fields[f.name]
		m.frame[f.reg], m.frame[f.flag] = v, phv.Bool(ok)
	}
	m.code.prog.Run(m.frame)
	for _, f := range m.code.fields {
		if m.frame[f.flag] != 0 {
			fields[f.name] = m.frame[f.reg]
		}
	}
	return m.code.finish(m.frame)
}

// step executes the transaction on one packet whose bound fields are read
// and written in place in vals; the caller has checked that every bound
// container is inside vals.
//
//dvet:hotpath allocs=0
func (m *Machine) step(vals []phv.Value) error {
	frame, bound := m.frame, m.code.bound
	for _, f := range bound {
		frame[f.reg] = vals[f.container]
	}
	m.code.prog.Run(frame)
	for _, f := range bound {
		vals[f.container] = frame[f.reg]
	}
	if len(m.code.errs) == 0 {
		return nil // no Trap: nothing reads a flag on this path, nothing to report
	}
	return m.code.finish(frame)
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
