package domino

import (
	"fmt"

	"druzhba/internal/phv"
)

// Evaluation resolves every name once, at construction, and then runs on
// slices: a state variable is an index into Machine.state, a local is an
// index into Machine.frame guarded by a per-packet "assigned" mark, and a
// packet field is either a PHV container index, read and written directly in
// the []phv.Value a PHVSpec is handed, or (Machine.Step's map view) one more
// guarded frame slot. The resolved form is immutable, so any number of
// machines share it.

type opcode uint8

const (
	opLit   opcode = iota // val
	opState               // state[idx]
	opField               // vals[idx]: a PHV container
	opFrame               // frame[idx] if set[idx], else err: a local, or a field not bound to a container
	opFail                // err: an AST node the evaluator does not know
	opNeg
	opNot
	opBin // opBin + BinKind
)

type expr struct {
	op   opcode
	idx  int
	val  int64
	x, y *expr
	err  error
}

// stmt is a conditional (cond != nil) or the assignment dst[idx] = val.
type stmt struct {
	dst       opcode // opState, opField or opFrame
	idx       int
	val       *expr
	cond      *expr
	then, alt []stmt
}

// code is a Program with every name resolved, for one width and one binding
// of packet fields to containers.
type code struct {
	w      phv.Width
	body   []stmt
	states []StateDecl // in slot order; Init already truncated to w
	slot   map[string]int
	frame  int // locals plus unbound fields
	// fields are the packet fields no container is bound to, each with
	// its frame slot. Machine.Step loads and stores these.
	fields []frameField
}

type frameField struct {
	name string
	slot int
}

type resolver struct {
	c     *code
	bind  FieldMap
	frame map[string]int
}

// resolve never fails: a node it cannot make sense of becomes opFail and
// reports its error if and when execution reaches it.
func resolve(p *Program, w phv.Width, bind FieldMap) *code {
	r := &resolver{c: &code{w: w, slot: map[string]int{}}, bind: bind, frame: map[string]int{}}
	for _, s := range p.States {
		i := r.state(s.Name)
		r.c.states[i].Init = w.Trunc(s.Init)
	}
	r.c.body = r.stmts(p.Body)
	r.c.frame = len(r.frame)
	return r.c
}

// state returns name's slot. Only a hand-built AST can name an undeclared
// state; it reads as 0 until assigned.
func (r *resolver) state(name string) int {
	i, ok := r.c.slot[name]
	if !ok {
		i = len(r.c.states)
		r.c.slot[name] = i
		r.c.states = append(r.c.states, StateDecl{Name: name})
	}
	return i
}

// frameSlot numbers locals and unbound fields on first use; a field's key
// carries the "pkt." it is written with, which no local's name can contain.
func (r *resolver) frameSlot(key string) (slot int, fresh bool) {
	i, ok := r.frame[key]
	if !ok {
		i = len(r.frame)
		r.frame[key] = i
	}
	return i, !ok
}

func (r *resolver) field(name string) (opcode, int) {
	if c, ok := r.bind[name]; ok {
		return opField, c
	}
	i, fresh := r.frameSlot("pkt." + name)
	if fresh {
		r.c.fields = append(r.c.fields, frameField{name, i})
	}
	return opFrame, i
}

func (r *resolver) stmts(in []Stmt) []stmt {
	out := make([]stmt, len(in))
	for i, s := range in {
		switch s := s.(type) {
		case *Assign:
			o := stmt{val: r.expr(s.Expr)}
			switch s.Target.Kind {
			case TargetState:
				o.dst, o.idx = opState, r.state(s.Target.Name)
			case TargetField:
				o.dst, o.idx = r.field(s.Target.Name)
			case TargetLocal:
				o.dst = opFrame
				o.idx, _ = r.frameSlot(s.Target.Name)
			} // a target of any other kind stores nowhere
			out[i] = o
		case *If:
			out[i] = stmt{cond: r.expr(s.Cond), then: r.stmts(s.Then), alt: r.stmts(s.Else)}
		default:
			out[i] = stmt{cond: &expr{op: opFail, err: fmt.Errorf("domino: unknown statement %T", s)}}
		}
	}
	return out
}

func (r *resolver) expr(e Expr) *expr {
	switch e := e.(type) {
	case *Lit:
		return &expr{op: opLit, val: r.c.w.Trunc(e.Value)}
	case *Ref:
		switch e.Kind {
		case RefState:
			return &expr{op: opState, idx: r.state(e.Name)}
		case RefField:
			op, idx := r.field(e.Name)
			return &expr{op: op, idx: idx, err: fmt.Errorf("domino: packet has no field %q", e.Name)}
		case RefLocal:
			i, _ := r.frameSlot(e.Name)
			return &expr{op: opFrame, idx: i, err: fmt.Errorf("domino: local %q read before assignment", e.Name)}
		}
		return &expr{op: opFail, err: fmt.Errorf("domino: bad reference kind %d", e.Kind)}
	case *Un:
		if e.Neg {
			return &expr{op: opNeg, x: r.expr(e.X)}
		}
		return &expr{op: opNot, x: r.expr(e.X)}
	case *Bin:
		if e.Op < BAdd || e.Op > BOr {
			return &expr{op: opFail, err: fmt.Errorf("domino: unknown operator %d", e.Op)}
		}
		return &expr{op: opBin + opcode(e.Op), x: r.expr(e.X), y: r.expr(e.Y)}
	}
	return &expr{op: opFail, err: fmt.Errorf("domino: unknown expression %T", e)}
}

// Machine executes a program packet by packet, maintaining state across
// packets ("program spec" of Fig. 5). It is the only Domino evaluator; the
// map-based AST walk it is tested against lives in reference_test.go.
type Machine struct {
	code  *code
	state []int64

	// frame holds this packet's locals (and unbound fields); set marks the
	// slots assigned so far and is all false between packets.
	frame []int64
	set   []bool
	err   error // first error of the packet in flight
}

// NewMachine returns a machine with freshly initialized state, for use
// through Step's map view of the packet.
func NewMachine(p *Program, w phv.Width) *Machine { return newMachine(resolve(p, w, nil)) }

func newMachine(c *code) *Machine {
	m := &Machine{code: c, state: make([]int64, len(c.states)), frame: make([]int64, c.frame), set: make([]bool, c.frame)}
	m.Reset()
	return m
}

// Reset restores every state variable to its declared initial value.
func (m *Machine) Reset() {
	for i, s := range m.code.states {
		m.state[i] = s.Init
	}
}

// State returns the current value of a state variable.
func (m *Machine) State(name string) (int64, bool) {
	i, ok := m.code.slot[name]
	if !ok {
		return 0, false
	}
	return m.state[i], true
}

// Step executes the transaction on one packet. fields maps packet field
// names to values; the map is mutated in place with the transaction's
// writes. It is an adapter for debuggers and tests: the map is copied into
// the frame and back around the same step a PHVSpec runs on a PHV.
func (m *Machine) Step(fields map[string]int64) error {
	for _, f := range m.code.fields {
		m.frame[f.slot], m.set[f.slot] = fields[f.name]
	}
	m.err = nil
	m.exec(m.code.body, nil)
	for _, f := range m.code.fields {
		if m.set[f.slot] {
			fields[f.name] = m.frame[f.slot]
		}
	}
	clear(m.set)
	return m.err
}

// step executes the transaction on one packet whose bound fields are read
// and written in place in vals; the caller has checked that every bound
// container is inside vals.
//
//dvet:hotpath allocs=0
func (m *Machine) step(vals []phv.Value) error {
	m.err = nil
	m.exec(m.code.body, vals)
	clear(m.set)
	return m.err
}

// exec stops at the first statement that fails, leaving the error in m.err
// and the effects of the statements before it in place.
func (m *Machine) exec(stmts []stmt, vals []phv.Value) {
	for i := range stmts {
		s := &stmts[i]
		if s.cond != nil {
			c := m.eval(s.cond, vals)
			if m.err != nil {
				return
			}
			if phv.Truthy(c) {
				m.exec(s.then, vals)
			} else {
				m.exec(s.alt, vals)
			}
			if m.err != nil {
				return
			}
			continue
		}
		v := m.eval(s.val, vals)
		if m.err != nil {
			return
		}
		switch s.dst {
		case opState:
			m.state[s.idx] = v
		case opField:
			vals[s.idx] = v
		case opFrame:
			m.frame[s.idx], m.set[s.idx] = v, true
		}
	}
}

// operand is eval with the leaves, which most operands are, inlined at the
// call site.
func (m *Machine) operand(e *expr, vals []phv.Value) int64 {
	switch e.op {
	case opLit:
		return e.val
	case opState:
		return m.state[e.idx]
	case opField:
		return vals[e.idx]
	}
	return m.eval(e, vals)
}

// eval returns e's value. A failing node records the packet's first error in
// m.err and yields 0; expressions have no side effects, so evaluating on to
// the end of the statement changes nothing the caller can see.
func (m *Machine) eval(e *expr, vals []phv.Value) int64 {
	switch e.op {
	case opLit:
		return e.val
	case opState:
		return m.state[e.idx]
	case opField:
		return vals[e.idx]
	case opFrame:
		if m.set[e.idx] {
			return m.frame[e.idx]
		}
		fallthrough
	case opFail:
		if m.err == nil {
			m.err = e.err
		}
		return 0
	case opNeg:
		return m.code.w.Trunc(-m.eval(e.x, vals))
	case opNot:
		return phv.Bool(m.eval(e.x, vals) == 0)
	case opBin + opcode(BAnd):
		return phv.Bool(phv.Truthy(m.eval(e.x, vals)) && phv.Truthy(m.eval(e.y, vals)))
	case opBin + opcode(BOr):
		return phv.Bool(phv.Truthy(m.eval(e.x, vals)) || phv.Truthy(m.eval(e.y, vals)))
	}
	x, y, w := m.operand(e.x, vals), m.operand(e.y, vals), m.code.w
	switch e.op - opBin {
	case opcode(BAdd):
		return w.Add(x, y)
	case opcode(BSub):
		return w.Sub(x, y)
	case opcode(BMul):
		return w.Mul(x, y)
	case opcode(BDiv):
		return w.Div(x, y)
	case opcode(BMod):
		return w.Mod(x, y)
	case opcode(BEq):
		return phv.Bool(x == y)
	case opcode(BNeq):
		return phv.Bool(x != y)
	case opcode(BLt):
		return phv.Bool(x < y)
	case opcode(BGt):
		return phv.Bool(x > y)
	case opcode(BLe):
		return phv.Bool(x <= y)
	default: // BGe: resolve admits no other operator
		return phv.Bool(x >= y)
	}
}
