package domino

import (
	"fmt"

	"druzhba/internal/phv"
)

// refMachine is the deliberately naive reference interpreter for Domino: it
// walks the parsed AST and keeps state, packet fields and locals in
// string-keyed maps, exactly as the language is described. It is the
// differential oracle the lowered transaction (PHVSpec) is pinned to, it is the
// only other Domino evaluator in the tree, and it lives in a _test.go file so
// nothing outside the tests can run it. Keep it obvious; never optimize it.
type refMachine struct {
	prog   *Program
	w      phv.Width
	state  map[string]int64
	locals map[string]int64
}

func newRefMachine(p *Program, w phv.Width) *refMachine {
	m := &refMachine{prog: p, w: w}
	m.Reset()
	return m
}

func (m *refMachine) Reset() {
	m.state = make(map[string]int64, len(m.prog.States))
	for _, s := range m.prog.States {
		m.state[s.Name] = m.w.Trunc(s.Init)
	}
}

func (m *refMachine) State(name string) (int64, bool) {
	v, ok := m.state[name]
	return v, ok
}

// Step executes the transaction on one packet, mutating fields in place.
func (m *refMachine) Step(fields map[string]int64) error {
	m.locals = map[string]int64{}
	return m.exec(m.prog.Body, fields, m.locals)
}

// ProcessStream is the reference for PHVSpec.ProcessStream: Step on the map
// view of the bound containers. Like Step's map, vals keeps the writes made
// before a failing statement. The binding must not alias containers.
func (m *refMachine) ProcessStream(binding FieldMap, vals []phv.Value) error {
	fields := map[string]int64{}
	for name, c := range binding {
		fields[name] = vals[c]
	}
	err := m.Step(fields)
	for name, c := range binding {
		vals[c] = fields[name]
	}
	return err
}

func (m *refMachine) exec(stmts []Stmt, fields, locals map[string]int64) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			v, err := m.eval(s.Expr, fields, locals)
			if err != nil {
				return err
			}
			switch s.Target.Kind {
			case TargetState:
				m.state[s.Target.Name] = v
			case TargetField:
				fields[s.Target.Name] = v
			case TargetLocal:
				locals[s.Target.Name] = v
			}
		case *If:
			c, err := m.eval(s.Cond, fields, locals)
			if err != nil {
				return err
			}
			if phv.Truthy(c) {
				if err := m.exec(s.Then, fields, locals); err != nil {
					return err
				}
			} else if s.Else != nil {
				if err := m.exec(s.Else, fields, locals); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("domino: unknown statement %T", s)
		}
	}
	return nil
}

func (m *refMachine) eval(e Expr, fields, locals map[string]int64) (int64, error) {
	switch e := e.(type) {
	case *Lit:
		return m.w.Trunc(e.Value), nil
	case *Ref:
		switch e.Kind {
		case RefState:
			return m.state[e.Name], nil
		case RefField:
			v, ok := fields[e.Name]
			if !ok {
				return 0, fmt.Errorf("domino: packet has no field %q", e.Name)
			}
			return v, nil
		case RefLocal:
			v, ok := locals[e.Name]
			if !ok {
				return 0, fmt.Errorf("domino: local %q read before assignment", e.Name)
			}
			return v, nil
		}
		return 0, fmt.Errorf("domino: bad reference kind %d", e.Kind)
	case *Un:
		x, err := m.eval(e.X, fields, locals)
		if err != nil {
			return 0, err
		}
		if e.Neg {
			return m.w.Trunc(-x), nil
		}
		return phv.Bool(x == 0), nil
	case *Bin:
		// Short-circuit logicals.
		switch e.Op {
		case BAnd:
			x, err := m.eval(e.X, fields, locals)
			if err != nil {
				return 0, err
			}
			if !phv.Truthy(x) {
				return 0, nil
			}
			y, err := m.eval(e.Y, fields, locals)
			if err != nil {
				return 0, err
			}
			return phv.Bool(phv.Truthy(y)), nil
		case BOr:
			x, err := m.eval(e.X, fields, locals)
			if err != nil {
				return 0, err
			}
			if phv.Truthy(x) {
				return 1, nil
			}
			y, err := m.eval(e.Y, fields, locals)
			if err != nil {
				return 0, err
			}
			return phv.Bool(phv.Truthy(y)), nil
		}
		x, err := m.eval(e.X, fields, locals)
		if err != nil {
			return 0, err
		}
		y, err := m.eval(e.Y, fields, locals)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case BAdd:
			return m.w.Add(x, y), nil
		case BSub:
			return m.w.Sub(x, y), nil
		case BMul:
			return m.w.Mul(x, y), nil
		case BDiv:
			return m.w.Div(x, y), nil
		case BMod:
			return m.w.Mod(x, y), nil
		case BEq:
			return phv.Bool(x == y), nil
		case BNeq:
			return phv.Bool(x != y), nil
		case BLt:
			return phv.Bool(x < y), nil
		case BGt:
			return phv.Bool(x > y), nil
		case BLe:
			return phv.Bool(x <= y), nil
		case BGe:
			return phv.Bool(x >= y), nil
		}
		return 0, fmt.Errorf("domino: unknown operator %d", e.Op)
	default:
		return 0, fmt.Errorf("domino: unknown expression %T", e)
	}
}
