package aludsl

import (
	"fmt"
)

// A CheckError reports a semantic error in an ALU program.
type CheckError struct {
	Msg string
}

func (e *CheckError) Error() string { return "aludsl: " + e.Msg }

func checkErrorf(format string, args ...any) error {
	return &CheckError{Msg: fmt.Sprintf(format, args...)}
}

// Resolve binds every identifier in the program to its declaration, collects
// the program's holes in source order (each hole variable's Index and each
// HoleCall's Slot is its place among them), and validates:
//
//   - identifiers must be declared state variables, packet fields or hole
//     variables;
//   - a builtin call must name a builtin and pass it its arity of arguments;
//   - stateless ALUs must not declare or reference state variables;
//   - assignments may target only state variables;
//   - hole variables are read-only.
//
// Parse calls Resolve automatically; it is exported for programs constructed
// or transformed programmatically.
func Resolve(p *Program) error {
	if p.Kind == Stateless && len(p.StateVars) > 0 {
		return checkErrorf("stateless ALU %q declares state variables", p.Name)
	}
	states := indexOf(p.StateVars)
	fields := indexOf(p.PacketFields)
	holes := indexOf(p.HoleVars)
	for name := range fields {
		if _, dup := states[name]; dup {
			return checkErrorf("%q declared as both state variable and packet field", name)
		}
	}
	for name := range holes {
		if _, dup := states[name]; dup {
			return checkErrorf("%q declared as both state variable and hole variable", name)
		}
		if _, dup := fields[name]; dup {
			return checkErrorf("%q declared as both packet field and hole variable", name)
		}
	}

	p.Holes = nil
	slots := map[string]int{} // hole name -> its place in p.Holes
	var resolveExpr func(e Expr) error
	resolveExpr = func(e Expr) error {
		switch e := e.(type) {
		case *Num:
			return nil
		case *Ident:
			if i, ok := states[e.Name]; ok {
				e.Class, e.Index = VarState, i
				return nil
			}
			if i, ok := fields[e.Name]; ok {
				e.Class, e.Index = VarField, i
				return nil
			}
			if _, ok := holes[e.Name]; ok {
				slot, seen := slots[e.Name]
				if !seen {
					slot = len(p.Holes)
					slots[e.Name] = slot
					p.Holes = append(p.Holes, Hole{Name: e.Name, Builtin: BuiltinC, Domain: 0, IsVar: true})
				}
				e.Class, e.Index = VarHole, slot
				return nil
			}
			if e.Class == VarParam {
				return nil // synthetic node from optimization passes
			}
			return checkErrorf("undeclared identifier %q", e.Name)
		case *Unary:
			return resolveExpr(e.X)
		case *Binary:
			if err := resolveExpr(e.X); err != nil {
				return err
			}
			return resolveExpr(e.Y)
		case *HoleCall:
			// Value 0 is in every builtin's domain, so this refuses only an
			// unknown builtin or a wrong argument count.
			if _, err := e.Choose(0); err != nil {
				return checkErrorf("hole %q: %v", e.Hole, err)
			}
			if _, seen := slots[e.Hole]; seen {
				return checkErrorf("duplicate hole name %q", e.Hole)
			}
			e.Slot = len(p.Holes)
			slots[e.Hole] = e.Slot
			p.Holes = append(p.Holes, Hole{
				Name:    e.Hole,
				Builtin: e.Builtin,
				Domain:  len(builtins[e.Builtin].choices),
			})
			for _, a := range e.Args {
				if err := resolveExpr(a); err != nil {
					return err
				}
			}
			return nil
		case *Call:
			for _, a := range e.Args {
				if err := resolveExpr(a); err != nil {
					return err
				}
			}
			return nil
		default:
			return checkErrorf("unknown expression node %T", e)
		}
	}

	var resolveStmts func(stmts []Stmt) error
	resolveStmts = func(stmts []Stmt) error {
		for _, s := range stmts {
			switch s := s.(type) {
			case *Assign:
				i, ok := states[s.LHS.Name]
				if !ok {
					if _, isField := fields[s.LHS.Name]; isField {
						return checkErrorf("cannot assign to packet field %q (ALUs write PHVs via output muxes)", s.LHS.Name)
					}
					return checkErrorf("cannot assign to %q: not a state variable", s.LHS.Name)
				}
				s.LHS.Class, s.LHS.Index = VarState, i
				if err := resolveExpr(s.RHS); err != nil {
					return err
				}
			case *Return:
				if err := resolveExpr(s.Value); err != nil {
					return err
				}
			case *If:
				if err := resolveExpr(s.Cond); err != nil {
					return err
				}
				if err := resolveStmts(s.Then); err != nil {
					return err
				}
				if s.Else != nil {
					if err := resolveStmts(s.Else); err != nil {
						return err
					}
				}
			default:
				return checkErrorf("unknown statement node %T", s)
			}
		}
		return nil
	}
	return resolveStmts(p.Body)
}

func indexOf(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		m[n] = i
	}
	return m
}

// CheckTotal reports the first node of p on which evaluation could fail,
// index out of range or not terminate: an unresolved identifier, an operand
// or state index outside the program's declarations, a helper parameter
// outside its call's arguments, an operator outside the language, a helper
// that calls itself. holes says how machine code is read: every hole must
// resolve through it and sit at its own place in p.Holes (the lowering to
// flat code reads it there), and every builtin call's choice must be in the
// table.
// A nil result means Run and flat code lowered from p return a value on
// every input. Parsed programs always pass with the machine code they were
// read with; the check exists for ASTs built by hand.
func CheckTotal(p *Program, holes HoleLookup) error {
	var active []*FuncDef // helpers whose body is being walked
	hole := func(name string, slot int) (int64, error) {
		v, ok := holes(name)
		switch {
		case !ok:
			return 0, checkErrorf("missing machine code pair for %q", name)
		case slot < 0 || slot >= len(p.Holes) || p.Holes[slot].Name != name:
			return 0, checkErrorf("hole %q is not at its place %d in the program's holes (Resolve sets it)", name, slot)
		}
		return v, nil
	}
	var expr func(e Expr, arity int) error
	expr = func(e Expr, arity int) error {
		switch e := e.(type) {
		case *Num:
			return nil
		case *Ident:
			limit := 0
			switch e.Class {
			case VarState:
				limit = p.NumState()
			case VarField:
				limit = p.NumOperands()
			case VarParam:
				limit = arity
			case VarHole:
				_, err := hole(e.Name, e.Index)
				return err
			default:
				return checkErrorf("unresolved identifier %q", e.Name)
			}
			if e.Index < 0 || e.Index >= limit {
				return checkErrorf("identifier %q: index %d out of range [0,%d)", e.Name, e.Index, limit)
			}
			return nil
		case *Unary:
			if e.Op != OpNeg && e.Op != OpNot {
				return checkErrorf("unknown unary operator %d", int(e.Op))
			}
			return expr(e.X, arity)
		case *Binary:
			if !e.Op.Valid() {
				return checkErrorf("unknown binary operator %d", int(e.Op))
			}
			if err := expr(e.X, arity); err != nil {
				return err
			}
			return expr(e.Y, arity)
		case *HoleCall:
			mc, err := hole(e.Hole, e.Slot)
			if err != nil {
				return err
			}
			if _, err := e.Choose(mc); err != nil {
				return checkErrorf("hole %q: %v", e.Hole, err)
			}
			for _, a := range e.Args {
				if err := expr(a, arity); err != nil {
					return err
				}
			}
			return nil
		case *Call:
			for _, a := range e.Args {
				if err := expr(a, arity); err != nil {
					return err
				}
			}
			if e.Func == nil {
				return checkErrorf("call of a nil helper")
			}
			for _, f := range active {
				if f == e.Func {
					return checkErrorf("helper %q calls itself", f.Name)
				}
			}
			active = append(active, e.Func)
			err := expr(e.Func.Body, len(e.Args))
			active = active[:len(active)-1]
			return err
		default:
			return checkErrorf("unknown expression node %T", e)
		}
	}
	var stmts func(list []Stmt) error
	stmts = func(list []Stmt) error {
		for _, s := range list {
			switch s := s.(type) {
			case *Assign:
				if s.LHS == nil || s.LHS.Class != VarState {
					return checkErrorf("assignment to something that is not a state variable")
				}
				if err := expr(s.LHS, 0); err != nil {
					return err
				}
				if err := expr(s.RHS, 0); err != nil {
					return err
				}
			case *Return:
				if err := expr(s.Value, 0); err != nil {
					return err
				}
			case *If:
				if err := expr(s.Cond, 0); err != nil {
					return err
				}
				if err := stmts(s.Then); err != nil {
					return err
				}
				if err := stmts(s.Else); err != nil {
					return err
				}
			default:
				return checkErrorf("unknown statement node %T", s)
			}
		}
		return nil
	}
	return stmts(p.Body)
}
