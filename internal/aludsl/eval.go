package aludsl

import (
	"fmt"

	"druzhba/internal/phv"
)

// EvalError reports a failure during ALU execution, e.g. a machine code pair
// that is missing at runtime (one of the two §5.2 failure classes).
type EvalError struct {
	ALU string
	Msg string
}

func (e *EvalError) Error() string {
	if e.ALU == "" {
		return "aludsl: " + e.Msg
	}
	return fmt.Sprintf("aludsl: %s: %s", e.ALU, e.Msg)
}

// HoleLookup resolves a hole name to its machine code value. The second
// result reports whether the pair exists.
type HoleLookup func(name string) (int64, bool)

// MapLookup adapts a plain map to a HoleLookup.
func MapLookup(m map[string]int64) HoleLookup {
	return func(name string) (int64, bool) {
		v, ok := m[name]
		return v, ok
	}
}

// Env is the mutable evaluation context for one ALU execution.
type Env struct {
	Width    phv.Width
	Operands []phv.Value // input-mux-selected PHV container values
	State    []phv.Value // the ALU's persistent state vector (mutated in place)
	Holes    HoleLookup  // nil once optimization removed all hole references
	aluName  string      // for error messages

	// arena holds helper-call frames, so a call costs argument evaluation
	// plus bookkeeping, not an allocation; its capacity is retained across
	// executions.
	arena     []phv.Value
	frameBase int
}

type evalPanic struct{ err *EvalError }

func (e *Env) failf(format string, args ...any) phv.Value {
	panic(evalPanic{&EvalError{ALU: e.aluName, Msg: fmt.Sprintf(format, args...)}})
}

func (e *Env) holeValue(name string) phv.Value {
	if e.Holes == nil {
		return e.failf("hole %q referenced but no machine code supplied", name)
	}
	v, ok := e.Holes(name)
	if !ok {
		return e.failf("missing machine code pair for %q", name)
	}
	return v
}

// Run executes the program body in the environment and returns the ALU
// output value. State mutations are applied to env.State in place.
func Run(p *Program, env *Env) (out phv.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ep, ok := r.(evalPanic); ok {
				err = ep.err
				return
			}
			panic(r)
		}
	}()
	env.aluName = p.Name
	v, returned := execStmts(p.Body, env)
	if returned {
		return v, nil
	}
	// Implicit output: post-update state_0 for stateful ALUs, 0 otherwise.
	if p.Kind == Stateful && len(env.State) > 0 {
		return env.State[0], nil
	}
	return 0, nil
}

// execStmts executes statements; the bool result reports whether a Return
// was executed.
func execStmts(stmts []Stmt, env *Env) (phv.Value, bool) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			env.State[s.LHS.Index] = evalExpr(s.RHS, env)
		case *Return:
			return evalExpr(s.Value, env), true
		case *If:
			if phv.Truthy(evalExpr(s.Cond, env)) {
				if v, ret := execStmts(s.Then, env); ret {
					return v, true
				}
			} else if s.Else != nil {
				if v, ret := execStmts(s.Else, env); ret {
					return v, true
				}
			}
		}
	}
	return 0, false
}

func evalExpr(e Expr, env *Env) phv.Value {
	switch e := e.(type) {
	case *Num:
		return env.Width.Trunc(e.Value)
	case *Ident:
		switch e.Class {
		case VarState:
			return env.State[e.Index]
		case VarField:
			if e.Index >= len(env.Operands) {
				return env.failf("operand %d out of range (%d operands)", e.Index, len(env.Operands))
			}
			return env.Operands[e.Index]
		case VarHole:
			return env.Width.Trunc(env.holeValue(e.Name))
		case VarParam:
			return env.arena[env.frameBase+e.Index]
		default:
			return env.failf("unresolved identifier %q", e.Name)
		}
	case *Unary:
		x := evalExpr(e.X, env)
		switch e.Op {
		case OpNeg:
			return env.Width.Trunc(-x)
		case OpNot:
			return phv.Bool(x == 0)
		}
		return env.failf("unknown unary op %v", e.Op)
	case *Binary:
		// Short-circuit logical operators.
		switch e.Op {
		case OpAnd:
			if !phv.Truthy(evalExpr(e.X, env)) {
				return 0
			}
			return phv.Bool(phv.Truthy(evalExpr(e.Y, env)))
		case OpOr:
			if phv.Truthy(evalExpr(e.X, env)) {
				return 1
			}
			return phv.Bool(phv.Truthy(evalExpr(e.Y, env)))
		}
		x := evalExpr(e.X, env)
		y := evalExpr(e.Y, env)
		return applyBinOp(env.Width, e.Op, x, y)
	case *HoleCall:
		return evalHoleCall(e, env)
	case *Call:
		base := len(env.arena)
		for _, a := range e.Args {
			env.arena = append(env.arena, evalExpr(a, env))
		}
		savedBase := env.frameBase
		env.frameBase = base
		v := evalExpr(e.Func.Body, env)
		env.frameBase = savedBase
		env.arena = env.arena[:base]
		return v
	default:
		return env.failf("unknown expression node %T", e)
	}
}

func applyBinOp(w phv.Width, op BinOp, x, y phv.Value) phv.Value {
	switch op {
	case OpAdd:
		return w.Add(x, y)
	case OpSub:
		return w.Sub(x, y)
	case OpMul:
		return w.Mul(x, y)
	case OpDiv:
		return w.Div(x, y)
	case OpMod:
		return w.Mod(x, y)
	case OpEq:
		return phv.Bool(x == y)
	case OpNeq:
		return phv.Bool(x != y)
	case OpLt:
		return phv.Bool(x < y)
	case OpGt:
		return phv.Bool(x > y)
	case OpLe:
		return phv.Bool(x <= y)
	case OpGe:
		return phv.Bool(x >= y)
	case OpAnd:
		return phv.Bool(phv.Truthy(x) && phv.Truthy(y))
	case OpOr:
		return phv.Bool(phv.Truthy(x) || phv.Truthy(y))
	}
	panic(fmt.Sprintf("aludsl: applyBinOp: unknown op %v", op))
}

// evalHoleCall implements the unoptimized (version 1, Fig. 6) semantics: at
// every execution the machine code value is looked up, every argument is
// evaluated (like a generated helper's operands), and the builtin table's
// choice for the value is applied.
func evalHoleCall(e *HoleCall, env *Env) phv.Value {
	mc := env.holeValue(e.Hole)
	base := len(env.arena)
	for _, a := range e.Args {
		env.arena = append(env.arena, evalExpr(a, env))
	}
	args := env.arena[base:]
	env.arena = env.arena[:base]
	ch, err := e.Choose(mc)
	switch {
	case err != nil:
		return env.failf("hole %q: %v", e.Hole, err)
	case ch.Kind == ChooseArg:
		return args[ch.Arg]
	case ch.Kind == ChooseOp:
		return applyBinOp(env.Width, ch.Op, args[0], args[1])
	case ch.Kind == ChooseZero:
		return 0
	}
	return env.Width.Trunc(mc)
}

// ApplyBinOp applies a binary operator under a width; exported for the
// optimizer's constant folding and for specs.
func ApplyBinOp(w phv.Width, op BinOp, x, y phv.Value) phv.Value {
	return applyBinOp(w, op, x, y)
}
