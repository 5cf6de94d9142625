// Package opt implements dgen's two optimizations (§3.4 of the paper):
//
//   - Sparse conditional constant (SCC) propagation: machine code values are
//     known at pipeline-generation time, so every hole reference is replaced
//     by its constant, the opcode dispatch inside each helper is resolved,
//     constant expressions are folded, and conditionals whose condition
//     becomes constant have their dead branch eliminated. Helper functions
//     remain, but their bodies collapse to single simplified expressions
//     (version 2 in Fig. 6).
//
//   - Function inlining: helper function calls are replaced by the
//     simplified bodies of those functions, with parameters substituted by
//     the argument expressions (version 3 in Fig. 6).
//
// Both passes are pure AST-to-AST transforms over aludsl programs. Neither
// copies its input or changes it: each rebuilds the nodes it changes and
// shares the rest with the input, so an output must be treated as read-only,
// as the input is.
//
// dgen (package codegen) is the passes' one caller outside tests: they shape
// the source it emits for versions 2 and 3. The in-process pipeline does not
// run them; package core takes the same choices and folds the same constants
// as it lowers each ALU's program as written.
package opt

import (
	"fmt"

	"druzhba/internal/aludsl"
	"druzhba/internal/phv"
)

// A ConfigError reports machine code that is incompatible with the pipeline
// (a missing pair or an out-of-range value), detected during SCC propagation.
type ConfigError struct {
	ALU  string
	Hole string
	Msg  string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("opt: ALU %s, hole %q: %s", e.ALU, e.Hole, e.Msg)
}

// SCC applies sparse conditional constant propagation to p, given the
// machine code values for p's holes (looked up by local hole name). The
// result contains no HoleCall nodes and no hole-variable references: every
// builtin call site becomes a Call to a specialized helper FuncDef whose body
// is a single simplified expression. p is left alone: the result is a shallow
// copy of it whose Body is a rebuilt tree, and the leaves SCC leaves
// unchanged are p's own nodes, shared.
func SCC(p *aludsl.Program, holes aludsl.HoleLookup, w phv.Width) (*aludsl.Program, error) {
	t := &transformer{prog: p.Name, holes: holes, w: w}
	body, err := t.stmts(p.Body)
	if err != nil {
		return nil, err
	}
	q := *p
	q.Body, q.Holes, q.HoleVars = body, nil, nil
	return &q, nil
}

// Inline replaces every helper Call in p with the helper's body,
// substituting parameters with the call's argument expressions, then refolds
// constants. Inline is normally applied after SCC. p is left alone: the
// result is a shallow copy of it whose Body is a rebuilt tree sharing p's
// unchanged leaves.
func Inline(p *aludsl.Program, w phv.Width) *aludsl.Program {
	q := *p
	q.Body = inlineStmts(p.Body, w)
	return &q
}

type transformer struct {
	prog  string
	holes aludsl.HoleLookup
	w     phv.Width
}

func (t *transformer) configErr(hole, format string, args ...any) error {
	return &ConfigError{ALU: t.prog, Hole: hole, Msg: fmt.Sprintf(format, args...)}
}

func (t *transformer) holeValue(name string) (int64, error) {
	v, ok := t.holes(name)
	if !ok {
		return 0, t.configErr(name, "missing machine code pair")
	}
	return v, nil
}

func (t *transformer) stmts(stmts []aludsl.Stmt) ([]aludsl.Stmt, error) {
	var out []aludsl.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *aludsl.Assign:
			rhs, err := t.expr(s.RHS)
			if err != nil {
				return nil, err
			}
			out = append(out, &aludsl.Assign{LHS: s.LHS, RHS: rhs})
		case *aludsl.Return:
			v, err := t.expr(s.Value)
			if err != nil {
				return nil, err
			}
			out = append(out, &aludsl.Return{Value: v})
		case *aludsl.If:
			cond, err := t.expr(s.Cond)
			if err != nil {
				return nil, err
			}
			// Abstract interpretation of control flow: a constant
			// condition eliminates the untaken branch entirely.
			if n, ok := constValue(cond); ok {
				var branch []aludsl.Stmt
				if phv.Truthy(n) {
					branch = s.Then
				} else {
					branch = s.Else
				}
				folded, err := t.stmts(branch)
				if err != nil {
					return nil, err
				}
				out = append(out, folded...)
				continue
			}
			thenStmts, err := t.stmts(s.Then)
			if err != nil {
				return nil, err
			}
			var elseStmts []aludsl.Stmt
			if s.Else != nil {
				elseStmts, err = t.stmts(s.Else)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, &aludsl.If{Cond: cond, Then: thenStmts, Else: elseStmts})
		default:
			return nil, fmt.Errorf("opt: unknown statement %T", s)
		}
	}
	return out, nil
}

func (t *transformer) expr(e aludsl.Expr) (aludsl.Expr, error) {
	switch e := e.(type) {
	case *aludsl.Num:
		return e, nil
	case *aludsl.Ident:
		if e.Class == aludsl.VarHole {
			v, err := t.holeValue(e.Name)
			if err != nil {
				return nil, err
			}
			return &aludsl.Num{Value: t.w.Trunc(v)}, nil
		}
		return e, nil
	case *aludsl.Unary:
		x, err := t.expr(e.X)
		if err != nil {
			return nil, err
		}
		return foldUnary(&aludsl.Unary{Op: e.Op, X: x}, t.w), nil
	case *aludsl.Binary:
		x, err := t.expr(e.X)
		if err != nil {
			return nil, err
		}
		y, err := t.expr(e.Y)
		if err != nil {
			return nil, err
		}
		return foldBinary(&aludsl.Binary{Op: e.Op, X: x, Y: y}, t.w), nil
	case *aludsl.HoleCall:
		args := make([]aludsl.Expr, len(e.Args))
		for i, a := range e.Args {
			fa, err := t.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = fa
		}
		mc, err := t.holeValue(e.Hole)
		if err != nil {
			return nil, err
		}
		def, err := specialize(e, mc, t.w)
		if err != nil {
			return nil, &ConfigError{ALU: t.prog, Hole: e.Hole, Msg: err.Error()}
		}
		if len(def.Params) == 0 && isConst(def.Body) {
			// A zero-argument helper with a constant body (e.g. a C()
			// immediate) folds away even in version 2.
			return aludsl.CloneExpr(def.Body), nil
		}
		return &aludsl.Call{Func: def, Args: args}, nil
	case *aludsl.Call:
		// Already-specialized helper (running SCC twice is a no-op).
		args := make([]aludsl.Expr, len(e.Args))
		for i, a := range e.Args {
			fa, err := t.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = fa
		}
		return &aludsl.Call{Func: e.Func, Args: args}, nil
	default:
		return nil, fmt.Errorf("opt: unknown expression %T", e)
	}
}

// specialize builds the helper FuncDef for a builtin call site whose machine
// code value is known: it applies the builtin table's choice for mc as one
// expression over the helper's parameters.
func specialize(hc *aludsl.HoleCall, mc int64, w phv.Width) (*aludsl.FuncDef, error) {
	ch, err := hc.Choose(mc)
	if err != nil {
		return nil, err
	}
	def := &aludsl.FuncDef{Name: hc.Hole, Params: make([]string, len(hc.Args))}
	for i := range def.Params {
		def.Params[i] = fmt.Sprintf("op%d", i)
	}
	param := func(i int) aludsl.Expr {
		return &aludsl.Ident{Name: def.Params[i], Class: aludsl.VarParam, Index: i}
	}
	switch ch.Kind {
	case aludsl.ChooseArg:
		def.Body = param(ch.Arg)
	case aludsl.ChooseOp:
		def.Body = &aludsl.Binary{Op: ch.Op, X: param(0), Y: param(1)}
	case aludsl.ChooseZero:
		def.Body = &aludsl.Num{Value: 0}
	default:
		def.Body = &aludsl.Num{Value: w.Trunc(mc)}
	}
	return def, nil
}

// --- Constant folding --------------------------------------------------------

func isConst(e aludsl.Expr) bool {
	_, ok := constValue(e)
	return ok
}

func constValue(e aludsl.Expr) (int64, bool) {
	if n, ok := e.(*aludsl.Num); ok {
		return n.Value, true
	}
	return 0, false
}

func foldUnary(u *aludsl.Unary, w phv.Width) aludsl.Expr {
	if n, ok := constValue(u.X); ok {
		switch u.Op {
		case aludsl.OpNeg:
			return &aludsl.Num{Value: w.Trunc(-n)}
		case aludsl.OpNot:
			return &aludsl.Num{Value: phv.Bool(n == 0)}
		}
	}
	return u
}

func foldBinary(b *aludsl.Binary, w phv.Width) aludsl.Expr {
	x, xok := constValue(b.X)
	y, yok := constValue(b.Y)
	if xok && yok && b.Op.Valid() { // a hand-built invalid operator is left for aludsl.CheckTotal to reject
		return &aludsl.Num{Value: aludsl.ApplyBinOp(w, b.Op, x, y)}
	}
	// Short-circuit folding when only one side is constant.
	switch b.Op {
	case aludsl.OpAnd:
		if xok && !phv.Truthy(x) {
			return &aludsl.Num{Value: 0}
		}
	case aludsl.OpOr:
		if xok && phv.Truthy(x) {
			return &aludsl.Num{Value: 1}
		}
	}
	return b
}

// --- Function inlining -------------------------------------------------------

func inlineStmts(stmts []aludsl.Stmt, w phv.Width) []aludsl.Stmt {
	var out []aludsl.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *aludsl.Assign:
			out = append(out, &aludsl.Assign{LHS: s.LHS, RHS: inlineExpr(s.RHS, w)})
		case *aludsl.Return:
			out = append(out, &aludsl.Return{Value: inlineExpr(s.Value, w)})
		case *aludsl.If:
			cond := inlineExpr(s.Cond, w)
			if n, ok := constValue(cond); ok {
				var branch []aludsl.Stmt
				if phv.Truthy(n) {
					branch = s.Then
				} else {
					branch = s.Else
				}
				out = append(out, inlineStmts(branch, w)...)
				continue
			}
			node := &aludsl.If{Cond: cond, Then: inlineStmts(s.Then, w)}
			if s.Else != nil {
				node.Else = inlineStmts(s.Else, w)
			}
			out = append(out, node)
		default:
			out = append(out, s)
		}
	}
	return out
}

func inlineExpr(e aludsl.Expr, w phv.Width) aludsl.Expr {
	switch e := e.(type) {
	case *aludsl.Num, *aludsl.Ident:
		return e
	case *aludsl.Unary:
		return foldUnary(&aludsl.Unary{Op: e.Op, X: inlineExpr(e.X, w)}, w)
	case *aludsl.Binary:
		return foldBinary(&aludsl.Binary{Op: e.Op, X: inlineExpr(e.X, w), Y: inlineExpr(e.Y, w)}, w)
	case *aludsl.Call:
		args := make([]aludsl.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = inlineExpr(a, w)
		}
		body := substituteParams(aludsl.CloneExpr(e.Func.Body), args)
		return inlineExpr(body, w)
	case *aludsl.HoleCall:
		// Inlining without SCC first leaves hole calls untouched.
		args := make([]aludsl.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = inlineExpr(a, w)
		}
		return &aludsl.HoleCall{Builtin: e.Builtin, Hole: e.Hole, Args: args, Slot: e.Slot}
	default:
		return e
	}
}

// substituteParams replaces VarParam references with the corresponding
// argument expressions. Arguments referenced more than once are cloned so
// the resulting tree shares no nodes.
func substituteParams(e aludsl.Expr, args []aludsl.Expr) aludsl.Expr {
	switch e := e.(type) {
	case *aludsl.Num:
		return e
	case *aludsl.Ident:
		if e.Class == aludsl.VarParam {
			return aludsl.CloneExpr(args[e.Index])
		}
		return e
	case *aludsl.Unary:
		e.X = substituteParams(e.X, args)
		return e
	case *aludsl.Binary:
		e.X = substituteParams(e.X, args)
		e.Y = substituteParams(e.Y, args)
		return e
	case *aludsl.Call:
		for i, a := range e.Args {
			e.Args[i] = substituteParams(a, args)
		}
		return e
	case *aludsl.HoleCall:
		for i, a := range e.Args {
			e.Args[i] = substituteParams(a, args)
		}
		return e
	default:
		return e
	}
}
