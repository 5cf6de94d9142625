package verify

import (
	"fmt"

	"druzhba/internal/aludsl"
	"druzhba/internal/bv"
	"druzhba/internal/core"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
)

// The reference side of translation validation: the ALU DSL executed
// symbolically, AST node by AST node, as the verifier did before it proved
// core's own lowering. TestConeMatchesReference holds flat.Sym of the
// compared cone (core.Spec.Lower) and of core.Build's cone to these vectors,
// gate for gate.

// symPipeline executes a pipeline description symbolically, one transaction
// (PHV) at a time, threading stateful-ALU state between transactions.
// Processing a PHV through the dataflow stage by stage is equivalent to the
// tick-accurate simulation (PHVs traverse stages in order and never
// overtake), which is the same argument core.Pipeline.Process relies on.
// Only the ALUs live keeps execute: a dead ALU has no gates, its latch and
// the containers that select it are nil vectors nothing reads.
type symPipeline struct {
	b    *bv.Builder
	spec core.Spec // normalized
	code *core.Code
	live [][]bool
	w    phv.Width
	bits int

	// state[stage][latch] is the state vector of the stateful ALU there
	// (nil for stateless latches).
	state [][][]bv.Vec
}

func newSymPipeline(b *bv.Builder, spec core.Spec, code *core.Code, live [][]bool, w phv.Width) *symPipeline {
	sp := &symPipeline{b: b, spec: spec, code: code, live: live, w: w, bits: w.Bits()}
	sp.state = make([][][]bv.Vec, spec.Depth)
	for si := range sp.state {
		sp.state[si] = make([][]bv.Vec, len(live[si]))
		if spec.StatefulALU == nil {
			continue
		}
		for latch := spec.Width; latch < 2*spec.Width; latch++ {
			vars := make([]bv.Vec, spec.StatefulALU.NumState())
			for i := range vars {
				vars[i] = b.Const(sp.bits, 0) // ResetState semantics
			}
			sp.state[si][latch] = vars
		}
	}
	return sp
}

// step processes one PHV through every stage, returning the output
// containers and updating internal state.
func (sp *symPipeline) step(in []bv.Vec) ([]bv.Vec, error) {
	cur := in
	for si := 0; si < sp.spec.Depth; si++ {
		next, err := sp.execStage(si, cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func (sp *symPipeline) execStage(si int, in []bv.Vec) ([]bv.Vec, error) {
	latch := make([]bv.Vec, len(sp.live[si]))
	for l, live := range sp.live[si] {
		if !live {
			continue
		}
		out, err := sp.execALU(si, l, in)
		if err != nil {
			return nil, err
		}
		latch[l] = out
	}
	out := make([]bv.Vec, len(in))
	for c, sel := range sp.code.Muxes.Output[si] {
		if sel == 0 {
			out[c] = in[c]
		} else {
			out[c] = latch[sel-1]
		}
	}
	return out, nil
}

func (sp *symPipeline) execALU(si, latch int, in []bv.Vec) (bv.Vec, error) {
	alu := &sp.code.ALUs[si][latch]
	prog := alu.Prog
	operands := make([]bv.Vec, prog.NumOperands())
	for op, c := range sp.code.Muxes.Operand[si][latch] {
		operands[op] = in[c]
	}
	e := &symALU{
		b:        sp.b,
		bits:     sp.bits,
		w:        sp.w,
		lookup:   alu.Hole,
		operands: operands,
		state:    cloneVecs(sp.state[si][latch]),
		kind:     prog.Kind,
	}
	out, err := e.run(prog)
	if err != nil {
		return nil, err
	}
	// Branch merging rebinds the executor's state slice; commit the final
	// (merged) state back to the pipeline.
	sp.state[si][latch] = e.state
	return out, nil
}

// symALU executes one ALU DSL program symbolically: state writes become
// guarded updates, if/else becomes ITE merging, and builtins resolve their
// machine code values concretely (so mux selections and opcodes specialize
// exactly as SCC propagation would).
type symALU struct {
	b        *bv.Builder
	bits     int
	w        phv.Width
	lookup   aludsl.HoleLookup
	operands []bv.Vec
	state    []bv.Vec // working copy; holds the final state after run
	params   []bv.Vec // current helper-call frame
	kind     aludsl.ALUKind
}

// retState tracks the symbolic "a return has executed" flag and value.
type retState struct {
	val  bv.Vec
	done sat.Lit
}

func (e *symALU) run(prog *aludsl.Program) (out bv.Vec, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ve, ok := r.(symError); ok {
				err = fmt.Errorf("verify: %s: %s", prog.Name, string(ve))
				return
			}
			panic(r)
		}
	}()
	rs := &retState{val: e.b.Const(e.bits, 0), done: e.b.False()}
	e.execStmts(prog.Body, rs)
	// Implicit output: post-update state_0 for stateful ALUs, else 0.
	fallback := e.b.Const(e.bits, 0)
	if e.kind == aludsl.Stateful && len(e.state) > 0 {
		fallback = e.state[0]
	}
	return e.b.Ite(rs.done, rs.val, fallback), nil
}

type symError string

func (e *symALU) failf(format string, args ...any) bv.Vec {
	panic(symError(fmt.Sprintf(format, args...)))
}

func (e *symALU) execStmts(stmts []aludsl.Stmt, rs *retState) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *aludsl.Assign:
			v := e.eval(s.RHS)
			old := e.state[s.LHS.Index]
			e.state[s.LHS.Index] = e.b.Ite(rs.done, old, v)
		case *aludsl.Return:
			v := e.eval(s.Value)
			rs.val = e.b.Ite(rs.done, rs.val, v)
			rs.done = e.b.True()
		case *aludsl.If:
			c := e.b.Truthy(e.eval(s.Cond))
			baseState := cloneVecs(e.state)
			baseRS := *rs
			e.execStmts(s.Then, rs)
			thenState := e.state
			thenRS := *rs
			e.state = baseState
			*rs = baseRS
			if s.Else != nil {
				e.execStmts(s.Else, rs)
			}
			for i := range e.state {
				e.state[i] = e.b.Ite(c, thenState[i], e.state[i])
			}
			rs.val = e.b.Ite(c, thenRS.val, rs.val)
			rs.done = e.b.IteLit(c, thenRS.done, rs.done)
		default:
			e.failf("unknown statement %T", s)
		}
	}
}

func cloneVecs(v []bv.Vec) []bv.Vec { return append([]bv.Vec(nil), v...) }

func (e *symALU) hole(name string) int64 {
	v, ok := e.lookup(name)
	if !ok {
		e.failf("missing machine code pair for %q", name)
	}
	return v
}

func (e *symALU) eval(x aludsl.Expr) bv.Vec {
	switch x := x.(type) {
	case *aludsl.Num:
		return e.b.Const(e.bits, e.w.Trunc(x.Value))
	case *aludsl.Ident:
		switch x.Class {
		case aludsl.VarState:
			return e.state[x.Index]
		case aludsl.VarField:
			if x.Index >= len(e.operands) {
				return e.failf("operand %d out of range (%d operands)", x.Index, len(e.operands))
			}
			return e.operands[x.Index]
		case aludsl.VarHole:
			return e.b.Const(e.bits, e.w.Trunc(e.hole(x.Name)))
		case aludsl.VarParam:
			return e.params[x.Index]
		default:
			return e.failf("unresolved identifier %q", x.Name)
		}
	case *aludsl.Unary:
		v := e.eval(x.X)
		switch x.Op {
		case aludsl.OpNeg:
			return e.b.Neg(v)
		case aludsl.OpNot:
			return e.b.FromBool(e.b.IsZero(v), e.bits)
		}
		return e.failf("unknown unary op %v", x.Op)
	case *aludsl.Binary:
		// Expressions are side-effect free, so short-circuit and strict
		// evaluation agree; evaluate strictly.
		l := e.eval(x.X)
		r := e.eval(x.Y)
		return e.binOp(x.Op, l, r)
	case *aludsl.HoleCall:
		return e.evalHoleCall(x)
	case *aludsl.Call:
		args := make([]bv.Vec, len(x.Args))
		for i, a := range x.Args {
			args[i] = e.eval(a)
		}
		saved := e.params
		e.params = args
		v := e.eval(x.Func.Body)
		e.params = saved
		return v
	default:
		return e.failf("unknown expression node %T", x)
	}
}

// binOp is the gates of l op r, a comparison or logical operator as a 0/1
// vector.
func (e *symALU) binOp(op aludsl.BinOp, l, r bv.Vec) bv.Vec {
	b := e.b
	switch op {
	case aludsl.OpAdd:
		return b.Add(l, r)
	case aludsl.OpSub:
		return b.Sub(l, r)
	case aludsl.OpMul:
		return b.Mul(l, r)
	case aludsl.OpDiv:
		return b.Div(l, r)
	case aludsl.OpMod:
		return b.Mod(l, r)
	case aludsl.OpEq:
		return b.FromBool(b.Eq(l, r), e.bits)
	case aludsl.OpNeq:
		return b.FromBool(b.Ne(l, r), e.bits)
	case aludsl.OpLt:
		return b.FromBool(b.Ult(l, r), e.bits)
	case aludsl.OpGt:
		return b.FromBool(b.Ult(r, l), e.bits)
	case aludsl.OpLe:
		return b.FromBool(b.Ule(l, r), e.bits)
	case aludsl.OpGe:
		return b.FromBool(b.Ule(r, l), e.bits)
	case aludsl.OpAnd:
		return b.FromBool(b.And(b.Truthy(l), b.Truthy(r)), e.bits)
	case aludsl.OpOr:
		return b.FromBool(b.Or(b.Truthy(l), b.Truthy(r)), e.bits)
	}
	return e.failf("unknown binary op %v", op)
}

// evalHoleCall applies the builtin table's choice for the call's machine code
// value. A selector (Opt, MuxN) builds only the argument it picks; an
// operator (a Strict choice) builds both operands left to right, even to
// pass one through.
func (e *symALU) evalHoleCall(x *aludsl.HoleCall) bv.Vec {
	mc := e.hole(x.Hole)
	ch, err := x.Choose(mc)
	switch {
	case err != nil:
		return e.failf("hole %q: %v", x.Hole, err)
	case ch.Kind == aludsl.ChooseZero:
		return e.b.Const(e.bits, 0)
	case ch.Kind == aludsl.ChooseValue:
		return e.b.Const(e.bits, e.w.Trunc(mc))
	case !ch.Strict:
		return e.eval(x.Args[ch.Arg])
	}
	ops := [2]bv.Vec{e.eval(x.Args[0]), e.eval(x.Args[1])}
	if ch.Kind == aludsl.ChooseOp {
		return e.binOp(ch.Op, ops[0], ops[1])
	}
	return ops[ch.Arg]
}
