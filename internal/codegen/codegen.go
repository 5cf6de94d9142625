// Package codegen is dgen's code emission component (§3.2 of the paper):
// it renders an executable pipeline description as Go source text. The
// paper's Druzhba generates Rust; this port generates Go, preserving the
// three code shapes of Fig. 6:
//
//   - Unoptimized (v1): helper functions take opcode parameters, the ALU
//     function loads machine code values from a hash map at runtime and the
//     helpers branch on them at every call;
//   - SCC propagation (v2): helpers are specialized to their machine code
//     values, with single-expression bodies, but remain separate functions;
//   - SCC + inlining (v3): helper calls are replaced by their bodies.
//
// The emitted file is a self-contained, compilable Go package exposing
// Execute (run one PHV through all stages) and Reset (zero all state).
//
// In-process simulation does not use this source (Go cannot compile at
// runtime); package core lowers each ALU's program as written instead. The
// emitted source exists for inspection, for the Fig. 6 reproduction and for
// building standalone simulators offline.
package codegen

import (
	"errors"
	"fmt"
	"strings"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/opt"
)

// Options configures code emission.
type Options struct {
	// Package is the emitted package name; empty means "pipeline".
	Package string
	// Level selects v1/v2/v3 emission.
	Level core.OptLevel
}

// Generate renders the pipeline description for spec and machine code as Go
// source. At the optimized levels it refuses what core.Build refuses: the
// machine code must be complete and in-range (the same error), and every ALU
// program total with its machine code (aludsl.CheckTotal's error, wrapped) —
// dgen never emits what dsim would not run. The unoptimized level defers
// lookups to runtime and only requires the code at execution time. The
// Compiled level has no source shape of its own (in process it builds what
// scc+inline builds), so it emits that level's source.
func Generate(spec core.Spec, code *machinecode.Program, opts Options) (string, error) {
	if opts.Package == "" {
		opts.Package = "pipeline"
	}
	switch opts.Level {
	case core.Unoptimized, core.SCCPropagation, core.SCCInlining:
	case core.Compiled:
		opts.Level = core.SCCInlining
	default:
		return "", fmt.Errorf("codegen: unknown level %v", opts.Level)
	}
	spec, err := spec.Normalize()
	if err != nil {
		return "", err
	}
	g := &generator{spec: spec, code: code, opts: opts}
	if opts.Level != core.Unoptimized {
		if g.read, err = spec.Read(code); err != nil {
			return "", err
		}
		if len(g.read.Errs) > 0 {
			return "", errors.Join(g.read.Errs...)
		}
	}
	return g.generate()
}

type generator struct {
	spec core.Spec
	code *machinecode.Program
	read *core.Code // the machine code as core.Build reads it; nil when unoptimized
	opts Options

	helpers strings.Builder // emitted helper functions
	alus    strings.Builder // emitted ALU functions
	stages  strings.Builder // emitted stage functions
}

func (g *generator) generate() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by druzhba dgen (level=%s). DO NOT EDIT.\n", g.opts.Level)
	fmt.Fprintf(&b, "//\n// Pipeline: depth=%d width=%d phvlen=%d bits=%d\n",
		g.spec.Depth, g.spec.Width, g.spec.PHVLen, g.spec.Bits.Bits())
	fmt.Fprintf(&b, "package %s\n\n", g.opts.Package)
	fmt.Fprintf(&b, "const mask = %#x\n\n", g.spec.Bits.Mask())
	b.WriteString(prelude)

	// State vector declaration (one slice per stateful ALU).
	b.WriteString("// State holds every stateful ALU's state, indexed [stage][slot][variable].\nvar State = [][][]int64{\n")
	for s := 0; s < g.spec.Depth; s++ {
		b.WriteString("\t{")
		if g.spec.StatefulALU != nil {
			for k := 0; k < g.spec.Width; k++ {
				if k > 0 {
					b.WriteString(", ")
				}
				b.WriteString("{")
				for v := 0; v < g.spec.StatefulALU.NumState(); v++ {
					if v > 0 {
						b.WriteString(", ")
					}
					b.WriteString("0")
				}
				b.WriteString("}")
			}
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n\n")
	b.WriteString(resetFunc)

	for s := 0; s < g.spec.Depth; s++ {
		if err := g.emitStage(s); err != nil {
			return "", err
		}
	}

	b.WriteString(g.helpers.String())
	b.WriteString(g.alus.String())
	b.WriteString(g.stages.String())

	// Top-level Execute.
	if g.opts.Level == core.Unoptimized {
		b.WriteString("// Execute runs one PHV through every pipeline stage, looking machine\n// code values up in values at every tick (unoptimized semantics).\nfunc Execute(values map[string]int64, phv []int64) []int64 {\n")
		for s := 0; s < g.spec.Depth; s++ {
			fmt.Fprintf(&b, "\tphv = executeStage%d(values, phv)\n", s)
		}
	} else {
		b.WriteString("// Execute runs one PHV through every pipeline stage.\nfunc Execute(phv []int64) []int64 {\n")
		for s := 0; s < g.spec.Depth; s++ {
			fmt.Fprintf(&b, "\tphv = executeStage%d(phv)\n", s)
		}
	}
	b.WriteString("\treturn phv\n}\n")
	return b.String(), nil
}

const prelude = `func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func truthy(v int64) bool { return v != 0 }

func wdiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a / b) & mask
}

func wmod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	return (a % b) & mask
}

`

const resetFunc = `// Reset zeroes every stateful ALU's state.
func Reset() {
	for _, stage := range State {
		for _, alu := range stage {
			for i := range alu {
				alu[i] = 0
			}
		}
	}
}

`

func (g *generator) emitStage(s int) error {
	unopt := g.opts.Level == core.Unoptimized
	var body strings.Builder
	width := g.spec.Width

	emitALUSet := func(prog *aludsl.Program, stateful bool, outVar string) error {
		fmt.Fprintf(&body, "\t%s := make([]int64, %d)\n", outVar, width)
		for k := 0; k < width; k++ {
			aluName := fmt.Sprintf("pipeline_stage_%d_%s_alu_%d", s, machinecode.KindName(stateful), k)
			if err := g.emitALU(prog, s, stateful, k, aluName); err != nil {
				return err
			}
			// Gather operands through the input muxes.
			var ops []string
			for op := 0; op < prog.NumOperands(); op++ {
				muxName := machinecode.OperandMuxName(s, stateful, k, op)
				if unopt {
					ops = append(ops, fmt.Sprintf("phv[values[%q]]", muxName))
				} else {
					v, _ := g.code.Get(muxName) // validated by Generate
					ops = append(ops, fmt.Sprintf("phv[%d]", v))
				}
			}
			stateArg := "nil"
			if stateful {
				stateArg = fmt.Sprintf("State[%d][%d]", s, k)
			}
			if unopt {
				fmt.Fprintf(&body, "\t%s[%d] = %s(values, []int64{%s}, %s)\n",
					outVar, k, aluName, strings.Join(ops, ", "), stateArg)
			} else {
				fmt.Fprintf(&body, "\t%s[%d] = %s([]int64{%s}, %s)\n",
					outVar, k, aluName, strings.Join(ops, ", "), stateArg)
			}
		}
		return nil
	}

	if err := emitALUSet(g.spec.StatelessALU, false, "statelessOut"); err != nil {
		return err
	}
	hasStateful := g.spec.StatefulALU != nil
	if hasStateful {
		if err := emitALUSet(g.spec.StatefulALU, true, "statefulOut"); err != nil {
			return err
		}
	}

	fmt.Fprintf(&body, "\tout := make([]int64, %d)\n", g.spec.PHVLen)
	for c := 0; c < g.spec.PHVLen; c++ {
		muxName := machinecode.OutputMuxName(s, c)
		if unopt {
			fmt.Fprintf(&body, "\tswitch sel := values[%q]; {\n", muxName)
			fmt.Fprintf(&body, "\tcase sel == 0:\n\t\tout[%d] = phv[%d]\n", c, c)
			fmt.Fprintf(&body, "\tcase sel <= %d:\n\t\tout[%d] = statelessOut[sel-1]\n", width, c)
			if hasStateful {
				fmt.Fprintf(&body, "\tdefault:\n\t\tout[%d] = statefulOut[sel-%d]\n", c, width+1)
			} else {
				fmt.Fprintf(&body, "\tdefault:\n\t\tpanic(\"output mux out of range\")\n")
			}
			body.WriteString("\t}\n")
		} else {
			v, _ := g.code.Get(muxName) // validated by Generate: present and in the mux's domain
			switch sel := int(v); {
			case sel == 0:
				fmt.Fprintf(&body, "\tout[%d] = phv[%d]\n", c, c)
			case sel <= width:
				fmt.Fprintf(&body, "\tout[%d] = statelessOut[%d]\n", c, sel-1)
			default:
				fmt.Fprintf(&body, "\tout[%d] = statefulOut[%d]\n", c, sel-width-1)
			}
		}
	}
	body.WriteString("\treturn out\n")

	if unopt {
		fmt.Fprintf(&g.stages, "func executeStage%d(values map[string]int64, phv []int64) []int64 {\n%s}\n\n", s, body.String())
	} else {
		fmt.Fprintf(&g.stages, "func executeStage%d(phv []int64) []int64 {\n%s}\n\n", s, body.String())
	}
	return nil
}

// emitALU emits the ALU function (and its helpers) for one placement: at v1
// the program as written, taking the machine code table; at v2/v3 the
// program specialised to its machine code.
func (g *generator) emitALU(prog *aludsl.Program, s int, stateful bool, k int, aluName string) error {
	scoped := func(hole string) string {
		return machinecode.ALUHoleName(s, stateful, k, hole)
	}
	params := "phv []int64, state []int64"
	var body strings.Builder
	if g.opts.Level == core.Unoptimized {
		params = "values map[string]int64, " + params
		// Load every machine code value the body references, like Fig. 6
		// v1's "arith_opcode = values[...]" lines.
		for _, h := range prog.Holes {
			fmt.Fprintf(&body, "\tv_%s := values[%q]\n", h.Name, scoped(h.Name))
		}
	} else {
		holes := g.read.ALUs[s][k].Hole
		if stateful {
			holes = g.read.ALUs[s][g.spec.Width+k].Hole
		}
		err := aludsl.CheckTotal(prog, holes)
		if err == nil {
			prog, err = opt.SCC(prog, holes, g.spec.Bits)
		}
		if err != nil {
			return fmt.Errorf("codegen: %s: %w", aluName, err)
		}
		if g.opts.Level == core.SCCInlining {
			prog = opt.Inline(prog, g.spec.Bits)
		}
	}
	e := &exprEmitter{prefix: aluName, helpers: &g.helpers, emitted: map[string]bool{}}
	if err := emitStmts(&body, prog.Body, 1, e); err != nil {
		return err
	}
	emitImplicitReturn(&body, prog)
	fmt.Fprintf(&g.alus, "func %s(%s) int64 {\n%s}\n\n", aluName, params, body.String())
	return nil
}

func emitImplicitReturn(b *strings.Builder, prog *aludsl.Program) {
	if len(prog.Body) > 0 {
		if _, ok := prog.Body[len(prog.Body)-1].(*aludsl.Return); ok {
			return
		}
	}
	if prog.Kind == aludsl.Stateful && prog.NumState() > 0 {
		b.WriteString("\treturn state[0]\n")
	} else {
		b.WriteString("\treturn 0\n")
	}
}

type exprEmitter struct {
	prefix  string
	helpers *strings.Builder
	emitted map[string]bool
}

func emitStmts(b *strings.Builder, stmts []aludsl.Stmt, depth int, e *exprEmitter) error {
	ind := strings.Repeat("\t", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *aludsl.Assign:
			rhs, err := e.expr(s.RHS)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%sstate[%d] = %s\n", ind, s.LHS.Index, rhs)
		case *aludsl.Return:
			v, err := e.expr(s.Value)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%sreturn %s\n", ind, v)
		case *aludsl.If:
			cond, err := e.expr(s.Cond)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%sif truthy(%s) {\n", ind, cond)
			if err := emitStmts(b, s.Then, depth+1, e); err != nil {
				return err
			}
			if s.Else != nil {
				fmt.Fprintf(b, "%s} else {\n", ind)
				if err := emitStmts(b, s.Else, depth+1, e); err != nil {
					return err
				}
			}
			fmt.Fprintf(b, "%s}\n", ind)
		default:
			return fmt.Errorf("codegen: unknown statement %T", s)
		}
	}
	return nil
}

func (e *exprEmitter) expr(x aludsl.Expr) (string, error) {
	switch x := x.(type) {
	case *aludsl.Num:
		return fmt.Sprintf("%d", x.Value), nil
	case *aludsl.Ident:
		switch x.Class {
		case aludsl.VarState:
			return fmt.Sprintf("state[%d]", x.Index), nil
		case aludsl.VarField:
			return fmt.Sprintf("phv[%d]", x.Index), nil
		case aludsl.VarHole:
			return "v_" + x.Name, nil
		case aludsl.VarParam:
			return x.Name, nil
		default:
			return "", fmt.Errorf("codegen: unresolved identifier %q", x.Name)
		}
	case *aludsl.Unary:
		arg, err := e.expr(x.X)
		if err != nil {
			return "", err
		}
		if x.Op == aludsl.OpNeg {
			return fmt.Sprintf("((-%s) & mask)", arg), nil
		}
		return fmt.Sprintf("b2i(%s == 0)", arg), nil
	case *aludsl.Binary:
		l, err := e.expr(x.X)
		if err != nil {
			return "", err
		}
		r, err := e.expr(x.Y)
		if err != nil {
			return "", err
		}
		return emitBinOp(x.Op, l, r), nil
	case *aludsl.HoleCall:
		return e.holeCall(x)
	case *aludsl.Call:
		var args []string
		for _, a := range x.Args {
			s, err := e.expr(a)
			if err != nil {
				return "", err
			}
			args = append(args, s)
		}
		name := e.prefix + "_" + x.Func.Name
		if !e.emitted[name] {
			e.emitted[name] = true
			body, err := e.expr(x.Func.Body)
			if err != nil {
				return "", err
			}
			paramList := ""
			if len(x.Func.Params) > 0 {
				paramList = strings.Join(x.Func.Params, ", ") + " int64"
			}
			fmt.Fprintf(e.helpers, "func %s(%s) int64 {\n\treturn %s\n}\n\n", name, paramList, body)
		}
		return fmt.Sprintf("%s(%s)", name, strings.Join(args, ", ")), nil
	default:
		return "", fmt.Errorf("codegen: unknown expression %T", x)
	}
}

func emitBinOp(op aludsl.BinOp, l, r string) string {
	switch op {
	case aludsl.OpAdd:
		return fmt.Sprintf("((%s + %s) & mask)", l, r)
	case aludsl.OpSub:
		return fmt.Sprintf("((%s - %s) & mask)", l, r)
	case aludsl.OpMul:
		return fmt.Sprintf("((%s * %s) & mask)", l, r)
	case aludsl.OpDiv:
		return fmt.Sprintf("wdiv(%s, %s)", l, r)
	case aludsl.OpMod:
		return fmt.Sprintf("wmod(%s, %s)", l, r)
	case aludsl.OpEq:
		return fmt.Sprintf("b2i(%s == %s)", l, r)
	case aludsl.OpNeq:
		return fmt.Sprintf("b2i(%s != %s)", l, r)
	case aludsl.OpLt:
		return fmt.Sprintf("b2i(%s < %s)", l, r)
	case aludsl.OpGt:
		return fmt.Sprintf("b2i(%s > %s)", l, r)
	case aludsl.OpLe:
		return fmt.Sprintf("b2i(%s <= %s)", l, r)
	case aludsl.OpGe:
		return fmt.Sprintf("b2i(%s >= %s)", l, r)
	case aludsl.OpAnd:
		return fmt.Sprintf("b2i(truthy(%s) && truthy(%s))", l, r)
	case aludsl.OpOr:
		return fmt.Sprintf("b2i(truthy(%s) || truthy(%s))", l, r)
	}
	return "0"
}

// holeCall emits a v1 call: the helper takes an opcode parameter and
// branches on it at every execution.
func (e *exprEmitter) holeCall(x *aludsl.HoleCall) (string, error) {
	var args []string
	for _, a := range x.Args {
		s, err := e.expr(a)
		if err != nil {
			return "", err
		}
		args = append(args, s)
	}
	name := e.prefix + "_" + x.Hole
	if !e.emitted[name] {
		helper, err := v1Helper(name, x)
		if err != nil {
			return "", fmt.Errorf("codegen: %s: %w", name, err)
		}
		e.emitted[name] = true
		e.helpers.WriteString(helper)
	}
	args = append(args, "v_"+x.Hole)
	return fmt.Sprintf("%s(%s)", name, strings.Join(args, ", ")), nil
}

// v1Helper renders the unoptimized helper for a builtin call: it applies the
// builtin table's choice for each value in the domain as a branch on the
// opcode parameter, the last taking every other value (C's one line is the
// value itself).
func v1Helper(name string, x *aludsl.HoleCall) (string, error) {
	var returns []string
values:
	for v := int64(0); ; v++ {
		ch, err := x.Choose(v)
		switch {
		case err != nil && v == 0:
			return "", err
		case err != nil:
			break values // past the domain
		case ch.Kind == aludsl.ChooseArg:
			returns = append(returns, fmt.Sprintf("op%d", ch.Arg))
		case ch.Kind == aludsl.ChooseOp:
			returns = append(returns, emitBinOp(ch.Op, "op0", "op1"))
		case ch.Kind == aludsl.ChooseZero:
			returns = append(returns, "0")
		default: // ChooseValue: C's one line holds for every value
			returns = append(returns, "opcode & mask")
			break values
		}
	}
	var b strings.Builder
	params := make([]string, 0, len(x.Args)+1)
	for i := range x.Args {
		params = append(params, fmt.Sprintf("op%d", i))
	}
	fmt.Fprintf(&b, "func %s(%s int64) int64 {\n", name, strings.Join(append(params, "opcode"), ", "))
	last := len(returns) - 1
	for v, r := range returns[:last] {
		fmt.Fprintf(&b, "\tif opcode == %d {\n\t\treturn %s\n\t}\n", v, r)
	}
	fmt.Fprintf(&b, "\treturn %s\n}\n\n", returns[last])
	return b.String(), nil
}
