package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// handALU is a hole-free ALU built as an AST, the way a core.Spec's caller
// may supply one: packet fields a and b (operands 0 and 1), state variable s
// when stateful, and one statement, `return ret;` or `s = ret;`.
func handALU(kind aludsl.ALUKind, ret aludsl.Expr) *aludsl.Program {
	p := &aludsl.Program{Name: "hand", Kind: kind, PacketFields: []string{"a", "b"}}
	if kind == aludsl.Stateful {
		p.StateVars = []string{"s"}
		p.Body = []aludsl.Stmt{&aludsl.Assign{LHS: &aludsl.Ident{Name: "s", Class: aludsl.VarState}, RHS: ret}}
	} else {
		p.Body = []aludsl.Stmt{&aludsl.Return{Value: ret}}
	}
	return p
}

// TestBuildRejectsNonTotalALU pins where a hand-built ALU program that cannot
// be evaluated is caught. At every prechecked level core.Build rejects it,
// naming the ALU, so nothing built there can fail at run time — what lets the
// production kernel run unguarded. At the Unoptimized level the same program
// still builds and the reference interpreter keeps its own semantics: nodes
// it guards are a run-time finding, an *aludsl.EvalError in BatchReport.Err;
// indices it does not guard are a Go run-time panic that no layer swallows.
func TestBuildRejectsNonTotalALU(t *testing.T) {
	a := func() aludsl.Expr { return &aludsl.Ident{Name: "a", Class: aludsl.VarField, Index: 0} }
	b := func() aludsl.Expr { return &aludsl.Ident{Name: "b", Class: aludsl.VarField, Index: 1} }
	helper := func(body aludsl.Expr, args ...aludsl.Expr) aludsl.Expr {
		return &aludsl.Call{Func: &aludsl.FuncDef{Name: "helper", Params: []string{"op0"}, Body: body}, Args: args}
	}
	cases := []struct {
		name     string
		kind     aludsl.ALUKind
		ret      aludsl.Expr
		buildErr string // what Build says at the prechecked levels
		evalErr  string // the reference's EvalError; "" means it panics instead
	}{
		{"hole call hidden in a helper", aludsl.Stateless,
			helper(&aludsl.HoleCall{Builtin: aludsl.BuiltinC, Hole: "hidden"}),
			`missing machine code pair for "hidden"`, `missing machine code pair for "hidden"`},
		{"hole variable hidden in a helper", aludsl.Stateless,
			helper(&aludsl.Ident{Name: "hv", Class: aludsl.VarHole}),
			`missing machine code pair for "hv"`, `missing machine code pair for "hv"`},
		{"unresolved identifier", aludsl.Stateless,
			&aludsl.Ident{Name: "ghost"},
			`unresolved identifier "ghost"`, `unresolved identifier "ghost"`},
		{"operand index past the packet fields", aludsl.Stateless,
			&aludsl.Ident{Name: "c", Class: aludsl.VarField, Index: 2},
			`identifier "c": index 2 out of range [0,2)`, "operand 2 out of range (2 operands)"},
		{"state index past the state variables", aludsl.Stateful,
			&aludsl.Ident{Name: "t", Class: aludsl.VarState, Index: 1},
			`identifier "t": index 1 out of range [0,1)`, ""},
		{"helper parameter past the call's arguments", aludsl.Stateless,
			helper(&aludsl.Ident{Name: "op1", Class: aludsl.VarParam, Index: 1}, a()),
			`identifier "op1": index 1 out of range [0,1)`, ""},
		{"unknown unary operator", aludsl.Stateless,
			&aludsl.Unary{Op: 7, X: a()},
			"unknown unary operator 7", "unknown unary op"},
		{"unknown binary operator", aludsl.Stateless,
			&aludsl.Binary{Op: 99, X: a(), Y: b()},
			"unknown binary operator 99", ""},
		{"unknown binary operator on constants", aludsl.Stateless,
			&aludsl.Binary{Op: 99, X: &aludsl.Num{Value: 1}, Y: &aludsl.Num{Value: 2}},
			"unknown binary operator 99", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := core.Spec{Depth: 1, Width: 1, StatelessALU: handALU(aludsl.Stateless, a())}
			if tc.kind == aludsl.Stateful {
				s.StatefulALU = handALU(tc.kind, tc.ret)
			} else {
				s.StatelessALU = handALU(tc.kind, tc.ret)
			}
			req, err := s.RequiredPairs()
			if err != nil {
				t.Fatal(err)
			}
			code := machinecode.New()
			for _, h := range req {
				code.Set(h.Name, 0)
			}
			where := fmt.Sprintf("stage 0 %s ALU 0: ", tc.kind)
			for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
				_, err := core.Build(s, code, level)
				if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), tc.buildErr) {
					t.Errorf("%v: Build error = %v, want one naming %q with %q", level, err, where, tc.buildErr)
				}
			}

			p, err := core.Build(s, code, core.Unoptimized)
			if err != nil {
				t.Fatalf("unoptimized: Build rejected the program: %v", err)
			}
			var rep *BatchReport
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				rep, err = NewFuzzer(p).FuzzGen(passThroughSpec(), NewTrafficGen(1, 1, phv.Default32, 0), 4, FuzzOptions{}, 0)
			}()
			if tc.evalErr == "" {
				if panicked == nil {
					t.Fatalf("unoptimized: run returned (%+v, %v), want the interpreter's unguarded panic to propagate", rep, err)
				}
				if _, isErr := panicked.(*aludsl.EvalError); isErr {
					t.Fatalf("unoptimized: panic value is an EvalError: %v", panicked)
				}
				return
			}
			if panicked != nil || err != nil {
				t.Fatalf("unoptimized: panic %v, error %v; want a finding in the report", panicked, err)
			}
			var evalErr *aludsl.EvalError
			if !errors.As(rep.Err, &evalErr) || !strings.Contains(evalErr.Msg, tc.evalErr) {
				t.Fatalf("unoptimized: BatchReport.Err = %v, want an EvalError with %q", rep.Err, tc.evalErr)
			}
			if rep.Checked != 0 || rep.Ticks != 0 {
				t.Errorf("unoptimized: checked=%d ticks=%d, want the abort on the first tick", rep.Checked, rep.Ticks)
			}
		})
	}
}
