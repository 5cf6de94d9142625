package verify

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/bv"
	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/flat"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
	"druzhba/internal/spec"
)

// loweringWidths are the widths the lowering tests evaluate every Table-1
// program at: the verify grid's, the campaign defaults and the datapath's.
var loweringWidths = []int{4, 5, 8, 10, 32}

// compared resolves a Table-1 benchmark and reads its machine code: the
// resolution, the normalized spec, what it read and the ALUs in the cone of
// the compared containers.
func compared(t *testing.T, bm *spec.Benchmark) (*spec.Resolved, core.Spec, *core.Code, [][]bool) {
	t.Helper()
	r, err := bm.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	hw, err := r.Spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	read, err := hw.Read(r.Code)
	if err != nil || len(read.Errs) > 0 {
		t.Fatalf("%s: read %v %v", bm.Name, err, read.Errs)
	}
	out := make([]bool, hw.PHVLen)
	for _, c := range r.Containers {
		out[c] = true
	}
	return r, hw, read, read.Muxes.Live(out, nil)
}

// symRun evaluates a program over a symbolic frame, the frame kept between
// runs: state carries from one run into the next as it does in Prove.
type symRun struct {
	prog  *flat.Program
	frame []bv.Vec
}

func newSymRun(b *bv.Builder, prog *flat.Program, bits int) *symRun {
	init := prog.NewFrame()
	return &symRun{prog, prog.SymFrame(b, bits, func(r int) bv.Vec { return b.Const(bits, init[r]) })}
}

func (s *symRun) run(b *bv.Builder) (trapped sat.Lit) {
	s.frame, trapped = s.prog.Sym(b, s.frame)
	return trapped
}

// runCone runs a fused cone on one packet and returns its output containers.
func (s *symRun) runCone(b *bv.Builder, f *core.Fused, in []bv.Vec) []bv.Vec {
	for c, v := range in {
		s.frame[f.InputReg(c)] = v
	}
	s.run(b)
	out := make([]bv.Vec, len(in))
	for c, r := range f.Out() {
		if r >= 0 {
			out[c] = s.frame[r]
		}
	}
	return out
}

// TestConeMatchesReference is the translation validation of the pipeline
// side: for every Table-1 program at every width, over two transactions from
// zero state, the reference AST walk (symPipeline), flat.Sym of the compared
// cone Prove evaluates — lowered at MaxBits, on a frame of that width — and
// flat.Sym of the cone core.Build fuses at scc+inline for that width build
// literally the same vectors for every compared container.
func TestConeMatchesReference(t *testing.T) {
	vectors := 0
	for _, bm := range spec.All() {
		r, hw, read, live := compared(t, bm)
		p, err := NewProblem(r.Spec, r.Code, r.Program, bm.Fields, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range loweringWidths {
			w := phv.MustWidth(bits)
			at := hw
			at.Bits = w
			built, err := core.Build(at, r.Code, core.SCCInlining)
			if err != nil {
				t.Fatal(err)
			}
			f := p.cone
			b := bv.NewBuilder(sat.New())
			ref := newSymPipeline(b, hw, read, live, w)
			cone, buildCone := newSymRun(b, f.Program, bits), newSymRun(b, built.Cone().Program, bits)
			for step := 0; step < 2; step++ {
				in := make([]bv.Vec, hw.PHVLen)
				for c := range in {
					in[c] = b.Var(bits)
				}
				want, err := ref.step(in)
				if err != nil {
					t.Fatal(err)
				}
				got, gotBuilt := cone.runCone(b, f, in), buildCone.runCone(b, built.Cone(), in)
				for _, c := range r.Containers {
					if !slices.Equal(got[c], want[c]) || !slices.Equal(gotBuilt[c], want[c]) {
						t.Errorf("%s/%d bits, step %d, container %d: the cones' vectors are not the reference's", bm.Name, bits, step, c)
					}
					vectors++
				}
			}
		}
	}
	t.Logf("%d vectors compared", vectors)
}

// linkAlone links a binding after a program that holds only the PHV's input
// registers, in0 … in(n-1): the transaction as it runs after the cone, on a
// frame of its own.
func linkAlone(t *testing.T, bind *domino.Binding, w phv.Width, n int) *domino.Linked {
	t.Helper()
	b := flat.NewBuilder(w)
	first := b.Regs("in", n)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int, n)
	for c := range in {
		in[c] = first + c
	}
	l, err := bind.Link(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoweringWidthIsItsLiterals pins what lets a verify job bind the
// specification once, at MaxBits, and prove every cell from it: in the
// lowering of the Domino program (domino.Bind) the width enters only through
// literals truncated to it, so the MaxBits program on a w-bit frame
// (flat.SymFrame cuts its constants) builds literally the vectors the
// program bound at w builds: expected containers, trap condition and state,
// over three transactions, each run as it runs linked after the cone. The
// cone is such a program too (TestConeIsLoweredAtTheCellWidth).
func TestLoweringWidthIsItsLiterals(t *testing.T) {
	specVectors := 0
	for _, bm := range spec.All() {
		r, hw, _, _ := compared(t, bm)
		link := func(w phv.Width) *domino.Linked {
			bind, err := domino.Bind(r.Program, bm.Fields, w)
			if err != nil {
				t.Fatal(err)
			}
			return linkAlone(t, bind, w, hw.PHVLen)
		}
		maxLink := link(phv.MustWidth(MaxBits))
		for _, bits := range loweringWidths {
			links := [2]*domino.Linked{maxLink, link(phv.MustWidth(bits))}
			b := bv.NewBuilder(sat.New())
			specs := [2]*symRun{newSymRun(b, links[0].Program, bits), newSymRun(b, links[1].Program, bits)}
			for step := 0; step < 3; step++ {
				where := fmt.Sprintf("%s/%d bits, step %d", bm.Name, bits, step)
				in := make([]bv.Vec, hw.PHVLen)
				for c := range in {
					in[c] = b.Var(bits)
				}
				var trapped [2]sat.Lit
				for i, s := range specs {
					copy(s.frame, in) // in0 … are registers 0 …
					for _, r := range links[i].Clear {
						s.frame[r] = b.Const(bits, 0)
					}
					trapped[i] = s.run(b)
				}
				if trapped[0] != trapped[1] {
					t.Errorf("%s: the specifications trap under different conditions", where)
				}
				for c := range hw.PHVLen {
					if !slices.Equal(specs[0].frame[links[0].Want[c]], specs[1].frame[links[1].Want[c]]) {
						t.Errorf("%s: expected container %d differs", where, c)
					}
					specVectors++
				}
				for _, st := range r.Program.States {
					if !slices.Equal(specs[0].frame[links[0].StateReg(st.Name)], specs[1].frame[links[1].StateReg(st.Name)]) {
						t.Errorf("%s: specification state %q differs", where, st.Name)
					}
					specVectors++
				}
			}
		}
	}
	t.Logf("%d specification vectors compared", specVectors)
}

// TestConeIsLoweredAtTheCellWidth: the cone a cell proves, lowered once at
// MaxBits, computes on a frame of the cell's width what the cone lowered at
// that width computes, because the lowering folds nothing and an immediate
// enters it only cut to the frame (flat.SymFrame), as ExecuteStage cuts it. A
// stateless ALU computing rel_op(Opt(a), C()) with Opt choosing 0, rel_op
// choosing >= and C() = 256 returns 0 >= 256 = 0 at 9 bits and 0 >= 0 = 1 at
// 8, where the immediate is cut to 0: one Problem proves "pkt.a = 1" at 8
// bits and refutes it at 9, as exhaustive enumeration does. On grids of the
// atom library under random machine code whose immediates mostly exceed the
// width, the MaxBits cone on a frame of each width is equivalent, by SAT, to
// the reference AST walk at that width over two transactions, in every proof.
func TestConeIsLoweredAtTheCellWidth(t *testing.T) {
	s := core.Spec{Depth: 1, Width: 1, StatelessALU: mustParseALU(t, "type: stateless\npacket fields: {a}\nreturn rel_op(Opt(a), C());")}
	code := zeroCode(t, s)
	setALUHole(t, code, 0, false, 0, "opt_0", 1)
	setALUHole(t, code, 0, false, 0, "const_0", 256)
	setALUHole(t, code, 0, false, 0, "rel_op_0", aludsl.RelGe)
	code.Set(machinecode.OutputMuxName(0, 0), 1)
	prog, fields := mustDomino(t, `transaction { pkt.a = 1; }`), domino.FieldMap{"a": 0}
	p, err := NewProblem(s, code, prog, fields, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{8, 9, 8} {
		res, err := p.Prove(context.Background(), bits, 1)
		if err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		want, err := exhaustiveEquivalent(s, code, prog, fields, bits, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Equivalent != want || want != (bits == 8) {
			t.Errorf("%d bits: %v; exhaustive enumeration says equivalent=%v", bits, res, want)
		}
	}

	rng := rand.New(rand.NewSource(45))
	stateless := atoms.StatelessNames()
	prog, fields = mustDomino(t, `transaction { pkt.a = pkt.b; pkt.b = pkt.c; pkt.c = pkt.a; }`), domino.FieldMap{"a": 0, "b": 1, "c": 2}
	proofs := 0
	for i, name := range atoms.StatefulNames() {
		s := core.Spec{Depth: 2, Width: 2, PHVLen: 3, StatelessALU: atoms.MustLoad(stateless[i%len(stateless)]), StatefulALU: atoms.MustLoad(name)}
		req, err := s.RequiredPairs()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			code := machinecode.New()
			for _, h := range req {
				v := rng.Int63n(1024)
				if h.Domain > 0 {
					v = rng.Int63n(int64(h.Domain))
				}
				code.Set(h.Name, v)
			}
			p, err := NewProblem(s, code, prog, fields, Options{})
			if err != nil {
				t.Fatal(err)
			}
			read, err := p.spec.Read(code)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]bool, 3)
			for _, c := range p.containers {
				out[c] = true
			}
			live := read.Muxes.Live(out, nil)
			for _, bits := range []int{3, 8} {
				b := bv.NewBuilder(sat.New())
				ref, run := newSymPipeline(b, p.spec, read, live, phv.MustWidth(bits)), newSymRun(b, p.cone.Program, bits)
				differ := b.False()
				for step := 0; step < 2; step++ {
					in := []bv.Vec{b.Var(bits), b.Var(bits), b.Var(bits)}
					want, err := ref.step(in)
					if err != nil {
						t.Fatal(err)
					}
					got := run.runCone(b, p.cone, in)
					for _, c := range p.containers {
						differ = b.Or(differ, b.Ne(got[c], want[c]))
					}
				}
				b.Assert(differ)
				b.Emit()
				if b.Solve() != sat.Unsat {
					t.Errorf("%s/%d bits: the MaxBits cone on a %d-bit frame is not the reference\ncode:\n%s\ncone:\n%s", name, bits, bits, code, p.cone)
				}
				proofs++
			}
		}
	}
	t.Logf("%d proofs: the MaxBits cone on each width's frame is the reference", proofs)
}

// TestNonTotalALUIsAnError: a hand-built ALU program the lowering cannot
// evaluate with its machine code — the hand-built programs core.Build refuses
// at its prechecked levels (sim's TestBuildRejectsNonTotalALU) — is an error
// naming the ALU, never a panic, wherever the compared cone routes through it.
func TestNonTotalALUIsAnError(t *testing.T) {
	a := func() aludsl.Expr { return &aludsl.Ident{Name: "a", Class: aludsl.VarField, Index: 0} }
	b := func() aludsl.Expr { return &aludsl.Ident{Name: "b", Class: aludsl.VarField, Index: 1} }
	helper := func(body aludsl.Expr, args ...aludsl.Expr) aludsl.Expr {
		return &aludsl.Call{Func: &aludsl.FuncDef{Name: "helper", Params: []string{"op0"}, Body: body}, Args: args}
	}
	hand := func(kind aludsl.ALUKind, ret aludsl.Expr) *aludsl.Program {
		p := &aludsl.Program{Name: "hand", Kind: kind, PacketFields: []string{"a", "b"}}
		if kind == aludsl.Stateful {
			p.StateVars = []string{"s"}
			p.Body = []aludsl.Stmt{&aludsl.Assign{LHS: &aludsl.Ident{Name: "s", Class: aludsl.VarState}, RHS: ret}}
		} else {
			p.Body = []aludsl.Stmt{&aludsl.Return{Value: ret}}
		}
		return p
	}
	cases := []struct {
		name string
		kind aludsl.ALUKind
		ret  aludsl.Expr
		want string
	}{
		{"hole call hidden in a helper", aludsl.Stateless,
			helper(&aludsl.HoleCall{Builtin: aludsl.BuiltinC, Hole: "hidden"}), `missing machine code pair for "hidden"`},
		{"hole variable hidden in a helper", aludsl.Stateless,
			helper(&aludsl.Ident{Name: "hv", Class: aludsl.VarHole}), `missing machine code pair for "hv"`},
		{"unresolved identifier", aludsl.Stateless,
			&aludsl.Ident{Name: "ghost"}, `unresolved identifier "ghost"`},
		{"operand index past the packet fields", aludsl.Stateless,
			&aludsl.Ident{Name: "c", Class: aludsl.VarField, Index: 2}, `identifier "c": index 2 out of range [0,2)`},
		{"state index past the state variables", aludsl.Stateful,
			&aludsl.Ident{Name: "t", Class: aludsl.VarState, Index: 1}, `identifier "t": index 1 out of range [0,1)`},
		{"helper parameter past the call's arguments", aludsl.Stateless,
			helper(&aludsl.Ident{Name: "op1", Class: aludsl.VarParam, Index: 1}, a()), `identifier "op1": index 1 out of range [0,1)`},
		{"unknown unary operator", aludsl.Stateless,
			&aludsl.Unary{Op: 7, X: a()}, "unknown unary operator 7"},
		{"unknown binary operator", aludsl.Stateless,
			&aludsl.Binary{Op: 99, X: a(), Y: b()}, "unknown binary operator 99"},
		{"unknown binary operator on constants", aludsl.Stateless,
			&aludsl.Binary{Op: 99, X: &aludsl.Num{Value: 1}, Y: &aludsl.Num{Value: 2}}, "unknown binary operator 99"},
	}
	prog := mustDomino(t, `transaction { pkt.a = pkt.a + 1; }`)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := core.Spec{Depth: 1, Width: 1, StatelessALU: hand(aludsl.Stateless, a())}
			sel := int64(1) // container 0 <- the stateless ALU
			if tc.kind == aludsl.Stateful {
				s.StatefulALU, sel = hand(tc.kind, tc.ret), 2
			} else {
				s.StatelessALU = hand(tc.kind, tc.ret)
			}
			code := zeroCode(t, s)
			code.Set(machinecode.OutputMuxName(0, 0), sel)
			res, err := Equivalence(s, code, prog, domino.FieldMap{"a": 0}, Options{Bits: 4, Steps: 1})
			where := fmt.Sprintf("stage 0 %s ALU 0: ", tc.kind)
			if err == nil || !strings.Contains(err.Error(), where) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Equivalence = %v, %v; want an error naming %q with %q", res, err, where, tc.want)
			}
		})
	}
}

// TestCellsShareOneProblem: the cells of a campaign job prove on one Problem
// at once, every width from its one linked program. Eight goroutines proving
// the widths each in its own order get the verdicts and gate counts of a
// Problem that proved them one at a time.
func TestCellsShareOneProblem(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	r, err := bm.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	newProblem := func() *Problem {
		p, err := NewProblem(r.Spec, r.Code, r.Program, bm.Fields, Options{Containers: r.Containers, MaxInput: bm.MaxInput})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	type verdict struct {
		equivalent  bool
		vars, gates int
	}
	prove := func(p *Problem, bits int) (verdict, error) {
		res, err := p.Prove(context.Background(), bits, 2)
		if err != nil {
			return verdict{}, err
		}
		return verdict{res.Equivalent, res.Vars, res.GatesBuilt}, nil
	}
	widths := []int{4, 5, 8, 10}
	want := map[int]verdict{}
	alone := newProblem()
	for _, bits := range widths {
		if want[bits], err = prove(alone, bits); err != nil {
			t.Fatal(err)
		}
	}
	shared := newProblem()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range widths {
				bits := widths[(g+i)%len(widths)]
				if got, err := prove(shared, bits); err != nil || got != want[bits] {
					t.Errorf("goroutine %d, %d bits: %+v, %v; alone %+v", g, bits, got, err, want[bits])
				}
			}
		}(g)
	}
	wg.Wait()
}
