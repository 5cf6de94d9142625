package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/spec"
)

// checkLower runs the whole grid as Spec.Lower lowers it from the machine code
// against ExecuteStage at Unoptimized (Process per packet) on n random
// packets from zero state: every output PHV and, at the end, every stateful
// ALU's state must be the reference's.
func checkLower(t *testing.T, name string, s core.Spec, code *machinecode.Program, rng *rand.Rand, n int) {
	t.Helper()
	read, err := s.Read(code)
	if err != nil {
		t.Fatal(err)
	}
	pinned := make([][]bool, len(read.ALUs))
	for si, alus := range read.ALUs {
		pinned[si] = slices.Repeat([]bool{true}, len(alus))
	}
	f, err := s.Lower(read, read.Muxes.Live(slices.Repeat([]bool{true}, len(read.Muxes.Output[0])), pinned))
	if err != nil {
		t.Fatalf("%s: Lower: %v", name, err)
	}
	ref, err := core.Build(s, code, core.Unoptimized)
	if err != nil {
		t.Fatal(err)
	}
	mask := ref.Bits().Mask()
	frame := f.NewFrame()
	for i := 0; i < n; i++ {
		in := make([]phv.Value, ref.PHVLen())
		for c := range in {
			in[c] = rng.Int63() & mask
		}
		want, err := ref.Process(phv.FromValues(in))
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Inputs(frame), in)
		f.Run(frame)
		for c, r := range f.Out() {
			if frame[r] != want.Get(c) {
				t.Fatalf("%s: packet %d %v: container %d is %d, reference %d\ncode:\n%s\nprogram:\n%s", name, i, in, c, frame[r], want.Get(c), code, f)
			}
		}
	}
	for si, stage := range ref.StateSnapshot() {
		for slot, want := range stage {
			r := f.StateReg(si, slot)
			if got := frame[r : r+len(want)]; !slices.Equal(got, want) {
				t.Fatalf("%s: stateful ALU %d/%d ends in state %v, reference %v", name, si, slot, got, want)
			}
		}
	}
}

// choicesTaken adds to taken the kind of every builtin choice, and every hole
// variable, that lowering prog with its machine code reaches: a selector's
// unpicked arguments are never lowered, an operator's operands always are.
func choicesTaken(prog *aludsl.Program, holes aludsl.HoleLookup, taken map[string]bool) {
	var expr func(e aludsl.Expr)
	expr = func(e aludsl.Expr) {
		switch e := e.(type) {
		case *aludsl.Ident:
			if e.Class == aludsl.VarHole {
				taken["hole variable"] = true
			}
		case *aludsl.Unary:
			expr(e.X)
		case *aludsl.Binary:
			expr(e.X)
			expr(e.Y)
		case *aludsl.HoleCall:
			mc, _ := holes(e.Hole)
			ch, _ := e.Choose(mc)
			switch {
			case ch.Kind == aludsl.ChooseZero:
				taken["zero"] = true
			case ch.Kind == aludsl.ChooseValue:
				taken["value"] = true
			case !ch.Strict:
				taken["selector"] = true
				expr(e.Args[ch.Arg])
			default:
				expr(e.Args[0])
				expr(e.Args[1])
				switch {
				case ch.Kind == aludsl.ChooseArg:
					taken["pass-through"] = true
				case ch.Op == aludsl.OpAnd || ch.Op == aludsl.OpOr:
					taken[ch.Op.String()] = true
				default:
					taken["operator"] = true
				}
			}
		}
	}
	var stmts func(list []aludsl.Stmt)
	stmts = func(list []aludsl.Stmt) {
		for _, s := range list {
			switch s := s.(type) {
			case *aludsl.Assign:
				expr(s.RHS)
			case *aludsl.Return:
				expr(s.Value)
			case *aludsl.If:
				expr(s.Cond)
				stmts(s.Then)
				stmts(s.Else)
			}
		}
	}
	stmts(prog.Body)
}

// randomCode is valid machine code for the pairs req names: a bounded pair's
// value drawn from its domain, an immediate from [0,64).
func randomCode(req []core.HoleSpec, rng *rand.Rand) *machinecode.Program {
	code := machinecode.New()
	for _, h := range req {
		v := rng.Int63n(64)
		if h.Domain > 0 {
			v = rng.Int63n(int64(h.Domain))
		}
		code.Set(h.Name, v)
	}
	return code
}

// atomGrid is a 2x2 grid of 6-bit ALUs over three containers: the stateless
// program beside the named stateful atom.
func atomGrid(stateless *aludsl.Program, stateful string) core.Spec {
	return core.Spec{Depth: 2, Width: 2, PHVLen: 3, Bits: phv.MustWidth(6), StatelessALU: stateless, StatefulALU: atoms.MustLoad(stateful)}
}

// TestEveryPrecheckedLevelIsOneLowering: scc, scc+inline and compiled build
// one pipeline. Its cone and its grid are, listing for listing and output
// register for output register, what Spec.Lower makes of the machine code
// Spec.Read returned, over the live set of every output container (plus
// every ALU, for the grid) — on the 12 Table-1 programs with their machine
// code, and on grids of the atom library under random machine code.
func TestEveryPrecheckedLevelIsOneLowering(t *testing.T) {
	check := func(name string, s core.Spec, code *machinecode.Program) {
		t.Helper()
		read, err := s.Read(code)
		if err != nil {
			t.Fatal(err)
		}
		out := slices.Repeat([]bool{true}, len(read.Muxes.Output[0]))
		pinned := make([][]bool, len(read.ALUs))
		for si, alus := range read.ALUs {
			pinned[si] = slices.Repeat([]bool{true}, len(alus))
		}
		cone, err := s.Lower(read, read.Muxes.Live(out, nil))
		if err != nil {
			t.Fatal(err)
		}
		grid, err := s.Lower(read, read.Muxes.Live(out, pinned))
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			p, err := core.Build(s, code, level)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				what      string
				got, want *core.Fused
			}{{"cone", p.Cone(), cone}, {"grid", p.FuseGrid(), grid}} {
				if f.got.String() != f.want.String() || !slices.Equal(f.got.Out(), f.want.Out()) {
					t.Errorf("%s %v: the %s, output in %v\n%s\nis not Spec.Lower's, output in %v\n%s",
						name, level, f.what, f.got.Out(), f.got, f.want.Out(), f.want)
				}
			}
		}
	}
	for _, bm := range spec.All() {
		s, code := fixture(t, bm)
		check(bm.Name, s, code)
	}
	rng := rand.New(rand.NewSource(45))
	stateless := atoms.StatelessNames()
	for i, name := range atoms.StatefulNames() {
		s := atomGrid(atoms.MustLoad(stateless[i%len(stateless)]), name)
		req, err := s.RequiredPairs()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			check(name, s, randomCode(req, rng))
		}
	}
}

// TestLowerMatchesExecuteStage: the lowering verify proves (Spec.Lower: every
// builtin's choice taken as the ALU is lowered, no SCC) computes what the
// reference executor computes — on the 12 Table-1 programs with their machine
// code, and on grids of every library atom, plus an ALU with a hole variable,
// under random machine code, which between them take every kind of choice.
func TestLowerMatchesExecuteStage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, bm := range spec.All() {
		s, code := fixture(t, bm)
		checkLower(t, bm.Name, s, code, rng, 200)
	}

	holeVar := aludsl.MustParse("type: stateless\nhole variables: {k}\npacket fields: {a, b}\nreturn Mux2(alu_op(a, k), k) + Opt(b);")
	holeVar.Name = "hole_var"
	stateless := []*aludsl.Program{holeVar}
	for _, name := range atoms.StatelessNames() {
		stateless = append(stateless, atoms.MustLoad(name))
	}
	taken := map[string]bool{}
	for i, name := range atoms.StatefulNames() {
		s := atomGrid(stateless[i%len(stateless)], name)
		req, err := s.RequiredPairs()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			code := randomCode(req, rng)
			checkLower(t, name, s, code, rng, 32)
			read, err := s.Read(code)
			if err != nil {
				t.Fatal(err)
			}
			for _, alus := range read.ALUs {
				for _, a := range alus {
					choicesTaken(a.Prog, a.Hole, taken)
				}
			}
		}
	}
	for _, kind := range []string{"zero", "value", "selector", "operator", "&&", "||", "pass-through", "hole variable"} {
		if !taken[kind] {
			t.Errorf("no grid lowered a %s choice", kind)
		}
	}
}

// TestLowerRefuses: Lower lowers nothing it cannot evaluate — machine code
// with errors, or an ALU in the kept set whose program fails
// aludsl.CheckTotal with that code, named by its place in the grid. An ALU
// outside the set is never looked at.
func TestLowerRefuses(t *testing.T) {
	bad := aludsl.MustParse("type: stateless\npacket fields: {a}\nreturn Opt(a);")
	bad.Body[0].(*aludsl.Return).Value.(*aludsl.HoleCall).Args = nil
	s := core.Spec{Depth: 1, Width: 2, StatelessALU: bad}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	read, err := s.Read(code)
	if err != nil {
		t.Fatal(err)
	}
	// lower returns Lower's error, which CheckLower must report alike.
	lower := func(s *core.Spec, live [][]bool) error {
		t.Helper()
		_, err := s.Lower(read, live)
		if checked := s.CheckLower(read, live); (err == nil) != (checked == nil) || err != nil && err.Error() != checked.Error() {
			t.Errorf("Lower refuses with %v, CheckLower with %v", err, checked)
		}
		return err
	}
	if err := lower(&s, [][]bool{{false, false}}); err != nil {
		t.Errorf("nothing kept: %v", err)
	}
	if err := lower(&s, [][]bool{{false, true}}); err == nil || err.Error() != `core: stage 0 stateless ALU 1: aludsl: hole "opt_0": Opt takes 1 argument(s), got 0` {
		t.Errorf("a kept ALU that cannot be evaluated: %v", err)
	}
	code.Set(req[0].Name, 7)
	if read, err = s.Read(code); err != nil {
		t.Fatal(err)
	}
	if err := lower(&s, [][]bool{{false, false}}); err == nil || err.Error() != read.Errs[0].Error() {
		t.Errorf("machine code with errors: %v, want %v", err, read.Errs)
	}
	if err := lower(&core.Spec{}, nil); err == nil {
		t.Error("a spec that describes no pipeline lowered")
	}
}
