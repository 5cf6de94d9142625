package verify

import (
	"math/rand"
	"strings"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/bv"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
)

// runSymbolicConst executes one ALU program symbolically with constant
// inputs and reads the folded output and post-state; the formula never
// reaches the solver because constants fold away.
func runSymbolicConst(t *testing.T, prog *aludsl.Program, holes map[string]int64,
	w phv.Width, operands, state []int64) (int64, []int64) {
	t.Helper()
	b := bv.NewBuilder(sat.New())
	bits := w.Bits()
	e := &symALU{
		b:      b,
		bits:   bits,
		w:      w,
		lookup: aludsl.MapLookup(holes),
		kind:   prog.Kind,
	}
	for _, v := range operands {
		e.operands = append(e.operands, b.Const(bits, v))
	}
	for _, v := range state {
		e.state = append(e.state, b.Const(bits, v))
	}
	out, err := e.run(prog)
	if err != nil {
		t.Fatalf("symbolic run: %v", err)
	}
	ov, ok := b.ConstValue(out)
	if !ok {
		t.Fatal("constant inputs did not fold to a constant output")
	}
	newState := make([]int64, len(e.state))
	for i, vec := range e.state {
		sv, ok := b.ConstValue(vec)
		if !ok {
			t.Fatalf("state %d did not fold", i)
		}
		newState[i] = sv
	}
	return ov, newState
}

// TestSymbolicALUMatchesInterpreter grounds the reference the verifier's cone
// is validated against (TestConeMatchesReference): for every atom in the
// library, with random in-domain machine code and random operands/state, the
// symbolic executor and the concrete ALU DSL interpreter must produce
// identical outputs and state updates.
func TestSymbolicALUMatchesInterpreter(t *testing.T) {
	w := phv.MustWidth(6)
	rng := rand.New(rand.NewSource(20))
	for _, name := range atoms.Names() {
		prog := atoms.MustLoad(name)
		t.Run(name, func(t *testing.T) {
			for iter := 0; iter < 200; iter++ {
				holes := map[string]int64{}
				for _, h := range prog.Holes {
					if h.Domain > 0 {
						holes[h.Name] = rng.Int63n(int64(h.Domain))
					} else {
						holes[h.Name] = rng.Int63n(w.Mask() + 1)
					}
				}
				operands := make([]int64, prog.NumOperands())
				for i := range operands {
					operands[i] = rng.Int63n(w.Mask() + 1)
				}
				state := make([]int64, prog.NumState())
				for i := range state {
					state[i] = rng.Int63n(w.Mask() + 1)
				}

				symOut, symState := runSymbolicConst(t, prog, holes, w,
					append([]int64(nil), operands...), append([]int64(nil), state...))

				env := &aludsl.Env{
					Width:    w,
					Operands: append([]int64(nil), operands...),
					State:    append([]int64(nil), state...),
					Holes:    aludsl.MapLookup(holes),
				}
				concOut, err := aludsl.Run(prog, env)
				if err != nil {
					t.Fatalf("iter %d: interpreter: %v", iter, err)
				}
				if symOut != concOut {
					t.Fatalf("iter %d (holes %v, ops %v, state %v): output symbolic %d, concrete %d",
						iter, holes, operands, state, symOut, concOut)
				}
				for i := range state {
					if symState[i] != env.State[i] {
						t.Fatalf("iter %d: state[%d] symbolic %d, concrete %d",
							iter, i, symState[i], env.State[i])
					}
				}
			}
		})
	}
}

// TestSymbolicALUMissingHole: a hole absent from the machine code is an
// error of the reference, mirroring the interpreter's EvalError.
func TestSymbolicALUMissingHole(t *testing.T) {
	prog := atoms.MustLoad("if_else_raw")
	w := phv.MustWidth(4)
	b := bv.NewBuilder(sat.New())
	e := &symALU{
		b:      b,
		bits:   4,
		w:      w,
		lookup: aludsl.MapLookup(map[string]int64{}),
		kind:   prog.Kind,
		operands: []bv.Vec{
			b.Const(4, 1), b.Const(4, 2),
		},
		state: []bv.Vec{b.Const(4, 0)},
	}
	if _, err := e.run(prog); err == nil {
		t.Fatal("missing machine code pair should fail symbolic execution")
	}
}

// TestSymbolicALURefusesWhatTheTableRefuses: the reference applies the
// builtin table's choice, so an out-of-domain Opt value and a call with the
// wrong number of arguments are errors naming the hole, like the
// interpreter's, not a 0 and not an index past the arguments.
func TestSymbolicALURefusesWhatTheTableRefuses(t *testing.T) {
	run := func(prog *aludsl.Program, holes map[string]int64) error {
		b := bv.NewBuilder(sat.New())
		e := &symALU{
			b: b, bits: 4, w: phv.MustWidth(4),
			lookup:   aludsl.MapLookup(holes),
			kind:     prog.Kind,
			operands: []bv.Vec{b.Const(4, 1), b.Const(4, 2)},
		}
		_, err := e.run(prog)
		return err
	}
	opt := aludsl.MustParse("type: stateless\npacket fields: {a, b}\nreturn Opt(a);")
	if err := run(opt, map[string]int64{"opt_0": 2}); err == nil || !strings.Contains(err.Error(), `hole "opt_0": Opt value 2 out of range [0,2)`) {
		t.Errorf("Opt with value 2: %v, want the out-of-domain error", err)
	}
	short := aludsl.MustParse("type: stateless\npacket fields: {a, b}\nreturn rel_op(a, b);")
	call := short.Body[0].(*aludsl.Return).Value.(*aludsl.HoleCall)
	call.Args = call.Args[:1]
	if err := run(short, map[string]int64{"rel_op_0": aludsl.RelLe}); err == nil || !strings.Contains(err.Error(), "takes 2 argument(s), got 1") {
		t.Errorf("rel_op with one argument: %v, want the arity error", err)
	}
}

// TestSymbolicALUWithSymbolicInputs solves for an input that drives a
// chosen atom to a chosen output, then confirms it concretely — the
// solver-side dual of the constant-folding test.
func TestSymbolicALUWithSymbolicInputs(t *testing.T) {
	// raw atom with Mux2 -> pkt_0, i.e. state_0 += pkt_0; find pkt_0 with
	// state 3 -> 11.
	prog := atoms.MustLoad("raw")
	holes := map[string]int64{"mux2_0": 0, "const_0": 0}
	w := phv.MustWidth(5)
	b := bv.NewBuilder(sat.New())
	in := b.Var(5)
	e := &symALU{
		b: b, bits: 5, w: w,
		lookup:   aludsl.MapLookup(holes),
		kind:     prog.Kind,
		operands: []bv.Vec{in},
		state:    []bv.Vec{b.Const(5, 3)},
	}
	out, err := e.run(prog)
	if err != nil {
		t.Fatal(err)
	}
	b.AssertEq(out, b.Const(5, 11))
	if got := b.Solve(); got != sat.Sat {
		t.Fatalf("solve: %v", got)
	}
	v := b.Value(in)
	if (3+v)&0x1f != 11 {
		t.Fatalf("solver chose pkt_0 = %d; 3+%d != 11 mod 32", v, v)
	}
	env := &aludsl.Env{Width: w, Operands: []int64{v}, State: []int64{3}, Holes: aludsl.MapLookup(holes)}
	conc, err := aludsl.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if conc != 11 {
		t.Fatalf("concrete replay: output %d, want 11", conc)
	}
}

// TestBinaryOperatorEnumerations pins symALU.binOp to the interpreter: for
// each of the ALU DSL's thirteen binary operators it folds, on constants, to
// what aludsl.ApplyBinOp computes, and the operator past them is neither the
// DSL's nor the table's.
func TestBinaryOperatorEnumerations(t *testing.T) {
	w := phv.MustWidth(4)
	b := bv.NewBuilder(sat.New())
	e := &symALU{b: b, bits: w.Bits(), w: w}
	binOp := func(op aludsl.BinOp, x, y int64) (v int64, ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		return b.ConstValue(e.binOp(op, b.Const(w.Bits(), x), b.Const(w.Bits(), y)))
	}
	const ops = 13
	for op := aludsl.BinOp(0); op < ops; op++ {
		if !op.Valid() {
			t.Fatalf("aludsl has no binary operator %d", int(op))
		}
		for _, xy := range [][2]int64{{9, 3}, {3, 9}, {5, 5}, {7, 0}, {0, 0}, {15, 2}} {
			got, ok := binOp(op, xy[0], xy[1])
			if want := aludsl.ApplyBinOp(w, op, xy[0], xy[1]); !ok || got != want {
				t.Errorf("%d %v %d: symALU %d (folded %v), interpreter %d", xy[0], op, xy[1], got, ok, want)
			}
		}
	}
	if next := aludsl.BinOp(ops); next.Valid() {
		t.Errorf("aludsl has a binary operator %d beyond the table", int(next))
	}
	if _, ok := binOp(ops, 9, 3); ok {
		t.Errorf("symALU accepts operator %d, which the ALU DSL does not have", ops)
	}
}
