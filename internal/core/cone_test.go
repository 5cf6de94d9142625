package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"druzhba/internal/aludsl"
	"druzhba/internal/atoms"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
)

// coneGrid is a grid shape plus the machine code pairs that differ from the
// identity configuration (every value 0: all muxes select container 0 or
// pass through).
type coneGrid struct {
	depth, width, phvLen int
	atom                 string // stateful atom, "" for a stateless-only grid
	set                  map[string]int64
}

func (g coneGrid) build(t testing.TB) (Spec, *machinecode.Program) {
	t.Helper()
	s := Spec{Depth: g.depth, Width: g.width, PHVLen: g.phvLen, StatelessALU: atoms.MustLoad("stateless_full")}
	if g.atom != "" {
		s.StatefulALU = atoms.MustLoad(g.atom)
	}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	code := machinecode.New()
	for _, h := range req {
		code.Set(h.Name, 0)
	}
	for name, v := range g.set {
		if _, ok := code.Get(name); !ok {
			t.Fatalf("hand-built case sets %q, which the grid does not require", name)
		}
		code.Set(name, v)
	}
	return s, code
}

// coneCases are the hand-built liveness cases; live lists the ALUs the fused
// cone must keep, as stage/kind/slot in execution order.
var coneCases = []struct {
	name string
	grid coneGrid
	live []string
}{
	{
		name: "overwritten downstream without being read is dead",
		grid: coneGrid{depth: 2, width: 2, set: map[string]int64{
			machinecode.OutputMuxName(0, 1): 1, // c1 <- stage-0 stateless ALU 0
			machinecode.OutputMuxName(1, 1): 2, // c1 <- stage-1 stateless ALU 1, which reads c0 only
		}},
		live: []string{"1/stateless/1"},
	},
	{
		name: "pass-through chain keeps an upstream ALU live",
		grid: coneGrid{depth: 3, width: 1, atom: "raw", set: map[string]int64{
			machinecode.OutputMuxName(0, 0): 1,
		}},
		live: []string{"0/stateless/0"},
	},
	{
		name: "stateful ALU feeding only a dead container is dead",
		grid: coneGrid{depth: 2, width: 2, atom: "raw", set: map[string]int64{
			machinecode.OutputMuxName(0, 1): 3, // c1 <- stage-0 stateful ALU 0
			machinecode.OutputMuxName(1, 1): 1, // c1 <- stage-1 stateless ALU 0, which reads c0 only
		}},
		live: []string{"1/stateless/0"},
	},
	{
		name: "a live ALU's operand mux keeps its producer live",
		grid: coneGrid{depth: 2, width: 2, atom: "raw", set: map[string]int64{
			machinecode.OutputMuxName(0, 1):            3,
			machinecode.OutputMuxName(1, 1):            1,
			machinecode.OperandMuxName(1, false, 0, 1): 1, // ... which now reads c1
		}},
		live: []string{"0/stateful/0", "1/stateless/0"},
	},
	{
		name: "a grid with every ALU selected prunes nothing",
		grid: coneGrid{depth: 2, width: 1, phvLen: 2, atom: "raw", set: map[string]int64{
			machinecode.OutputMuxName(0, 0):            1,
			machinecode.OutputMuxName(0, 1):            2,
			machinecode.OutputMuxName(1, 0):            1,
			machinecode.OutputMuxName(1, 1):            2,
			machinecode.OperandMuxName(1, false, 0, 1): 1, // stage 1 reads both containers
		}},
		live: []string{"0/stateless/0", "0/stateful/0", "1/stateless/0", "1/stateful/0"},
	},
}

// liveList names the ALUs a fused program contains, in execution order.
func liveList(f *Fused) []string {
	var out []string
	for si, stage := range f.live {
		for latch, l := range stage {
			if l {
				out = append(out, fmt.Sprintf("%d/%s/%d", si, machinecode.KindName(latch >= f.width), latch%f.width))
			}
		}
	}
	return out
}

func TestOutputConeLiveness(t *testing.T) {
	for _, tc := range coneCases {
		t.Run(tc.name, func(t *testing.T) {
			s, code := tc.grid.build(t)
			for _, level := range []OptLevel{SCCPropagation, SCCInlining, Compiled} {
				p, err := Build(s, code, level)
				if err != nil {
					t.Fatal(err)
				}
				if got := liveList(p.Cone()); !reflect.DeepEqual(got, tc.live) {
					t.Errorf("%v: cone runs %v, want %v", level, got, tc.live)
				}
				if p.Clone().Cone() != p.Cone() {
					t.Errorf("%v: a clone does not share the fused cone", level)
				}
				grid := p.FuseGrid()
				if live, total := grid.ALUCounts(); live != total || total != len(liveList(grid)) {
					t.Errorf("%v: the fused grid runs %d of %d ALUs", level, live, total)
				}
				checkCone(t, s, code, level, rand.New(rand.NewSource(1)), 32)
			}
			ref, err := Build(s, code, Unoptimized)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Cone() != nil || ref.FuseGrid() != nil {
				t.Error("unoptimized: fused, though machine code resolves at run time")
			}
		})
	}
}

func TestExecutes(t *testing.T) {
	s, code := coneCases[2].grid.build(t)
	p, err := Build(s, code, Compiled)
	if err != nil {
		t.Fatal(err)
	}
	cone, grid := p.Cone(), p.FuseGrid()
	for si := 0; si < 2; si++ {
		for slot := 0; slot < 2; slot++ {
			for _, stateful := range []bool{false, true} {
				if !grid.Executes(si, stateful, slot) {
					t.Errorf("fused grid does not execute %d/%v/%d", si, stateful, slot)
				}
				want := si == 1 && !stateful && slot == 0
				if got := cone.Executes(si, stateful, slot); got != want {
					t.Errorf("cone.Executes(%d, %v, %d) = %v, want %v", si, stateful, slot, got, want)
				}
			}
		}
	}
	if executed, total := cone.ALUCounts(); executed != 1 || total != 8 {
		t.Errorf("cone.ALUCounts() = %d, %d; want 1, 8", executed, total)
	}
	if executed, total := grid.ALUCounts(); executed != 8 || total != 8 {
		t.Errorf("grid.ALUCounts() = %d, %d; want 8, 8", executed, total)
	}
	if grid.Executes(2, false, 0) || grid.Executes(0, false, 2) || grid.Executes(-1, false, 0) || grid.Executes(0, true, -1) {
		t.Error("Executes accepted coordinates outside the grid")
	}
}

// TestLinkedIsMemoisedPerCone: Linked builds once per key and cone, for the
// cone and every clone of its pipeline, and InputReg names the registers
// Inputs hands out.
func TestLinkedIsMemoisedPerCone(t *testing.T) {
	s, code := coneCases[2].grid.build(t)
	p, err := Build(s, code, Compiled)
	if err != nil {
		t.Fatal(err)
	}
	builds := 0
	link := func() any { builds++; return builds }
	for _, key := range []any{"a", "b", "a", nil} {
		p.Clone().Cone().Linked(key, link)
	}
	if got := p.Cone().Linked("b", link); got != 2 || builds != 3 {
		t.Errorf("Linked(b) = %v after %d builds, want the second of 3", got, builds)
	}
	// Runners of one job ask at once: one build, every caller gets it.
	var calls atomic.Int32
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Clone().Cone().Linked("c", func() any { return calls.Add(1) })
		}()
	}
	wg.Wait()
	for _, v := range got {
		if v != int32(1) || calls.Load() != 1 {
			t.Fatalf("concurrent Linked: %v after %d builds, want 1 from one", got, calls.Load())
		}
	}
	cone := p.Cone()
	frame := cone.NewFrame()
	for c, v := range cone.Inputs(frame) {
		if &frame[cone.InputReg(c)] != &cone.Inputs(frame)[c] || v != 0 {
			t.Errorf("InputReg(%d) = %d is not the register Inputs hands out", c, cone.InputReg(c))
		}
	}
}

// runFused drives a fused program the way package sim does — state loaded
// from p, one Run per packet on a private frame, state stored back — and
// returns the output PHVs.
func runFused(f *Fused, p *Pipeline, packets [][]phv.Value) [][]phv.Value {
	frame := f.NewFrame()
	f.LoadState(frame, p)
	out := make([][]phv.Value, len(packets))
	for i, vals := range packets {
		copy(f.Inputs(frame), vals)
		f.Run(frame)
		out[i] = make([]phv.Value, len(vals))
		for c, r := range f.Out() {
			out[i][c] = frame[r]
		}
	}
	f.StoreState(frame, p)
	return out
}

// checkCone asserts the fused programs against the naive reference for one
// grid, machine code and prechecked level over n random packets. The
// reference is ExecuteStage at Unoptimized (Process per packet). Under both
// livenesses the fused program's output PHVs equal the reference's on every
// packet; with everything pinned (FuseGrid) every stateful ALU ends in the
// reference's state; on the output cone every live stateful ALU does and
// every dead one's state is untouched. ExecuteStage at the level itself — the
// stage programs — must agree too, outputs and every stateful ALU's state.
// State starts from random nonzero values so "untouched" is distinguishable
// from "ran on zeros".
func checkCone(t testing.TB, s Spec, code *machinecode.Program, level OptLevel, rng *rand.Rand, n int) {
	t.Helper()
	master, err := Build(s, code, level)
	if err != nil {
		t.Fatalf("Build(%v): %v", level, err)
	}
	ref, err := Build(s, code, Unoptimized)
	if err != nil {
		t.Fatalf("Build(unoptimized): %v", err)
	}
	mask := master.Bits().Mask()
	initial := master.StateSnapshot()
	for _, stage := range initial {
		for _, vals := range stage {
			for i := range vals {
				vals[i] = rng.Int63() & mask
			}
		}
	}
	seed := func(p *Pipeline) *Pipeline {
		for si, stage := range initial {
			for slot, vals := range stage {
				if err := p.SetState(si, slot, vals); err != nil {
					t.Fatal(err)
				}
			}
		}
		return p
	}
	packets := make([][]phv.Value, n)
	for i := range packets {
		packets[i] = make([]phv.Value, master.PHVLen())
		for c := range packets[i] {
			packets[i][c] = rng.Int63() & mask
		}
	}
	interpret := func(p *Pipeline) [][]phv.Value {
		out := make([][]phv.Value, n)
		for i, vals := range packets {
			o, err := p.Process(phv.FromValues(vals))
			if err != nil {
				t.Fatalf("%v: ExecuteStage: %v", p.Level(), err)
			}
			out[i] = o.Values()
		}
		return out
	}
	want := interpret(seed(ref))
	wantState := ref.StateSnapshot()

	same := seed(master.Clone())
	if got := interpret(same); !reflect.DeepEqual(got, want) || !same.StateSnapshot().Equal(wantState) {
		t.Fatalf("%v: ExecuteStage diverges from the unoptimized reference\ncode:\n%s", level, code)
	}
	for _, fused := range []struct {
		name string
		f    *Fused
	}{{"cone", master.Cone()}, {"grid", master.FuseGrid()}} {
		p := seed(master.Clone())
		got := runFused(fused.f, p, packets)
		for i := range packets {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%v %s: packet %d in %v: fused %v, reference %v\ncode:\n%s\nprogram:\n%s",
					level, fused.name, i, packets[i], got[i], want[i], code, fused.f)
			}
		}
		for si, stage := range p.StateSnapshot() {
			for slot, got := range stage {
				want, what := wantState[si][slot], "live"
				if !fused.f.Executes(si, true, slot) {
					want, what = initial[si][slot], "dead"
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %s: %s stateful ALU %d/%d ends in state %v, want %v", level, fused.name, what, si, slot, got, want)
				}
			}
		}
	}
}

// coneAtoms are the stateful-ALU choices of the random grids: none, then
// every stateful atom.
var coneAtoms = append([]string{""}, atoms.StatefulNames()...)

var coneLevels = []OptLevel{SCCPropagation, SCCInlining, Compiled}

var coneWidths = []int{4, 32}

// TestOutputConeProperty is the seeded property test: random grids (depth
// and width up to 4, with and without stateful ALUs), random valid machine
// code, every prechecked level, datapath widths 4 and 32.
func TestOutputConeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	pruned, kept := 0, 0
	for trial := 0; trial < trials; trial++ {
		g := coneGrid{depth: 1 + rng.Intn(4), width: 1 + rng.Intn(4), atom: coneAtoms[rng.Intn(len(coneAtoms))]}
		if rng.Intn(3) == 0 {
			g.phvLen = 1 + rng.Intn(6)
		}
		s, code := g.build(t)
		s.Bits = phv.MustWidth(coneWidths[rng.Intn(len(coneWidths))])
		req, err := s.RequiredPairs()
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range req {
			if h.Domain > 0 {
				code.Set(h.Name, int64(rng.Intn(h.Domain)))
			} else {
				code.Set(h.Name, int64(rng.Intn(32)))
			}
		}
		level := coneLevels[rng.Intn(len(coneLevels))]
		checkCone(t, s, code, level, rng, 48)

		p, err := Build(s, code, level)
		if err != nil {
			t.Fatal(err)
		}
		live, total := p.Cone().ALUCounts()
		pruned += total - live
		kept += live
	}
	if pruned == 0 || kept == 0 {
		t.Fatalf("random grids exercised only one side: %d ALUs pruned, %d kept", pruned, kept)
	}
}

// encodeConeInput is the inverse of decodeConeInput for grids whose values
// all fit a byte: the hand-built cases become FuzzOutputCone's seeds.
func encodeConeInput(t testing.TB, g coneGrid, level, bits int) []byte {
	t.Helper()
	s, code := g.build(t)
	atom := 0
	for i, name := range coneAtoms {
		if name == g.atom {
			atom = i
		}
	}
	n, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{byte(g.depth - 1), byte(g.width - 1), byte(n.PHVLen - 1), byte(atom), byte(level), byte(bits)}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range req {
		v, _ := code.Get(h.Name)
		data = append(data, byte(v))
	}
	return data
}

// decodeConeInput derives a grid, a level, a datapath width and machine
// code from fuzz input: six header bytes, then one byte per required pair
// in RequiredPairs order (reduced into the pair's domain; immediates take
// the byte as is; missing bytes read 0).
func decodeConeInput(data []byte) (Spec, *machinecode.Program, OptLevel, bool) {
	if len(data) < 6 {
		return Spec{}, nil, 0, false
	}
	s := Spec{
		Depth:        1 + int(data[0])%4,
		Width:        1 + int(data[1])%4,
		PHVLen:       1 + int(data[2])%6,
		StatelessALU: atoms.MustLoad("stateless_full"),
	}
	if atom := coneAtoms[int(data[3])%len(coneAtoms)]; atom != "" {
		s.StatefulALU = atoms.MustLoad(atom)
	}
	level := coneLevels[int(data[4])%len(coneLevels)]
	s.Bits = phv.MustWidth(coneWidths[int(data[5])%len(coneWidths)])
	req, err := s.RequiredPairs()
	if err != nil {
		return Spec{}, nil, 0, false
	}
	code := machinecode.New()
	for i, h := range req {
		var v int64
		if 6+i < len(data) {
			v = int64(data[6+i])
		}
		if h.Domain > 0 {
			v %= int64(h.Domain)
		}
		code.Set(h.Name, v)
	}
	return s, code, level, true
}

// FuzzOutputCone asserts the fused programs — cone, grid and stage programs —
// against the AST interpreter (checkCone: outputs and state) over 64 packets for grids,
// levels and machine code derived from the fuzz input; whatever Spec.Validate
// rejects is not a pipeline and is skipped.
func FuzzOutputCone(f *testing.F) {
	for _, tc := range coneCases {
		for level := range coneLevels {
			f.Add(encodeConeInput(f, tc.grid, level, level%len(coneWidths)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, code, level, ok := decodeConeInput(data)
		if !ok {
			t.Skip("input too short for a grid header")
		}
		if errs := s.Validate(code); len(errs) > 0 {
			t.Skip("machine code the spec rejects")
		}
		var seed int64
		for _, b := range data {
			seed = seed*131 + int64(b)
		}
		checkCone(t, s, code, level, rand.New(rand.NewSource(seed)), 64)
	})
}

// TestConeInputRoundTrip pins the seed encoding: a hand-built case decodes
// to the grid and machine code it was encoded from.
func TestConeInputRoundTrip(t *testing.T) {
	for _, tc := range coneCases {
		wantSpec, wantCode := tc.grid.build(t)
		s, code, level, ok := decodeConeInput(encodeConeInput(t, tc.grid, 2, 0))
		if !ok || level != Compiled || s.Depth != wantSpec.Depth || s.Width != wantSpec.Width || code.String() != wantCode.String() {
			t.Errorf("%s: seed does not round-trip (ok=%v level=%v %dx%d)", tc.name, ok, level, s.Depth, s.Width)
		}
	}
}

// The atoms all end in a single return and use no unary or logical operator,
// so these two ALUs carry the rest of the language through the lowering:
// early returns from nested branches (every return path writes one result
// register), a body that falls off its end (the implicit output: state_0, or
// 0 for a stateless ALU), unary minus and not, short-circuit && and || whose
// right operand would change the result if evaluated eagerly, and state that
// is read after it was written.
const (
	earlyReturnStatefulSrc = `
type: stateful
state variables: {state_0, state_1}
hole variables: {}
packet fields: {pkt_0, pkt_1}
if (pkt_0 < C() && !(pkt_1 == 3)) {
    state_0 = state_0 + 1;
    return -pkt_1;
}
if (pkt_0 > pkt_1 || state_1 / (pkt_0 - pkt_1) != 0) {
    state_1 = state_1 * 3 - pkt_0 / Opt(pkt_1) % 7;
    if (state_1 >= 100) {
        return state_1;
    } else {
        return Mux2(state_0, pkt_0) <= 5;
    }
}
state_0 = state_1 + state_0;
`
	earlyReturnStatelessSrc = `
type: stateless
state variables: {}
hole variables: {}
packet fields: {pkt_0, pkt_1}
if (pkt_0 == C() || pkt_1 != Mux2(pkt_0, C())) {
    return !pkt_0 + -pkt_1;
}
`
)

func TestFusedCoversTheALULanguage(t *testing.T) {
	stateful, err := aludsl.Parse(earlyReturnStatefulSrc)
	if err != nil {
		t.Fatal(err)
	}
	stateless, err := aludsl.Parse(earlyReturnStatelessSrc)
	if err != nil {
		t.Fatal(err)
	}
	stateful.Name, stateless.Name = "early_stateful", "early_stateless"
	rng := rand.New(rand.NewSource(7))
	s := Spec{Depth: 3, Width: 2, StatefulALU: stateful, StatelessALU: stateless, Bits: phv.MustWidth(6)}
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for trial := 0; trial < 40; trial++ {
		code := machinecode.New()
		for _, h := range req {
			v := int64(rng.Intn(8))
			if h.Domain > 0 {
				v = int64(rng.Intn(h.Domain))
			}
			code.Set(h.Name, v)
		}
		for _, level := range coneLevels {
			checkCone(t, s, code, level, rng, 64)
		}
		p, err := Build(s, code, Compiled)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := p.Cone().ALUCounts()
		live += n
		if listing := p.Cone().String(); n > 0 && listing == "" {
			t.Fatalf("the compiled cone of %d live ALUs disassembles to nothing", n)
		}
	}
	if live == 0 {
		t.Fatal("no trial kept one of the hand-written ALUs live")
	}
}

// TestHelperCallsLowerAsTheyRun: a hand-built ALU body may call helpers,
// and a call must lower as the interpreter runs it — every argument evaluated
// in the caller's frame, then the body in a frame of those values. The
// builtins make no helpers, so these are hand-built: one calls another on an
// expression of its parameters, one ignores two of its arguments (one of them
// a call), a logical operator is an argument, and a call is assigned to the
// state it reads.
func TestHelperCallsLowerAsTheyRun(t *testing.T) {
	field := func(i int) aludsl.Expr {
		return &aludsl.Ident{Name: fmt.Sprintf("pkt_%d", i), Class: aludsl.VarField, Index: i}
	}
	param := func(i int) aludsl.Expr {
		return &aludsl.Ident{Name: fmt.Sprintf("op%d", i), Class: aludsl.VarParam, Index: i}
	}
	bin := func(op aludsl.BinOp, x, y aludsl.Expr) aludsl.Expr { return &aludsl.Binary{Op: op, X: x, Y: y} }
	call := func(f *aludsl.FuncDef, args ...aludsl.Expr) aludsl.Expr { return &aludsl.Call{Func: f, Args: args} }
	twice := &aludsl.FuncDef{Name: "twice", Params: []string{"op0"}, Body: bin(aludsl.OpAdd, param(0), param(0))}
	second := &aludsl.FuncDef{Name: "second", Params: []string{"op0", "op1", "op2"}, Body: param(1)}
	outer := &aludsl.FuncDef{Name: "outer", Params: []string{"op0", "op1"},
		Body: bin(aludsl.OpMul, call(twice, bin(aludsl.OpSub, param(0), param(1))), param(1))}

	parse := func(src string) *aludsl.Program {
		p, err := aludsl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	stateless := parse("type: stateless\nstate variables: {}\nhole variables: {}\npacket fields: {pkt_0, pkt_1}\nreturn pkt_0;\n")
	stateless.Name = "helpers_stateless"
	stateless.Body = []aludsl.Stmt{&aludsl.Return{Value: call(outer,
		call(second, bin(aludsl.OpDiv, field(0), field(1)), field(1), call(twice, field(0))),
		bin(aludsl.OpAnd, field(1), field(0)))}}
	stateful := parse("type: stateful\nstate variables: {state_0}\nhole variables: {}\npacket fields: {pkt_0}\nreturn pkt_0;\n")
	stateful.Name = "helpers_stateful"
	state := &aludsl.Ident{Name: "state_0", Class: aludsl.VarState}
	stateful.Body = []aludsl.Stmt{&aludsl.Assign{LHS: state, RHS: call(outer, state, bin(aludsl.OpAdd, field(0), call(twice, state)))}}

	s := Spec{Depth: 2, Width: 2, StatelessALU: stateless, StatefulALU: stateful, Bits: phv.MustWidth(8)}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		code := randomValidCode(t, &s, rng)
		for _, level := range coneLevels {
			checkCone(t, s, code, level, rng, 64)
		}
	}
}
