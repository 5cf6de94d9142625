package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

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

// coneCases are the hand-built liveness cases; live lists the ALUs an
// OutputCone must keep, as stage/kind/slot in run order.
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

func runList(p *Pipeline) []string {
	var out []string
	for si, st := range p.stages {
		for _, a := range st.run {
			out = append(out, fmt.Sprintf("%d/%s/%d", si, machinecode.KindName(a.stateful), a.slot))
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
				total := len(runList(p))
				cone := p.OutputCone()
				if got := runList(cone); !reflect.DeepEqual(got, tc.live) {
					t.Errorf("%v: cone runs %v, want %v", level, got, tc.live)
				}
				if got := runList(cone.Clone()); !reflect.DeepEqual(got, tc.live) {
					t.Errorf("%v: a clone of the cone runs %v, want %v", level, got, tc.live)
				}
				if got := runList(cone.OutputCone()); !reflect.DeepEqual(got, tc.live) {
					t.Errorf("%v: the cone of the cone runs %v, want %v", level, got, tc.live)
				}
				if got := len(runList(p)); got != total {
					t.Errorf("%v: OutputCone pruned its receiver: %d of %d ALUs left", level, got, total)
				}
				checkCone(t, s, code, level, rand.New(rand.NewSource(1)), 32)
			}
			ref, err := Build(s, code, Unoptimized)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(runList(ref.OutputCone())), len(runList(ref)); got != want {
				t.Errorf("unoptimized: cone runs %d of %d ALUs, want all (machine code resolves at run time)", got, want)
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
	cone := p.OutputCone()
	for si := 0; si < 2; si++ {
		for slot := 0; slot < 2; slot++ {
			for _, stateful := range []bool{false, true} {
				if !p.Executes(si, stateful, slot) {
					t.Errorf("built pipeline does not execute %d/%v/%d", si, stateful, slot)
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
	if executed, total := p.ALUCounts(); executed != 8 || total != 8 {
		t.Errorf("ALUCounts() = %d, %d; want 8, 8", executed, total)
	}
	if p.Executes(2, false, 0) || p.Executes(0, false, 2) || p.Executes(-1, false, 0) || p.Executes(0, true, -1) {
		t.Error("Executes accepted coordinates outside the grid")
	}
}

// The two stage executors, each driven the way its engine in package sim
// drives it: ExecuteStage per packet (Process; the tick loop's sweep visits
// each packet's stages in the same order), ExecuteStageBatch per packet
// vector (the plane engine).
var coneExecutors = []struct {
	name string
	run  func(p *Pipeline, packets [][]phv.Value) ([][]phv.Value, error)
}{
	{"ExecuteStage", func(p *Pipeline, packets [][]phv.Value) ([][]phv.Value, error) {
		out := make([][]phv.Value, len(packets))
		for i, vals := range packets {
			o, err := p.Process(phv.FromValues(vals))
			if err != nil {
				return nil, err
			}
			out[i] = o.Values()
		}
		return out, nil
	}},
	{"ExecuteStageBatch", func(p *Pipeline, packets [][]phv.Value) ([][]phv.Value, error) {
		n := len(packets)
		sc, err := p.NewBatchScratch(n)
		if err != nil {
			return nil, err
		}
		planes := func() [][]phv.Value {
			pl := make([][]phv.Value, p.PHVLen())
			for c := range pl {
				pl[c] = make([]phv.Value, n)
			}
			return pl
		}
		cur, next := planes(), planes()
		for k, vals := range packets {
			for c, v := range vals {
				cur[c][k] = v
			}
		}
		for si := 0; si < p.Depth(); si++ {
			p.ExecuteStageBatch(si, cur, next, sc, n)
			cur, next = next, cur
		}
		out := make([][]phv.Value, n)
		for k := range out {
			out[k] = make([]phv.Value, p.PHVLen())
			for c := range cur {
				out[k][c] = cur[c][k]
			}
		}
		return out, nil
	}},
}

// checkCone asserts the cone property for one grid, machine code and
// prechecked level over n random packets: under each of the two stage
// executors the cone's output PHVs equal the full pipeline's and the
// Unoptimized reference's on every packet, every live stateful ALU ends in
// the full pipeline's state, and every dead one's state is untouched. State
// starts from random nonzero values so "untouched" is distinguishable from
// "ran on zeros".
func checkCone(t testing.TB, s Spec, code *machinecode.Program, level OptLevel, rng *rand.Rand, n int) {
	t.Helper()
	fullMaster, err := Build(s, code, level)
	if err != nil {
		t.Fatalf("Build(%v): %v", level, err)
	}
	refMaster, err := Build(s, code, Unoptimized)
	if err != nil {
		t.Fatalf("Build(unoptimized): %v", err)
	}
	mask := fullMaster.Bits().Mask()
	initial := fullMaster.StateSnapshot()
	for _, stage := range initial {
		for _, vals := range stage {
			for i := range vals {
				vals[i] = rng.Int63() & mask
			}
		}
	}
	seed := func(p *Pipeline) {
		for si, stage := range initial {
			for slot, vals := range stage {
				if err := p.SetState(si, slot, vals); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	packets := make([][]phv.Value, n)
	for i := range packets {
		packets[i] = make([]phv.Value, fullMaster.PHVLen())
		for c := range packets[i] {
			packets[i][c] = rng.Int63() & mask
		}
	}
	ref := refMaster.Clone()
	seed(ref)
	want, err := coneExecutors[0].run(ref, packets)
	if err != nil {
		t.Fatalf("unoptimized reference: %v", err)
	}
	coneMaster := fullMaster.OutputCone()
	for _, ex := range coneExecutors {
		full, cone := fullMaster.Clone(), coneMaster.Clone()
		seed(full)
		seed(cone)
		gotFull, err := ex.run(full, packets)
		if err != nil {
			t.Fatalf("%s full: %v", ex.name, err)
		}
		gotCone, err := ex.run(cone, packets)
		if err != nil {
			t.Fatalf("%s cone: %v", ex.name, err)
		}
		for i := range packets {
			if !reflect.DeepEqual(gotFull[i], want[i]) {
				t.Fatalf("%v %s: packet %d in %v: full %v, unoptimized %v", level, ex.name, i, packets[i], gotFull[i], want[i])
			}
			if !reflect.DeepEqual(gotCone[i], want[i]) {
				t.Fatalf("%v %s: packet %d in %v: cone %v, full %v\ncode:\n%s", level, ex.name, i, packets[i], gotCone[i], want[i], code)
			}
		}
		fullState, coneState, refState := full.StateSnapshot(), cone.StateSnapshot(), ref.StateSnapshot()
		if !fullState.Equal(refState) {
			t.Fatalf("%v %s: full-grid state diverges from the unoptimized reference", level, ex.name)
		}
		for si := range coneState {
			for slot, got := range coneState[si] {
				want, what := fullState[si][slot], "live"
				if !cone.Executes(si, true, slot) {
					want, what = initial[si][slot], "dead"
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %s: %s stateful ALU %d/%d ends in state %v, want %v", level, ex.name, what, si, slot, got, want)
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
		live, total := len(runList(p.OutputCone())), len(runList(p))
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

// FuzzOutputCone asserts the cone property (checkCone) over 64 packets for
// grids and machine code derived from the fuzz input; whatever Spec.Validate
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
