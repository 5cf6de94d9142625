package spec

import (
	"fmt"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/sim"
)

// liveALUs is the output cone of every Table-1 fixture: ALUs that can reach
// a PHV container at the pipeline's output, of the depth x width x 2 grid.
// README's Performance section quotes this table.
var liveALUs = map[string][2]int{
	"blue-decrease":     {2, 16},
	"blue-increase":     {1, 16},
	"sampling":          {2, 4},
	"marple-new-flow":   {2, 8},
	"marple-tcp-nmo":    {2, 12},
	"snap-heavy-hitter": {1, 2},
	"stateful-firewall": {4, 40},
	"flowlets":          {4, 40},
	"learn-filter":      {9, 30},
	"rcp":               {4, 18},
	"conga":             {1, 10},
	"spam-detection":    {1, 2},
}

// TestTable1OutputCones pins the cone sizes: a liveness pass that prunes
// less than it can (or more than it may) moves a count.
func TestTable1OutputCones(t *testing.T) {
	sumLive, sumTotal := 0, 0
	for _, bm := range All() {
		for _, level := range []core.OptLevel{core.SCCPropagation, core.SCCInlining, core.Compiled} {
			p, err := bm.Pipeline(level)
			if err != nil {
				t.Fatal(err)
			}
			live, total := p.Cone().ALUCounts()
			if want := liveALUs[bm.Name]; live != want[0] || total != want[1] {
				t.Errorf("%s %v: cone runs %d of %d ALUs, want %d of %d", bm.Name, level, live, total, want[0], want[1])
			}
			if level == core.Compiled {
				sumLive, sumTotal = sumLive+live, sumTotal+total
			}
		}
	}
	if sumLive != 33 || sumTotal != 198 {
		t.Errorf("Table 1 cones run %d of %d ALUs, want 33 of 198", sumLive, sumTotal)
	}
}

// aluPairs lists the machine code pairs owned by the ALU at (stage, kind,
// slot) — operand muxes, then holes — with their domains.
func aluPairs(t *testing.T, s core.Spec, stage int, stateful bool, slot int) []core.HoleSpec {
	t.Helper()
	req, err := s.RequiredPairs()
	if err != nil {
		t.Fatal(err)
	}
	prefix := machinecode.ALUHoleName(stage, stateful, slot, "")
	var out []core.HoleSpec
	for _, h := range req {
		if len(h.Name) > len(prefix) && h.Name[:len(prefix)] == prefix {
			out = append(out, h)
		}
	}
	return out
}

// perturb returns a copy of code with one pair moved to the next value of
// its domain (immediates: +1), or nil when the domain has a single value.
func perturb(code *machinecode.Program, h core.HoleSpec) *machinecode.Program {
	if h.Domain == 1 {
		return nil
	}
	v, _ := code.Get(h.Name)
	v++
	if h.Domain > 0 {
		v %= int64(h.Domain)
	}
	out := code.Clone()
	out.Set(h.Name, v)
	return out
}

// TestPerturbedMachineCodeAgainstCone guards the fuzzer's output cone from
// both sides on every Table-1 program. A fuzzer that executes too little is
// blind: one machine code constant of a live ALU perturbed must still be
// caught within 4096 PHVs, at the index and with the records the full-grid
// recording run (sim.Run against sim.RunSpec) reports. And a cone that
// drops an ALU that matters is wrong: perturbing any constant of a dead ALU
// must change no output PHV of the full grid.
func TestPerturbedMachineCodeAgainstCone(t *testing.T) {
	const n = 4096
	for _, bm := range All() {
		t.Run(bm.Name, func(t *testing.T) {
			s, err := bm.Spec()
			if err != nil {
				t.Fatal(err)
			}
			code, err := bm.MachineCode()
			if err != nil {
				t.Fatal(err)
			}
			containers, err := bm.CompareContainers()
			if err != nil {
				t.Fatal(err)
			}
			good, err := core.Build(s, code, core.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			cone := good.Cone()
			newGen := func() *sim.TrafficGen { return sim.NewTrafficGen(1, good.PHVLen(), good.Bits(), bm.MaxInput) }
			input := newGen().Trace(n)
			clean, err := sim.Run(good, input)
			if err != nil {
				t.Fatal(err)
			}
			dspec, err := bm.SimSpec()
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunSpec(dspec, input)
			if err != nil {
				t.Fatal(err)
			}

			caught, dead := "", 0
			for stage := 0; stage < bm.Depth; stage++ {
				for _, stateful := range []bool{false, true} {
					for slot := 0; slot < bm.Width; slot++ {
						live := cone.Executes(stage, stateful, slot)
						if live && caught != "" {
							continue
						}
						pairs := aluPairs(t, s, stage, stateful, slot)
						if !live {
							// One pair per dead ALU, rotating through operand
							// muxes and holes across the grid.
							pairs = pairs[dead%len(pairs):][:1]
							dead++
						}
						for _, h := range pairs {
							wrongCode := perturb(code, h)
							if wrongCode == nil {
								continue
							}
							wrong, err := core.Build(s, wrongCode, core.Compiled)
							if err != nil {
								t.Fatalf("%s: %v", h.Name, err)
							}
							res, err := sim.Run(wrong, input)
							if err != nil {
								t.Fatalf("%s: %v", h.Name, err)
							}
							if !live {
								if d := clean.Output.Diff(res.Output); d != "" {
									t.Errorf("perturbing %s of a dead ALU changed the output: %s", h.Name, d)
								}
								continue
							}
							first := -1
							for i := 0; i < n && first < 0; i++ {
								for _, c := range containers {
									if res.Output.At(i).Get(c) != want.At(i).Get(c) {
										first = i
										break
									}
								}
							}
							rep, err := sim.NewFuzzer(wrong).FuzzGen(dspec, newGen(), n, sim.FuzzOptions{Containers: containers}, 1)
							if err != nil {
								t.Fatalf("%s: %v", h.Name, err)
							}
							if first < 0 {
								if !rep.Passed() {
									t.Errorf("%s: fuzzer reports %v, the full-grid run sees no difference", h.Name, rep)
								}
								continue
							}
							if rep.Passed() {
								t.Fatalf("%s perturbed: full-grid run diverges at PHV %d, the fuzzer saw nothing in %d PHVs", h.Name, first, rep.Checked)
							}
							if m := rep.Mismatches; rep.Err != nil || m[0].Index != first || !m[0].Got.Equal(res.Output.At(first)) || !m[0].Want.Equal(want.At(first)) {
								t.Fatalf("%s perturbed: fuzzer reports %v, full-grid run diverges at PHV %d: pipeline %s, spec %s",
									h.Name, rep, first, res.Output.At(first), want.At(first))
							}
							caught = fmt.Sprintf("%s (PHV %d)", h.Name, first)
							break
						}
					}
				}
			}
			if caught == "" {
				t.Errorf("no perturbation of a live ALU's machine code was caught within %d PHVs", n)
			}
			t.Logf("caught %s; %d dead ALUs perturbed without effect", caught, dead)
			if wantDead := liveALUs[bm.Name][1] - liveALUs[bm.Name][0]; dead != wantDead {
				t.Errorf("perturbed %d dead ALUs, want %d", dead, wantDead)
			}
		})
	}
}

// TestEmptyCompareSetIsNotAPass: comparing no container would bless any
// miscompile — the benchmark's canary (sampling with the stage-0 threshold 8
// where the specification says 9) used to report 4096 matching PHVs under
// Containers: []int{} on both fuzz loops. A non-nil empty set is harness
// misuse and comes back as an error; nil still means every container, and
// finds the canary.
func TestEmptyCompareSetIsNotAPass(t *testing.T) {
	bm, err := Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	s, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	code.Set(machinecode.ALUHoleName(0, true, 0, "const_0"), 8)
	for _, level := range core.AllLevels() {
		canary, err := core.Build(s, code, level)
		if err != nil {
			t.Fatal(err)
		}
		dspec, err := bm.SimSpec()
		if err != nil {
			t.Fatal(err)
		}
		fuzz := func(opts sim.FuzzOptions) (*sim.BatchReport, error) {
			gen := sim.NewTrafficGen(1, canary.PHVLen(), canary.Bits(), bm.MaxInput)
			return sim.NewFuzzer(canary).FuzzGen(dspec, gen, 4096, opts, 1)
		}
		rep, err := fuzz(sim.FuzzOptions{Containers: []int{}})
		if err == nil {
			t.Errorf("%v: an empty compare set was fuzzed: %v", level, rep)
		}
		rep, err = fuzz(sim.FuzzOptions{})
		if err != nil || rep.Passed() {
			t.Errorf("%v: the canary under a nil compare set: report %v, err %v; want a mismatch", level, rep, err)
		}
	}
}
