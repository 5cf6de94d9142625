package drmt

import (
	"strings"
	"testing"

	"druzhba/internal/p4"
	"druzhba/internal/phv"
)

// TestTrafficGenWideFieldsNoPanic is the regression test for a shift
// overflow in the draw: int64(1)<<63 is negative and int64(1)<<64 is 0, either
// of which panics rand.Int63n. Fields 63 bits and wider must draw from the
// full non-negative range instead. The p4 parser caps declared widths at
// 62, so the generator is built directly.
func TestTrafficGenWideFieldsNoPanic(t *testing.T) {
	wide, err := phv.NewTraffic([]int{62, 63, 64}, 0, TrafficUniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := &TrafficGen{fields: []string{"h.w62", "h.w63", "h.w64"}}
	g.gen.Start(wide, 1)
	for i, p := range refPackets(g, 100) {
		for f, v := range p.Fields {
			if v < 0 {
				t.Fatalf("packet %d field %s = %d, want non-negative", i, f, v)
			}
		}
	}
	// The clamp must not disturb the max bound.
	bounded, err := phv.NewTraffic([]int{64}, 10, TrafficUniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	g = &TrafficGen{fields: []string{"h.w64"}}
	g.gen.Start(bounded, 1)
	for _, p := range refPackets(g, 100) {
		if v := p.Fields["h.w64"]; v < 0 || v >= 10 {
			t.Fatalf("bounded wide field = %d, want [0,10)", v)
		}
	}
}

// TestTrafficGenGlobalPacketIDs is the regression test for a batch
// restarting IDs at 0 on every call: campaign shards rely on one generator
// handing out globally ordered IDs across consecutive draws.
func TestTrafficGenGlobalPacketIDs(t *testing.T) {
	gen, err := NewTrafficGen(1, routerProg(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	first := refPackets(gen, 3)
	second := refPackets(gen, 3)
	for i, p := range append(first, second...) {
		if p.ID != i {
			t.Fatalf("packet %d has ID %d, want %d", i, p.ID, i)
		}
	}
	if id := gen.Fill(make([]int64, gen.NumFields())); id != 6 {
		t.Fatalf("Fill after two batches has ID %d, want 6", id)
	}
}

func TestMachineCloneIndependentState(t *testing.T) {
	prog, entries := loadL2L3(t)
	m, err := NewMachine(prog, entries, HWConfig{Processors: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if _, err := c.RunStream(3, 50, 8); err != nil {
		t.Fatal(err)
	}
	for _, r := range prog.Registers {
		cells, _ := m.Register(r.Name)
		for i, v := range cells {
			if v != 0 {
				t.Fatalf("clone run mutated original register %s[%d] = %d", r.Name, i, v)
			}
		}
	}
}

func TestISAMachineCloneIndependentState(t *testing.T) {
	prog, entries := loadL2L3(t)
	m, err := NewISAMachine(prog, nil, entries, HWConfig{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if _, err := c.RunStream(3, 50, 8); err != nil {
		t.Fatal(err)
	}
	for _, r := range prog.Registers {
		cells, _ := m.Register(r.Name)
		for i, v := range cells {
			if v != 0 {
				t.Fatalf("clone run mutated original register %s[%d] = %d", r.Name, i, v)
			}
		}
	}
}

// TestDiffFuzzerCleanProgram: the assembled ISA program must agree with the
// table-level interpretation of l2l3 over random and targeted traffic.
func TestDiffFuzzerCleanProgram(t *testing.T) {
	prog, entries := loadL2L3(t)
	f, err := NewDiffFuzzer(prog, nil, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int64{0, 8} {
		rep, err := f.FuzzSeeded(42, 2000, max)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("max=%d: %d diffs, err=%v; first: %v", max, len(rep.Diffs), rep.Err, &rep.Diffs[0])
		}
		if rep.Checked != 2000 {
			t.Fatalf("checked %d packets, want 2000", rep.Checked)
		}
		if rep.Instructions == 0 {
			t.Fatal("no instructions accounted")
		}
	}
}

// TestDiffFuzzerDetectsInjectedBug miscompiles the TTL decrement — the
// 8-bit ALUAdd in the route action becomes an ALUSub — and expects the
// differential loop to surface counterexample packets whose renderings
// disagree whenever routing fires.
func TestDiffFuzzerDetectsInjectedBug(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MiscompileALUAdd(isa, 8) // the ttl decrement
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewDiffFuzzer(prog, bad, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Full-width traffic: 10/8 destinations (~1/256 of packets) take the
	// route action, whose ttl now moves the wrong way.
	rep, err := f.FuzzSeeded(7, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diffs) == 0 {
		t.Fatal("patched ISA program produced no diffs")
	}
	for _, d := range rep.Diffs {
		if d.Got == d.Want {
			t.Fatalf("diff with identical renderings: %+v", d)
		}
		if !strings.HasPrefix(d.Input, "{") || !strings.HasSuffix(d.Input, "}") {
			t.Fatalf("non-canonical input rendering: %q", d.Input)
		}
	}
}

// TestSetBatchSelectsNothing: SetBatch is an inert name (the frozen
// benchmark harness compiles against it). On l2l3, clean and under the
// injected ttl miscompile, a fuzzer that had SetBatch(64) called renders the
// same DiffReport and allocates exactly as much per run as one that did not.
func TestSetBatchSelectsNothing(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MiscompileALUAdd(isa, 8) // the ttl decrement
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	for _, tc := range []struct {
		name string
		isa  *ISAProgram
	}{
		{"clean", nil},
		{"miscompiled", bad},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(set bool) (string, float64) {
				f, err := NewDiffFuzzer(prog, tc.isa, entries, HWConfig{Processors: 4})
				if err != nil {
					t.Fatal(err)
				}
				if set {
					f.SetBatch(64)
				}
				var rep *DiffReport
				allocs := testing.AllocsPerRun(3, func() {
					var err error
					if rep, err = f.FuzzSeeded(7, n, 0); err != nil {
						panic(err)
					}
				})
				return renderReport(rep), allocs
			}
			want, wantAllocs := run(false)
			got, gotAllocs := run(true)
			if tc.isa != nil && !strings.Contains(want, "id=") {
				t.Fatal("miscompiled run found no diffs to compare")
			}
			if got != want {
				t.Fatalf("report changed after SetBatch(64):\n--- set ---\n%s--- unset ---\n%s", got, want)
			}
			if gotAllocs != wantAllocs {
				t.Fatalf("allocations changed after SetBatch(64): %v, want %v", gotAllocs, wantAllocs)
			}
		})
	}
}

// TestDiffFuzzerCloneIsolation: a clone's runs must not leak register state
// into the original, and resetting between runs must make runs repeatable.
func TestDiffFuzzerCloneIsolation(t *testing.T) {
	prog, entries := loadL2L3(t)
	f, err := NewDiffFuzzer(prog, nil, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := f.FuzzSeeded(5, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Clone()
	if _, err := c.FuzzSeeded(99, 500, 8); err != nil {
		t.Fatal(err)
	}
	// Rerunning the original after the clone ran different traffic must
	// reproduce the first run exactly (Fuzz resets, clones are private).
	b, err := f.FuzzSeeded(5, 500, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checked != b.Checked || a.Instructions != b.Instructions || len(a.Diffs) != len(b.Diffs) {
		t.Fatalf("rerun diverged: %+v vs %+v", a, b)
	}
}

// TestFuzzRejectsGeneratorOfAnotherProgram: Fuzz is the one entry that
// takes a caller's generator, and one built for another program with as many
// fields would draw that program's widths silently; the field names tell the
// two apart.
func TestFuzzRejectsGeneratorOfAnotherProgram(t *testing.T) {
	program := func(fields string) *p4.Program {
		t.Helper()
		prog, err := p4.Parse(`
header_type h_t { fields { ` + fields + ` } }
header h_t h;
action nop() { }
table t { reads { h.k : exact; } actions { nop; } default_action : nop(); }
control ingress { apply(t); }
`)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	mine, other := program("k : 8; x : 16;"), program("k : 8; y : 2;")
	f, err := NewDiffFuzzer(mine, nil, NewEntrySet(), HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(1, other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gen.NumFields() != f.layout.NumFields() {
		t.Fatalf("the fixture's programs have %d and %d fields, want as many", gen.NumFields(), f.layout.NumFields())
	}
	const want = "drmt: traffic generator draws fields [h.k h.y], program has [h.k h.x]"
	if _, err := f.Fuzz(gen, 10); err == nil || err.Error() != want {
		t.Fatalf("Fuzz with another program's generator = %v, want %q", err, want)
	}
	if gen, err = NewTrafficGen(1, mine, 0); err != nil {
		t.Fatal(err)
	}
	if rep, err := f.Fuzz(gen, 10); err != nil || !rep.Passed() {
		t.Fatalf("Fuzz with the program's own generator = %+v, %v", rep, err)
	}
}

// TestFuzzSeededReusesThePlan: the traffic plan a fuzzer keeps between
// seeded runs is invisible — whatever seed, bound and mode the previous run
// used, a run reports what a new fuzzer's first run reports (under an
// injected miscompile, so packet IDs and counterexamples are compared too),
// a clone runs on the plan it shares with its parent, and a switch of bound
// or mode builds a new plan.
func TestFuzzSeededReusesThePlan(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := MiscompileALUAdd(isa, 8)
	if err != nil {
		t.Fatal(err)
	}
	kept, err := NewDiffFuzzer(prog, bad, entries, HWConfig{})
	if err != nil {
		t.Fatal(err)
	}
	diffs, plans := 0, map[*phv.Traffic]bool{}
	for i, run := range []struct {
		seed, max int64
		mode      TrafficMode
		clone     bool
	}{
		{3, 0, TrafficUniform, false}, {4, 0, TrafficUniform, false}, {3, 0, TrafficUniform, false},
		{3, 0, TrafficBoundary, false}, {3, 1 << 20, TrafficBoundary, false}, {5, 1 << 20, TrafficBoundary, true},
		{3, 1 << 20, TrafficUniform, true}, {3, 0, TrafficUniform, false},
	} {
		fresh, err := NewDiffFuzzer(prog, bad, entries, HWConfig{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.FuzzSeededMode(run.seed, 2000, run.max, run.mode)
		if err != nil {
			t.Fatal(err)
		}
		f := kept
		if run.clone {
			if f = kept.Clone(); f.traffic != kept.traffic {
				t.Fatalf("run %d (%+v): the clone dropped its parent's plan", i, run)
			}
		}
		before, reuse := f.traffic, f.traffic != nil && f.trafficMax == run.max && f.trafficMode == run.mode
		got, err := f.FuzzSeededMode(run.seed, 2000, run.max, run.mode)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := renderReport(got), renderReport(want); g != w {
			t.Fatalf("run %d (%+v): kept plan reports\n%s\na new fuzzer\n%s", i, run, g, w)
		}
		if (f.traffic == before) != reuse {
			t.Fatalf("run %d (%+v): plan reused = %v, want %v", i, run, f.traffic == before, reuse)
		}
		plans[f.traffic] = true
		diffs += len(want.Diffs)
	}
	if diffs == 0 {
		t.Fatal("the miscompile was never hit: no packet IDs were compared")
	}
	if len(plans) != 5 { // one per switch of bound or mode: runs 0, 3, 4, 6 and 7
		t.Fatalf("the runs used %d plans, want 5", len(plans))
	}
	if _, err := kept.FuzzSeededMode(1, 10, 0, "chaotic"); err == nil {
		t.Fatal("unknown traffic mode accepted")
	}
}

func TestFormatPacketCanonical(t *testing.T) {
	p := &refPacket{Fields: map[string]int64{"b.y": 2, "a.x": 1}, Dropped: true}
	if got := formatPacket(p); got != "{a.x=1 b.y=2 dropped}" {
		t.Fatalf("formatPacket = %q", got)
	}
}

// TestBenchmarkRegistry: every registered benchmark must parse, validate
// its entries, and fuzz clean (the ISA model agrees with the table-level
// model on all shipped benchmarks).
func TestBenchmarkRegistry(t *testing.T) {
	all := Benchmarks()
	if len(all) < 3 {
		t.Fatalf("registry has %d benchmarks, want >= 3", len(all))
	}
	seen := map[string]bool{}
	for _, bm := range all {
		if seen[bm.Name] {
			t.Fatalf("duplicate benchmark name %s", bm.Name)
		}
		seen[bm.Name] = true
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		f, err := NewDiffFuzzer(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.FuzzSeeded(1, 300, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("benchmark %s: %d diffs, err=%v", bm.Name, len(rep.Diffs), rep.Err)
		}
	}
	if got := MatchBenchmarks("l2l3"); len(got) != 2 {
		t.Fatalf("MatchBenchmarks(l2l3) = %d results, want 2", len(got))
	}
	if _, err := LookupBenchmark("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
