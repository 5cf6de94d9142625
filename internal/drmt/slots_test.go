package drmt

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// renderReport canonicalizes a DiffReport for byte-comparison: every field
// that reaches campaign reports, plus the traffic-generator packet IDs.
func renderReport(rep *DiffReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked=%d instructions=%d err=%v\n", rep.Checked, rep.Instructions, rep.Err)
	for _, d := range rep.Diffs {
		fmt.Fprintf(&b, "id=%d %s\n", d.ID, d.String())
	}
	return b.String()
}

// TestDiffFuzzerSlotVsCompatByteIdentical is the differential test for the
// linked flat program: over every embedded benchmark and several seeds,
// the streaming Fuzz and the reference loop over the map interpreters
// (RefFuzzer, reference_test.go) must produce byte-identical DiffReports —
// same counts, same instruction totals, same renderings.
func TestDiffFuzzerSlotVsCompatByteIdentical(t *testing.T) {
	for _, bm := range Benchmarks() {
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
		ref, err := NewRefFuzzer(prog, nil, entries)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7, 42} {
			for _, max := range []int64{0, bm.MaxInput} {
				slot, err := f.FuzzSeeded(seed, 800, max)
				if err != nil {
					t.Fatal(err)
				}
				compat, err := ref.FuzzSeeded(seed, 800, max)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renderReport(slot), renderReport(compat); got != want {
					t.Fatalf("%s seed=%d max=%d: slot and reference reports differ:\n--- slot ---\n%s--- reference ---\n%s",
						bm.Name, seed, max, got, want)
				}
			}
		}
	}
}

// TestDiffFuzzerSlotVsCompatOnMiscompile repeats the byte-identity check on
// a run that actually produces diffs: the injected ttl miscompile on l2l3
// must yield the same counterexamples, with the same canonical renderings,
// from the linked program and the reference.
func TestDiffFuzzerSlotVsCompatOnMiscompile(t *testing.T) {
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
	slot, err := f.FuzzSeeded(7, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(slot.Diffs) == 0 {
		t.Fatal("miscompiled program produced no diffs on the slot path")
	}
	ref, err := NewRefFuzzer(prog, bad, entries)
	if err != nil {
		t.Fatal(err)
	}
	compat, err := ref.FuzzSeeded(7, 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(slot), renderReport(compat); got != want {
		t.Fatalf("slot and reference miscompile reports differ:\n--- slot ---\n%s--- reference ---\n%s", got, want)
	}
}

// TestDiffFuzzerSlotVsCompatOnExecError: an ISA program whose match selects
// an action missing from its dispatch list fails at run time; the linked
// program and the reference must report the identical error at the
// identical packet.
func TestDiffFuzzerSlotVsCompatOnExecError(t *testing.T) {
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad := *isa
	bad.Dispatch = make([][]string, len(isa.Dispatch))
	for i, d := range isa.Dispatch {
		bad.Dispatch[i] = append([]string(nil), d...)
	}
	bad.Dispatch[0] = []string{"not_learn"} // smac's default learn() is now unselectable
	f, err := NewDiffFuzzer(prog, &bad, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	slot, err := f.FuzzSeeded(3, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slot.Err == nil || !strings.Contains(slot.Err.Error(), "outside its dispatch list") {
		t.Fatalf("slot path missed the dispatch error: %v", slot.Err)
	}
	ref, err := NewRefFuzzer(prog, &bad, entries)
	if err != nil {
		t.Fatal(err)
	}
	compat, err := ref.FuzzSeeded(3, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(slot), renderReport(compat); got != want {
		t.Fatalf("slot and reference error reports differ:\n--- slot ---\n%s--- reference ---\n%s", got, want)
	}
}

// TestRunStreamMatchesReference: the table machine's RunStream must produce
// Stats, and its ProcessSlots per-packet results, identical to the reference
// interpreter's run over the same seeded traffic, and both must leave the
// reference's register state, for every embedded benchmark.
func TestRunStreamMatchesReference(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		mStream, err := NewMachine(prog, entries, bm.HW, nil)
		if err != nil {
			t.Fatal(err)
		}
		mSlots := mStream.Clone()
		mRef, err := newRefMachine(prog, entries)
		if err != nil {
			t.Fatal(err)
		}
		const n = 500
		streamed, err := mStream.RunStream(9, n, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := NewTrafficGen(9, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		refPkts := refPackets(gen, n)
		inputs := make([][]int64, n)
		for i, pkt := range refPkts {
			inputs[i] = pkt.slots(mSlots.layout)
		}
		want, err := mRef.run(refPkts, bm.HW.Defaults().Processors, mStream.Schedule().Makespan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, want) {
			t.Fatalf("%s: RunStream stats %+v, reference stats %+v", bm.Name, streamed, want)
		}
		if FormatStats(streamed) != FormatStats(want) {
			t.Fatalf("%s: rendered stats differ", bm.Name)
		}
		for i, buf := range inputs {
			dropped := mSlots.ProcessSlots(buf)
			if got, want := mSlots.layout.FormatSlots(buf, dropped), formatPacket(refPkts[i]); got != want {
				t.Fatalf("%s packet %d: ProcessSlots %s, reference %s", bm.Name, i, got, want)
			}
		}
		for _, r := range prog.Registers {
			a, _ := mStream.Register(r.Name)
			b, _ := mSlots.Register(r.Name)
			c, _ := mRef.Register(r.Name)
			if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(b, c) {
				t.Fatalf("%s: register %s diverged: stream %v, slots %v, reference %v", bm.Name, r.Name, a, b, c)
			}
		}
	}
}

// TestISARunMatchesReference: the ISA machine's RunStream must produce
// the reference run's ISAStats (Instructions, MatchOps and crossbar accesses
// included) and register state, for every embedded benchmark; a second run
// must not inherit the first's match counts, and after ResetState a run must
// equal a fresh machine's, stats and banks. Per-packet results are
// TestExecSlotsMatchesExec's.
func TestISARunMatchesReference(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewISAMachine(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		mRef, err := newRefISAMachine(prog, nil, entries)
		if err != nil {
			t.Fatal(err)
		}
		sameRegisters := func(what string, a, b interface{ Register(string) ([]int64, bool) }) {
			t.Helper()
			for _, r := range prog.Registers {
				x, _ := a.Register(r.Name)
				y, _ := b.Register(r.Name)
				if !reflect.DeepEqual(x, y) {
					t.Fatalf("%s: %s: register %s diverged: %v, %v", bm.Name, what, r.Name, x, y)
				}
			}
		}
		for round := int64(0); round < 2; round++ {
			got, err := m.RunStream(9+round, 300, bm.MaxInput)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := NewTrafficGen(9+round, prog, bm.MaxInput)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mRef.run(refPackets(gen, 300), bm.HW.Defaults().Processors)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: RunStream stats %+v, reference stats %+v", bm.Name, round, got, want)
			}
		}
		sameRegisters("against the reference", m, mRef)

		fresh, err := NewISAMachine(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		m.ResetState()
		got, err := m.RunStream(10, 300, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.RunStream(10, 300, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after ResetState, RunStream stats %+v, a fresh machine's %+v", bm.Name, got, want)
		}
		sameRegisters("after ResetState, against a fresh machine", m, fresh)
	}
}

// TestExecSlotsMatchesExec compares the ISA machine's flat program with the
// reference packet by packet: same resulting fields, same drop flag, same
// executed instruction count, same accumulated register state.
func TestExecSlotsMatchesExec(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			t.Fatal(err)
		}
		mSlot, err := NewISAMachine(prog, nil, entries, bm.HW)
		if err != nil {
			t.Fatal(err)
		}
		mMap, err := newRefISAMachine(prog, nil, entries)
		if err != nil {
			t.Fatal(err)
		}
		layout := mSlot.Layout()
		gen, err := NewTrafficGen(13, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		stats := &ISAStats{Stats: Stats{MemoryAccesses: map[string]int{}}}
		buf := make([]int64, layout.NumFields())
		for i := 0; i < 400; i++ {
			pkt := newRefPacket(layout.fields, gen.Fill(buf), buf)
			executedSlot, dropped, err := mSlot.ExecSlots(buf)
			if err != nil {
				t.Fatal(err)
			}
			executedMap, err := mMap.exec(pkt, stats)
			if err != nil {
				t.Fatal(err)
			}
			if executedSlot != executedMap {
				t.Fatalf("%s packet %d: slot executed %d instrs, map %d", bm.Name, i, executedSlot, executedMap)
			}
			if dropped != pkt.Dropped {
				t.Fatalf("%s packet %d: slot dropped=%v, map dropped=%v", bm.Name, i, dropped, pkt.Dropped)
			}
			if got, want := layout.FormatSlots(buf, dropped), formatPacket(pkt); got != want {
				t.Fatalf("%s packet %d: slot %s, map %s", bm.Name, i, got, want)
			}
		}
		for _, r := range prog.Registers {
			a, _ := mSlot.Register(r.Name)
			b, _ := mMap.Register(r.Name)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: register %s diverged: slot %v, map %v", bm.Name, r.Name, a, b)
			}
		}
	}
}

// TestFormatSlotsMatchesFormatPacket pins the two canonical renderings to
// each other, drop flag included.
func TestFormatSlotsMatchesFormatPacket(t *testing.T) {
	prog, _ := loadL2L3(t)
	layout, err := NewSlotLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, layout.NumFields())
	for i := 0; i < 50; i++ {
		pkt := newRefPacket(layout.fields, gen.Fill(buf), buf)
		for _, dropped := range []bool{false, true} {
			pkt.Dropped = dropped
			if got, want := layout.FormatSlots(buf, dropped), formatPacket(pkt); got != want {
				t.Fatalf("rendering diverged: slots %q, packet %q", got, want)
			}
		}
	}
}

// TestWideFaninSchedule pins the wide-DAG benchmark's shape: eight
// independent lane tables must feed the fold table, and the nine matches
// must not fit a single cycle of the tightened two-processor configuration
// (the schedule has to spread them across the period).
func TestWideFaninSchedule(t *testing.T) {
	bm, err := LookupBenchmark("wide-fanin")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(prog, entries, bm.HW, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Graph()
	fanin := 0
	for _, e := range g.Edges() {
		if e.To == "fold" {
			fanin++
		}
	}
	if fanin != 8 {
		t.Fatalf("fold has fan-in %d, want 8", fanin)
	}
	sched := m.Schedule()
	starts := map[int]int{}
	for _, ms := range sched.MatchStart {
		starts[ms]++
	}
	if len(starts) < 2 {
		t.Fatalf("all %d matches issued in one cycle; capacity was not stressed: %+v", len(sched.MatchStart), sched.MatchStart)
	}
	// The benchmark must also drop a measurable share of traffic (the
	// ternary fold entry) and still fuzz clean — checked by the registry
	// test; here we pin that drops actually occur.
	stats, err := m.RunStream(2, 1000, bm.MaxInput)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped == 0 {
		t.Fatal("wide-fanin dropped no packets; the ternary toss entry never fired")
	}
}

// BenchmarkDRMTDiffFuzz measures the differential fuzzing loop — the dRMT
// campaign hot path — on the linked flat program (the "slots" row keeps its
// name), next to the same loop on the reference map interpreters (what the
// oracle costs, and why it is not the production engine).
func BenchmarkDRMTDiffFuzz(b *testing.B) {
	for _, name := range []string{"l2l3", "wide-fanin"} {
		bm, err := LookupBenchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := bm.Program()
		if err != nil {
			b.Fatal(err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			b.Fatal(err)
		}
		slots, err := NewDiffFuzzer(prog, nil, entries, bm.HW)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := NewRefFuzzer(prog, nil, entries)
		if err != nil {
			b.Fatal(err)
		}
		const packets = 1000
		for _, engine := range []struct {
			name string
			fuzz func(seed int64, n int, max int64) (*DiffReport, error)
		}{{"slots", slots.FuzzSeeded}, {"reference", ref.FuzzSeeded}} {
			b.Run(name+"/"+engine.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, err := engine.fuzz(1, packets, bm.MaxInput)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Passed() {
						b.Fatalf("fuzz failed: %+v", rep)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*packets), "ns/PHV")
			})
		}
	}
}

// TestLoopAndCounterStopTogether plants an ISA program that traps: l2l3 with
// the route action left out of ipv4_route's dispatch list, so packets that
// miss the route diverge (dropped on the ISA side only) until the first that
// hits it traps, packet 89 of seed 5. The packet loop and the oracle's
// counting run stop at that packet, and the report is the one the loop has
// always written, pinned by its digest.
func TestLoopAndCounterStopTogether(t *testing.T) {
	const (
		n, stop    = 200, 89
		dispatched = 2771
		digest     = "e57a6755e4139dde78dc1bcae32f5bfca94af02526c671778efee15696529ce1"
		want       = `drmt isa: packet 89: table "ipv4_route" selected action "route" outside its dispatch list`
	)
	prog, entries := loadL2L3(t)
	isa, err := Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	bad := *isa
	bad.Dispatch = slices.Clone(isa.Dispatch)
	bad.Dispatch[2] = isa.Dispatch[2][1:]
	f, err := NewDiffFuzzer(prog, &bad, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.FuzzSeeded(5, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil || rep.Err.Error() != want || rep.Checked != stop || len(rep.Diffs) != stop {
		t.Fatalf("checked %d, %d diffs, err %v; want %d, %d and %s", rep.Checked, len(rep.Diffs), rep.Err, stop, stop, want)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(renderReport(rep)))); got != digest {
		t.Errorf("report digest %s, want %s:\n%s", got, digest, renderReport(rep))
	}
	gen, err := NewTrafficGen(5, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, packets := f.oracle.Count(&gen.TrafficGen, n); got != dispatched || packets != stop+1 {
		t.Errorf("the counting run dispatched %d instructions over %d packets, want %d over %d", got, packets, dispatched, stop+1)
	}
	if got, err := f.Dispatched(5, n, 0); err != nil || got != dispatched {
		t.Errorf("Dispatched = %d, %v; want %d", got, err, dispatched)
	}
}
