package drmt

import (
	"fmt"
	"reflect"
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

// TestFillMatchesNext: Fill and Next must consume the random stream
// identically and hand out the same running packet IDs, so streaming and
// materializing consumers of one seed see the same traffic.
func TestFillMatchesNext(t *testing.T) {
	for _, bm := range Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		layout, err := NewSlotLayout(prog)
		if err != nil {
			t.Fatal(err)
		}
		gFill, err := NewTrafficGen(77, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		gNext, err := NewTrafficGen(77, prog, bm.MaxInput)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int64, layout.NumFields())
		for i := 0; i < 200; i++ {
			id := gFill.Fill(buf)
			p := gNext.Next()
			if id != p.ID {
				t.Fatalf("%s packet %d: Fill ID %d, Next ID %d", bm.Name, i, id, p.ID)
			}
			for s, f := range layout.fields {
				if buf[s] != p.Fields[f] {
					t.Fatalf("%s packet %d field %s: Fill %d, Next %d", bm.Name, i, f, buf[s], p.Fields[f])
				}
			}
		}
	}
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

// samePackets reports the first packet on which two runs of one input
// disagree: fields, drop flag or timing annotations.
func samePackets(t *testing.T, what string, got, want []*Packet) {
	t.Helper()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s packet %d: got %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// TestRunStreamMatchesRun: both ways of feeding the table machine's flat
// program — RunStream and the Run adapter — must produce Stats, register
// state and (for Run) per-packet results and timing annotations identical
// to the reference interpreter's run over the same seeded traffic, for
// every embedded benchmark.
func TestRunStreamMatchesRun(t *testing.T) {
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
		mRun := mStream.Clone()
		mRef, err := newRefMachine(prog, entries)
		if err != nil {
			t.Fatal(err)
		}
		const n = 500
		gens := make([]*TrafficGen, 3)
		for i := range gens {
			if gens[i], err = NewTrafficGen(9, prog, bm.MaxInput); err != nil {
				t.Fatal(err)
			}
		}
		streamed, err := mStream.RunStream(gens[0], n)
		if err != nil {
			t.Fatal(err)
		}
		ranPkts := gens[1].Batch(n)
		ran, err := mRun.Run(ranPkts)
		if err != nil {
			t.Fatal(err)
		}
		refPkts := gens[2].Batch(n)
		want, err := mRef.run(refPkts, bm.HW.Defaults().Processors, mRun.Schedule().Makespan)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, want) {
			t.Fatalf("%s: RunStream stats %+v, reference stats %+v", bm.Name, streamed, want)
		}
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("%s: Run stats %+v, reference stats %+v", bm.Name, ran, want)
		}
		if FormatStats(streamed) != FormatStats(want) {
			t.Fatalf("%s: rendered stats differ", bm.Name)
		}
		samePackets(t, bm.Name+": Run", ranPkts, refPkts)
		for _, r := range prog.Registers {
			a, _ := mStream.Register(r.Name)
			b, _ := mRun.Register(r.Name)
			c, _ := mRef.Register(r.Name)
			if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(b, c) {
				t.Fatalf("%s: register %s diverged: stream %v, run %v, reference %v", bm.Name, r.Name, a, b, c)
			}
		}
	}
}

// TestISARunMatchesReference: the ISAMachine.Run adapter over ExecSlots must
// produce the reference run's ISAStats (Instructions, MatchOps and crossbar
// accesses included), per-packet results and timing annotations, and
// register state, for every embedded benchmark.
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
		for round := 0; round < 2; round++ { // the second Run must not inherit match counts
			genA, err := NewTrafficGen(int64(9+round), prog, bm.MaxInput)
			if err != nil {
				t.Fatal(err)
			}
			genB, err := NewTrafficGen(int64(9+round), prog, bm.MaxInput)
			if err != nil {
				t.Fatal(err)
			}
			gotPkts, refPkts := genA.Batch(300), genB.Batch(300)
			got, err := m.Run(gotPkts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mRef.run(refPkts, bm.HW.Defaults().Processors)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s round %d: Run stats %+v, reference stats %+v", bm.Name, round, got, want)
			}
			samePackets(t, bm.Name+": ISA Run", gotPkts, refPkts)
		}
		for _, r := range prog.Registers {
			a, _ := m.Register(r.Name)
			b, _ := mRef.Register(r.Name)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: register %s diverged: run %v, reference %v", bm.Name, r.Name, a, b)
			}
		}
	}
}

// TestRunAdapterBoundary pins the two places the Run adapters differ from a
// bare slot vector: a packet lacking a program field is rejected (a slot
// cannot say "absent"), and a packet that arrives dropped stays dropped —
// the table machine skips every table for it, as the reference does.
func TestRunAdapterBoundary(t *testing.T) {
	prog, entries := loadL2L3(t)
	tab, err := NewMachine(prog, entries, HWConfig{Processors: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	isa, err := NewISAMachine(prog, nil, entries, HWConfig{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	lacking := gen.Next()
	missing := tab.Layout().Fields()[0]
	delete(lacking.Fields, missing)
	want := fmt.Sprintf("packet %d: packet lacks field %q", lacking.ID, missing)
	if _, err := tab.Run([]*Packet{lacking.Clone()}); err == nil || err.Error() != "drmt: "+want {
		t.Fatalf("Machine.Run on a packet lacking %s: %v", missing, err)
	}
	if _, err := isa.Run([]*Packet{lacking.Clone()}); err == nil || err.Error() != "drmt isa: "+want {
		t.Fatalf("ISAMachine.Run on a packet lacking %s: %v", missing, err)
	}

	dropped := gen.Next()
	dropped.Dropped = true
	before := dropped.Clone()
	ref, err := newRefMachine(prog, entries)
	if err != nil {
		t.Fatal(err)
	}
	refPkt := dropped.Clone()
	wantStats, err := ref.run([]*Packet{refPkt}, 2, tab.Schedule().Makespan)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tab.Run([]*Packet{dropped})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stats, wantStats) || !reflect.DeepEqual(dropped, refPkt) {
		t.Fatalf("pre-dropped packet: stats %+v packet %+v, reference %+v %+v", stats, dropped, wantStats, refPkt)
	}
	if !reflect.DeepEqual(dropped.Fields, before.Fields) || len(stats.MemoryAccesses) != 0 {
		t.Fatalf("pre-dropped packet was processed: %+v, accesses %v", dropped, stats.MemoryAccesses)
	}
	isaPkt := before.Clone()
	isaStats, err := isa.Run([]*Packet{isaPkt})
	if err != nil {
		t.Fatal(err)
	}
	if !isaPkt.Dropped || isaStats.Dropped != 1 {
		t.Fatalf("ISA run cleared a pre-set drop flag: %+v, %+v", isaPkt, isaStats)
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
			pkt := gen.Next()
			if err := layout.PacketToSlots(pkt, buf); err != nil {
				t.Fatal(err)
			}
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
			if got, want := layout.FormatSlots(buf, dropped), FormatPacket(pkt); got != want {
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
		pkt := gen.Next()
		if err := layout.PacketToSlots(pkt, buf); err != nil {
			t.Fatal(err)
		}
		for _, dropped := range []bool{false, true} {
			pkt.Dropped = dropped
			if got, want := layout.FormatSlots(buf, dropped), FormatPacket(pkt); got != want {
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
	gen, err := NewTrafficGen(2, prog, bm.MaxInput)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.RunStream(gen, 1000)
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
