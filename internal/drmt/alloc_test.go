// Allocation-regression tests for the dRMT hot path, the mirror of package
// sim's suite: a clean differential fuzzing run allocates its report and
// nothing else — the fuzzer starts a generator on its stack from one kept
// traffic plan, and generation (TrafficGen.Fill), the linked program and the
// comparison reuse one frame.
package drmt

import (
	"fmt"
	"testing"
)

// fuzzAllocs measures the per-run allocation count of a full streaming
// differential fuzz of n packets on a warm fuzzer.
func fuzzAllocs(t *testing.T, f *DiffFuzzer, seed int64, max int64, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		rep, err := f.FuzzSeeded(seed, n, max)
		if err != nil {
			panic(err)
		}
		if !rep.Passed() {
			panic(fmt.Sprintf("fuzz failed: %+v", rep))
		}
	})
}

// TestDRMTFuzzZeroAllocsPerPHV asserts the zero-allocation property on
// every embedded dRMT benchmark: a seeded run on a warm fuzzer allocates
// the DiffReport it returns and nothing else, at any packet count — the
// marginal cost of a packet is 0 allocs on both engines, and the fixed cost
// of a shard no longer includes a traffic generator.
func TestDRMTFuzzZeroAllocsPerPHV(t *testing.T) {
	for _, bm := range Benchmarks() {
		t.Run(bm.Name, func(t *testing.T) {
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
			fuzzAllocs(t, f, 1, bm.MaxInput, 64) // warm: builds the kept traffic plan
			small := fuzzAllocs(t, f, 2, bm.MaxInput, 256)
			large := fuzzAllocs(t, f, 3, bm.MaxInput, 2048)
			if small != 1 || large != 1 {
				t.Errorf("a seeded run allocates %v times for 256 packets, %v for 2048; want 1 (the report)", small, large)
			}
		})
	}
}

// TestTrafficGenFillZeroAllocs: after the first call builds the draw
// limits, Fill must not allocate.
func TestTrafficGenFillZeroAllocs(t *testing.T) {
	prog, _ := loadL2L3(t)
	gen, err := NewTrafficGen(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, gen.NumFields())
	gen.Fill(buf) // warm: builds the limits table
	if allocs := testing.AllocsPerRun(100, func() { gen.Fill(buf) }); allocs != 0 {
		t.Fatalf("TrafficGen.Fill allocates %v per packet, want 0", allocs)
	}
}

// TestSlotEnginesZeroAllocsPerPacket asserts the per-packet zero-allocation
// property directly on both machines' packet primitives, each on its own
// flat program: ExecSlots, entry path and outcome blocks, and ProcessSlots.
func TestSlotEnginesZeroAllocsPerPacket(t *testing.T) {
	prog, entries := loadL2L3(t)
	isaM, err := NewISAMachine(prog, nil, entries, HWConfig{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	tabM, err := NewMachine(prog, entries, HWConfig{Processors: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTrafficGen(1, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int64, gen.NumFields())
	gen.Fill(buf)
	if allocs := testing.AllocsPerRun(100, func() {
		gen.Fill(buf)
		if _, _, err := isaM.ExecSlots(buf); err != nil {
			panic(err)
		}
	}); allocs != 0 {
		t.Fatalf("ISAMachine.ExecSlots allocates %v per packet, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		gen.Fill(buf)
		tabM.ProcessSlots(buf)
	}); allocs != 0 {
		t.Fatalf("Machine.ProcessSlots allocates %v per packet, want 0", allocs)
	}
}

// TestRunStreamAllocatesO1: both machines' RunStream draw every packet into
// one reused slot vector, so a run's allocation count (Stats, its maps, the
// generator, the vector) must not grow with the packet count.
func TestRunStreamAllocatesO1(t *testing.T) {
	bm, err := LookupBenchmark("counter") // binds an action parameter on every packet
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
	tab, err := NewMachine(prog, entries, bm.HW, nil)
	if err != nil {
		t.Fatal(err)
	}
	isa, err := NewISAMachine(prog, nil, entries, bm.HW)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(n int) error{
		"Machine.RunStream":    func(n int) error { _, err := tab.RunStream(1, n, bm.MaxInput); return err },
		"ISAMachine.RunStream": func(n int) error { _, err := isa.RunStream(1, n, bm.MaxInput); return err },
	}
	for name, run := range runs {
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(3, func() {
				if err := run(n); err != nil {
					panic(err)
				}
			})
		}
		if small, large := allocs(256), allocs(2048); large > small {
			t.Errorf("%s: allocations grow with packet count: %v for 256 packets, %v for 2048", name, small, large)
		}
	}
}
