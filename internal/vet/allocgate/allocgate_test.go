package allocgate

import (
	"path/filepath"
	"runtime"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/drmt"
	"druzhba/internal/flat"
	"druzhba/internal/obs"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// repoRoot locates the module root from this file's own position, so the
// gate scans the same tree no matter where go test is invoked from.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "..")
}

// runners measures each exported hotpath. The key set must match the
// //dvet:hotpath annotations in source exactly (TestGateCoversAnnotations
// enforces both directions); each runner warms its fixture and returns
// the steady-state allocations per call as measured by AllocsPerRun.
var runners = map[string]func(t *testing.T) float64{
	"internal/sim.Stream.Tick": func(t *testing.T) float64 {
		pipe := benchPipeline(t)
		s := sim.NewStream(pipe)
		in := make([]phv.Value, pipe.PHVLen())
		for i := 0; i < pipe.Depth()+2; i++ { // warm: fill and drain the ladder once
			if _, err := s.Tick(in); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := s.Tick(in); err != nil {
				panic(err)
			}
		})
	},
	"internal/sim.Fuzzer.Fuzz": func(t *testing.T) float64 {
		// Both of the fuzzer's loops hold the one budget: the fused loop
		// the Domino specification runs on at compiled, and the tick loop
		// it runs on at unoptimized.
		worst := 0.0
		for _, level := range []core.OptLevel{core.Compiled, core.Unoptimized} {
			f, sp, gen, opts := benchFuzzer(t, level)
			next := func(dst []phv.Value) error {
				gen.Fill(dst)
				return nil
			}
			fuzzRun := func() {
				rep, err := f.Fuzz(sp, 256, next, opts, 0)
				if err != nil {
					panic(err)
				}
				if !rep.Passed() {
					panic("fuzz mismatch")
				}
			}
			fuzzRun() // warm spec scratch
			worst = max(worst, testing.AllocsPerRun(10, fuzzRun))
		}
		return worst
	},
	"internal/sim.Fuzzer.FuzzGen": func(t *testing.T) float64 {
		f, sp, gen, opts := benchFuzzer(t, core.Compiled)
		fuzzRun := func() {
			rep, err := f.FuzzGen(sp, gen, 256, opts, 0)
			if err != nil {
				panic(err)
			}
			if !rep.Passed() {
				panic("fuzz mismatch")
			}
		}
		fuzzRun()
		return testing.AllocsPerRun(10, fuzzRun)
	},
	"internal/domino.PHVSpec.ProcessStream": func(t *testing.T) float64 {
		// Every Table-1 program on its own traffic: the worst one is the
		// number held to the budget.
		worst := 0.0
		for _, bm := range spec.All() {
			sp, err := bm.SimSpec()
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := bm.Pipeline(core.Compiled)
			if err != nil {
				t.Fatal(err)
			}
			gen := sim.NewTrafficGen(1, pipe.PHVLen(), pipe.Bits(), bm.MaxInput)
			vals := make([]phv.Value, pipe.PHVLen())
			stream := sp.(sim.StreamSpec)
			allocs := testing.AllocsPerRun(100, func() {
				gen.Fill(vals)
				if err := stream.ProcessStream(vals); err != nil {
					panic(err)
				}
			})
			worst = max(worst, allocs)
		}
		return worst
	},
	"internal/flat.Program.Run": func(t *testing.T) float64 {
		// The evaluator under both sides of the comparison: the first
		// Table-1 pipeline's whole grid fused at the level whose ALU bodies
		// keep their helper calls.
		pipe, err := spec.All()[0].Pipeline(core.SCCPropagation)
		if err != nil {
			t.Fatal(err)
		}
		cone := pipe.FuseGrid()
		frame := cone.NewFrame()
		cone.Run(frame)
		return testing.AllocsPerRun(100, func() { cone.Run(frame) })
	},
	"internal/flat.Oracle.Fuzz": func(t *testing.T) float64 {
		// The one packet loop both machine models run, on every Table-1
		// oracle (the cone with the Domino specification linked after it),
		// drawing from a generator and from a caller's fill.
		worst := 0.0
		for _, bm := range spec.All() {
			o, gen := benchOracle(t, bm)
			frame := o.Program().NewFrame()
			fill := func(_ int, in []int64) error { gen.Fill(in); return nil }
			for _, g := range []*phv.TrafficGen{gen, nil} {
				fuzzRun := func() {
					if at, _, _ := o.Fuzz(frame, g, fill, o.Pairs(), 0, 256); at != 256 {
						panic("oracle mismatch")
					}
				}
				fuzzRun()
				worst = max(worst, testing.AllocsPerRun(10, fuzzRun))
			}
		}
		return worst
	},
	"internal/sim.Batch.Run": func(t *testing.T) float64 {
		pipe := benchPipeline(t)
		const n = 64
		b, err := sim.NewBatch(pipe, n)
		if err != nil {
			t.Fatal(err)
		}
		gen := sim.NewTrafficGen(1, pipe.PHVLen(), pipe.Bits(), 0)
		row := make([]phv.Value, pipe.PHVLen())
		for k := 0; k < n; k++ {
			gen.Fill(row)
			b.Load(k, row)
		}
		if err := b.Run(n); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if err := b.Run(n); err != nil {
				panic(err)
			}
		})
	},
	"internal/phv.TrafficGen.Fill": func(t *testing.T) float64 {
		// The one generator, as each architecture builds it: dRMT's
		// per-field columns and RMT's uniform-width containers.
		_, _, gen, buf := benchMachines(t)
		worst := testing.AllocsPerRun(100, func() { gen.Fill(buf) })
		pipe := benchPipeline(t)
		rmtGen := sim.NewTrafficGen(1, pipe.PHVLen(), pipe.Bits(), 0)
		row := make([]phv.Value, pipe.PHVLen())
		return max(worst, testing.AllocsPerRun(100, func() { rmtGen.Fill(row) }))
	},
	"internal/phv.TrafficGen.Start": func(t *testing.T) float64 {
		// A campaign shard's start: a generator declared where it is used
		// and started on the job's plan, which stays on the stack.
		pipe := benchPipeline(t)
		plan, err := sim.NewTraffic(pipe.PHVLen(), pipe.Bits(), 1000, sim.TrafficUniform, nil)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]phv.Value, pipe.PHVLen())
		seed := int64(0)
		return testing.AllocsPerRun(100, func() {
			var gen sim.TrafficGen
			seed++
			gen.Start(plan, seed)
			gen.Fill(row)
		})
	},
	"internal/drmt.ISAMachine.ExecSlots": func(t *testing.T) float64 {
		isaM, _, gen, buf := benchMachines(t)
		gen.Fill(buf)
		return testing.AllocsPerRun(100, func() {
			gen.Fill(buf)
			if _, _, err := isaM.ExecSlots(buf); err != nil {
				panic(err)
			}
		})
	},
	"internal/drmt.Machine.ProcessSlots": func(t *testing.T) float64 {
		_, tabM, gen, buf := benchMachines(t)
		gen.Fill(buf)
		return testing.AllocsPerRun(100, func() {
			gen.Fill(buf)
			tabM.ProcessSlots(buf)
		})
	},
	"internal/drmt.DiffFuzzer.Fuzz": func(t *testing.T) float64 {
		// The one dRMT packet loop — both machines linked into one flat
		// program — on every embedded benchmark: the worst one is held to the
		// budget (the report).
		worst := 0.0
		for _, bm := range drmt.Benchmarks() {
			prog, err := bm.Program()
			if err != nil {
				t.Fatal(err)
			}
			entries, err := bm.Entries(prog)
			if err != nil {
				t.Fatal(err)
			}
			f, err := drmt.NewDiffFuzzer(prog, nil, entries, bm.HW)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := drmt.NewTrafficGen(1, prog, bm.MaxInput)
			if err != nil {
				t.Fatal(err)
			}
			fuzzRun := func() {
				rep, err := f.Fuzz(gen, 256)
				if err != nil {
					panic(err)
				}
				if !rep.Passed() {
					panic("drmt fuzz mismatch")
				}
			}
			fuzzRun()
			worst = max(worst, testing.AllocsPerRun(10, fuzzRun))
		}
		return worst
	},
	"internal/obs.Counter.Inc": func(t *testing.T) float64 {
		c := obs.NewRegistry().Counter("gate_counter_inc_total", "gate")
		c.Inc()
		return testing.AllocsPerRun(100, func() { c.Inc() })
	},
	"internal/obs.Counter.Add": func(t *testing.T) float64 {
		c := obs.NewRegistry().Counter("gate_counter_add_total", "gate")
		c.Add(0.5)
		return testing.AllocsPerRun(100, func() { c.Add(0.5) })
	},
	"internal/obs.Gauge.Set": func(t *testing.T) float64 {
		g := obs.NewRegistry().Gauge("gate_gauge", "gate")
		g.Set(1)
		return testing.AllocsPerRun(100, func() { g.Set(42) })
	},
	"internal/obs.Histogram.Observe": func(t *testing.T) float64 {
		h := obs.NewRegistry().Histogram("gate_hist_seconds", "gate", nil)
		h.Observe(0.01)
		return testing.AllocsPerRun(100, func() { h.Observe(0.01) })
	},
}

// benchPipeline builds the first Table-1 benchmark's pipeline at the
// compiled level — a prechecked pipeline, which both engines accept.
func benchPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	bms := spec.All()
	if len(bms) == 0 {
		t.Fatal("no spec benchmarks")
	}
	pipe, err := bms[0].Pipeline(core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

// benchFuzzer builds a fuzzer over the first Table-1 benchmark at the given
// level together with its spec, generator and compare options.
func benchFuzzer(t *testing.T, level core.OptLevel) (*sim.Fuzzer, sim.Spec, *sim.TrafficGen, sim.FuzzOptions) {
	t.Helper()
	bms := spec.All()
	if len(bms) == 0 {
		t.Fatal("no spec benchmarks")
	}
	bm := bms[0]
	pipe, err := bm.Pipeline(level)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := bm.SimSpec()
	if err != nil {
		t.Fatal(err)
	}
	containers, err := bm.CompareContainers()
	if err != nil {
		t.Fatal(err)
	}
	gen := sim.NewTrafficGen(1, pipe.PHVLen(), pipe.Bits(), bm.MaxInput)
	return sim.NewFuzzer(pipe), sp, gen, sim.FuzzOptions{Containers: containers}
}

// benchOracle links a Table-1 benchmark's Domino specification after its
// output cone at compiled, as the fuzzer does, into the oracle of the
// containers it compares, with a generator of the benchmark's traffic.
func benchOracle(t *testing.T, bm *spec.Benchmark) (*flat.Oracle, *phv.TrafficGen) {
	t.Helper()
	r, err := bm.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := core.Build(r.Spec, r.Code, core.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := domino.Bind(r.Program, bm.Fields, pipe.Bits())
	if err != nil {
		t.Fatal(err)
	}
	containers, err := bm.CompareContainers()
	if err != nil {
		t.Fatal(err)
	}
	cone := pipe.Cone()
	in := make([]int, pipe.PHVLen())
	for c := range in {
		in[c] = cone.InputReg(c)
	}
	l, err := b.Link(cone.Program, in)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []flat.Pair
	for _, c := range containers {
		pairs = append(pairs, flat.Pair{Got: cone.Out()[c], Want: l.Want[c]})
	}
	return flat.NewOracle(l.Program, in[0], len(in), pairs, l.Clear, l.Trap), sim.NewTrafficGen(1, pipe.PHVLen(), pipe.Bits(), bm.MaxInput)
}

// benchMachines builds both dRMT machines and a generator over the
// first embedded dRMT benchmark.
func benchMachines(t *testing.T) (*drmt.ISAMachine, *drmt.Machine, *drmt.TrafficGen, []int64) {
	t.Helper()
	bms := drmt.Benchmarks()
	if len(bms) == 0 {
		t.Fatal("no drmt benchmarks")
	}
	bm := bms[0]
	prog, err := bm.Program()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		t.Fatal(err)
	}
	isaM, err := drmt.NewISAMachine(prog, nil, entries, bm.HW)
	if err != nil {
		t.Fatal(err)
	}
	tabM, err := drmt.NewMachine(prog, entries, bm.HW, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := drmt.NewTrafficGen(1, prog, bm.MaxInput)
	if err != nil {
		t.Fatal(err)
	}
	return isaM, tabM, gen, make([]int64, gen.NumFields())
}

// TestGateCoversAnnotations asserts the runner table and the
// //dvet:hotpath annotations cannot drift: every exported annotated
// function has a runner and every runner points at an annotation.
func TestGateCoversAnnotations(t *testing.T) {
	hps, err := Scan(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	annotated := map[string]bool{}
	for _, hp := range hps {
		if !hp.Exported {
			continue
		}
		annotated[hp.Key] = true
		if _, ok := runners[hp.Key]; !ok {
			t.Errorf("%s: //dvet:hotpath %s has no alloc-gate runner; add one to the runners table", hp.Pos, hp.Key)
		}
	}
	for key := range runners {
		if !annotated[key] {
			t.Errorf("runner %s matches no //dvet:hotpath annotation; remove it or re-annotate the function", key)
		}
	}
}

// TestAllocBudgets runs every exported hotpath under AllocsPerRun and
// holds it to the budget its annotation declares.
func TestAllocBudgets(t *testing.T) {
	hps, err := Scan(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, hp := range hps {
		if !hp.Exported {
			continue
		}
		run, ok := runners[hp.Key]
		if !ok {
			continue // TestGateCoversAnnotations reports the gap
		}
		t.Run(hp.Key, func(t *testing.T) {
			allocs := run(t)
			if allocs > float64(hp.Budget) {
				t.Errorf("%s allocates %v per run, budget is allocs=%d (%s)", hp.Key, allocs, hp.Budget, hp.Pos)
			} else {
				t.Logf("%s: %v allocs per run (budget %d)", hp.Key, allocs, hp.Budget)
			}
		})
	}
}
