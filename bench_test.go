// Table 1 of the paper: simulation runtime for the twelve packet-processing
// programs, at each optimization level, with 50,000 PHVs from the traffic
// generator per run ("Every RMT benchmark was executed by using 50000 PHVs
// generated from the traffic generator", §5) — plus a fourth column for the
// compiled level, Druzhba's extension beyond the paper.
//
// Run with:
//
//	go test -bench BenchmarkTable1 -benchmem
//
// One benchmark iteration is one full 50,000-PHV simulation of the whole
// grid on sim.Stream at each level (what a campaign executes — the fuzzer's
// own loop over the fused output cone — is timed by cmd/dbench and recorded
// in BENCH_table1.json); the reported ms/run metric corresponds to the
// milliseconds columns of Table 1. Absolute numbers differ from the paper
// (Go vs. compiled Rust). The unoptimized column is the AST interpreter
// resolving machine code through the hash table; every column above it runs
// one flat program per stage, the same lowering at each of the three levels,
// so those columns differ only by noise, and the win over unoptimized is
// largest on the largest grids (stateful firewall, flowlets, learn filter).
package druzhba_test

import (
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// table1PHVs is the paper's workload size.
const table1PHVs = 50000

func benchPHVs(b *testing.B) int {
	if testing.Short() {
		return 2000
	}
	return table1PHVs
}

func BenchmarkTable1(b *testing.B) {
	for _, bm := range spec.All() {
		bm := bm
		for _, level := range core.AllLevels() {
			level := level
			b.Run(bm.Name+"/"+level.String(), func(b *testing.B) {
				pipeline, err := bm.Pipeline(level)
				if err != nil {
					b.Fatal(err)
				}
				n := benchPHVs(b)
				gen := sim.NewTrafficGen(1, pipeline.PHVLen(), pipeline.Bits(), bm.MaxInput)
				trace := gen.Trace(n)
				stream := sim.NewStream(pipeline)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pipeline.ResetState()
					stream.Reset()
					for fed := 0; fed < n || stream.InFlight() > 0; {
						var in []phv.Value
						if fed < n {
							in = trace.At(fed).Raw()
							fed++
						}
						if _, err := stream.Tick(in); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				perRun := float64(b.Elapsed().Milliseconds()) / float64(b.N)
				b.ReportMetric(perRun, "ms/run")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/PHV")
			})
		}
	}
}

// BenchmarkEngines isolates the per-PHV cost of the whole grid at all four
// levels on one representative configuration (4x5 pred_raw, the
// stateful-firewall grid): unoptimized, scc and scc+inline under
// core.Pipeline.Process — the AST interpreter at unoptimized, one flat
// program per stage at the other two — and the compiled level as its fused
// grid (core.Pipeline.FuseGrid), one program for every stage, which
// quantifies what running stage by stage costs.
func BenchmarkEngines(b *testing.B) {
	bm, err := spec.Lookup("stateful-firewall")
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range core.AllLevels() {
		level := level
		b.Run(level.String(), func(b *testing.B) {
			pipeline, err := bm.Pipeline(level)
			if err != nil {
				b.Fatal(err)
			}
			gen := sim.NewTrafficGen(2, pipeline.PHVLen(), pipeline.Bits(), 0)
			in := make([]*phv.PHV, 256)
			for i := range in {
				in[i] = gen.Next()
			}
			if level == core.Compiled {
				grid := pipeline.FuseGrid()
				frame := grid.NewFrame()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(grid.Inputs(frame), in[i%len(in)].Raw())
					grid.Run(frame)
				}
				return
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.Process(in[i%len(in)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDominoSpec isolates the specification side of the Fig. 5 loop:
// ns/PHV of PHVSpec.ProcessStream per Table-1 program, on that program's own
// generated traffic (a ring of pre-drawn inputs copied into one buffer, as
// the fuzz loop hands them over). The benchmark harness's
// domino.spec.ns_per_phv is the geomean of the same measurement.
func BenchmarkDominoSpec(b *testing.B) {
	const ring = 1024
	for _, bm := range spec.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			pipeline, err := bm.Pipeline(core.Compiled)
			if err != nil {
				b.Fatal(err)
			}
			sp, err := bm.SimSpec()
			if err != nil {
				b.Fatal(err)
			}
			stream := sp.(sim.StreamSpec)
			gen := sim.NewTrafficGen(1, pipeline.PHVLen(), pipeline.Bits(), bm.MaxInput)
			inputs := make([][]phv.Value, ring)
			for i := range inputs {
				inputs[i] = make([]phv.Value, pipeline.PHVLen())
				gen.Fill(inputs[i])
			}
			buf := make([]phv.Value, pipeline.PHVLen())
			n := benchPHVs(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp.Reset()
				for k := 0; k < n; k++ {
					copy(buf, inputs[k&(ring-1)])
					if err := stream.ProcessStream(buf); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/PHV")
		})
	}
}

// BenchmarkDominoBind times what BenchmarkDominoSpec leaves out: binding a
// Domino program to its containers, which lowers it to the flat program the
// specification runs — once per spec instance's binding, and in package
// verify once per proof width. One iteration binds the 12 Table-1 programs
// at 8 bits, so B/op and allocs/op are summed over them.
func BenchmarkDominoBind(b *testing.B) {
	bms := spec.All()
	progs := make([]*domino.Program, len(bms))
	for i, bm := range bms {
		r, err := bm.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = r.Program
	}
	w := phv.MustWidth(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range progs {
			if _, err := domino.Bind(p, bms[j].Fields, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuild times what a campaign job's target build does before any
// packet runs: core.Build of all 12 Table-1 programs at one level, from the
// shared resolved spec and machine code. One iteration builds the 12
// pipelines, so B/op and allocs/op are summed over the fixtures.
func BenchmarkBuild(b *testing.B) {
	for _, level := range core.AllLevels() {
		b.Run(level.String(), func(b *testing.B) {
			var fixtures []*spec.Resolved
			for _, bm := range spec.All() {
				r, err := bm.Resolve()
				if err != nil {
					b.Fatal(err)
				}
				fixtures = append(fixtures, r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range fixtures {
					if _, err := core.Build(r.Spec, r.Code, level); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
