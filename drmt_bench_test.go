package druzhba_test

// Extension benches for the dRMT model (§4): schedule quality and
// simulation throughput across processor counts on the L2/L3 switch
// program. The paper reports no dRMT numbers (its dRMT support was ongoing
// work), so these are characterization benches, not reproductions.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"druzhba/internal/drmt"
	"druzhba/internal/p4"
)

func loadL2L3Bench(b *testing.B) *p4.Program {
	b.Helper()
	src, err := os.ReadFile(filepath.Join("internal", "drmt", "testdata", "l2l3.p4"))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p4.Parse(string(src))
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkDRMTSchedule(b *testing.B) {
	prog := loadL2L3Bench(b)
	g, err := p4.BuildDAG(prog)
	if err != nil {
		b.Fatal(err)
	}
	costs := drmt.DefaultCosts(g)
	for _, procs := range []int{2, 4, 8} {
		procs := procs
		b.Run(fmt.Sprintf("greedy-p%d", procs), func(b *testing.B) {
			hw := drmt.HWConfig{Processors: procs}
			var makespan int
			for i := 0; i < b.N; i++ {
				s, err := drmt.ListSchedule(g, costs, hw)
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(float64(makespan), "makespan-cycles")
		})
		b.Run(fmt.Sprintf("bnb-p%d", procs), func(b *testing.B) {
			hw := drmt.HWConfig{Processors: procs}
			var makespan int
			for i := 0; i < b.N; i++ {
				s, err := drmt.OptimalSchedule(g, costs, hw)
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(float64(makespan), "makespan-cycles")
		})
	}
}

func BenchmarkDRMTSimulate(b *testing.B) {
	prog := loadL2L3Bench(b)
	for _, procs := range []int{1, 4} {
		procs := procs
		b.Run(fmt.Sprintf("p%d", procs), func(b *testing.B) {
			m, err := drmt.NewMachine(prog, drmt.NewEntrySet(), drmt.HWConfig{Processors: procs}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ResetState()
				if _, err := m.RunStream(1, 1000, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
