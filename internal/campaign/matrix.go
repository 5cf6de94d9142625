package campaign

import (
	"fmt"
	"math"

	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// Matrix builds the RMT campaign job matrix for a set of Table-1
// benchmarks: one job per benchmark × optimization level × traffic mode ×
// seed, each pushing packets random PHVs. It is the programmatic form of
// dfarm's default workload. An empty levels slice means every engine, the
// paper's three plus the compiled extension; an empty traffic slice
// means uniform. Default axis values keep the job names they had before
// the axis existed (only non-default values append a name suffix), so
// reports from pre-axis campaigns stay comparable.
func Matrix(benchmarks []*spec.Benchmark, levels []core.OptLevel, traffic []sim.TrafficMode, seeds []int64, packets int) ([]Job, error) {
	return MatrixWithCorpus(benchmarks, levels, traffic, seeds, packets, nil)
}

// MatrixWithCorpus is Matrix with per-benchmark seed corpora: every job of
// a benchmark present in corpus replays those packets (in order, from
// reset state) at the start of each shard before random traffic. Both mode
// uses this to feed verification counterexample traces back into the
// fuzzer as deterministic regression inputs.
func MatrixWithCorpus(benchmarks []*spec.Benchmark, levels []core.OptLevel, traffic []sim.TrafficMode, seeds []int64, packets int, corpus map[string][][]phv.Value) ([]Job, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("campaign: empty benchmark set")
	}
	levels, seeds = levelAxis(levels), seedAxis(seeds)
	traffic, err := trafficAxis(traffic)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for _, bm := range benchmarks {
		r, err := bm.Resolve()
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", bm.Name, err)
		}
		for _, level := range levels {
			for _, mode := range traffic {
				for _, seed := range seeds {
					name := fmt.Sprintf("rmt/%s/%s/seed=%d", bm.Name, level, seed)
					if mode != "" && mode != sim.TrafficUniform {
						name += "/traffic=" + string(mode)
					}
					jobs = append(jobs, Job{
						Name: name,
						Target: &PipelineTarget{
							Spec:            r.Spec,
							Code:            r.Code,
							Level:           level,
							NewSpec:         bm.SimSpec,
							Containers:      r.Containers,
							MaxInput:        bm.MaxInput,
							Traffic:         mode,
							Corpus:          corpus[bm.Name],
							SpecFingerprint: r.Fingerprint,
						},
						Seed:    seed,
						Packets: packets,
					})
				}
			}
		}
	}
	return jobs, nil
}

// MatrixSize is the number of jobs Matrix builds from that many benchmarks
// and the same axes, counted without building any; a count past
// math.MaxInt reads math.MaxInt. An axis Matrix refuses is the error.
func MatrixSize(benchmarks int, levels []core.OptLevel, traffic []sim.TrafficMode, seeds []int64) (int, error) {
	traffic, err := trafficAxis(traffic)
	if err != nil {
		return 0, err
	}
	return product(benchmarks, len(levelAxis(levels)), len(traffic), len(seedAxis(seeds))), nil
}

// DRMTMatrixSize is MatrixSize for DRMTMatrix.
func DRMTMatrixSize(benchmarks int, procs []int, traffic []drmt.TrafficMode, seeds []int64) (int, error) {
	procs, err := procAxis(procs)
	if err != nil {
		return 0, err
	}
	if traffic, err = trafficAxis(traffic); err != nil {
		return 0, err
	}
	return product(benchmarks, len(procs), len(traffic), len(seedAxis(seeds))), nil
}

// VerifyMatrixSize is MatrixSize for VerifyMatrix, whose only job axis
// besides the benchmarks is the seeds.
func VerifyMatrixSize(benchmarks int, seeds []int64) int {
	return product(benchmarks, len(seedAxis(seeds)))
}

// product multiplies a matrix's axis lengths, saturating at math.MaxInt.
func product(axes ...int) int {
	p := 1
	for _, a := range axes {
		if a > 0 && p > math.MaxInt/a {
			return math.MaxInt
		}
		p *= a
	}
	return p
}

// levelAxis is Matrix's level axis: the levels asked for, or every level.
func levelAxis(levels []core.OptLevel) []core.OptLevel {
	if len(levels) == 0 {
		return core.AllLevels()
	}
	return levels
}

// seedAxis is every matrix's seed axis: the seeds asked for, or seed 1.
func seedAxis(seeds []int64) []int64 {
	if len(seeds) == 0 {
		return []int64{1}
	}
	return seeds
}

// procAxis is DRMTMatrix's processor-count axis: the counts asked for, none
// negative, or 0 alone (each benchmark's default HWConfig).
func procAxis(procs []int) ([]int, error) {
	if len(procs) == 0 {
		return []int{0}, nil
	}
	for _, p := range procs {
		if p < 0 {
			return nil, fmt.Errorf("campaign: negative processor count %d", p)
		}
	}
	return procs, nil
}

// trafficAxis is the traffic axis of either matrix: the modes asked for,
// each a known one, or uniform alone when none is.
func trafficAxis(traffic []phv.TrafficMode) ([]phv.TrafficMode, error) {
	if len(traffic) == 0 {
		return []phv.TrafficMode{phv.TrafficUniform}, nil
	}
	for _, mode := range traffic {
		if err := mode.Check(); err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
	}
	return traffic, nil
}

// Table1Matrix is Matrix over every Table-1 benchmark at every
// optimization level — the paper's three plus the compiled level —
// with uniform traffic and seed 1: the paper's full benchmark sweep, run
// concurrently by dfarm.
func Table1Matrix(packets int) ([]Job, error) {
	return Matrix(spec.All(), core.AllLevels(), nil, nil, packets)
}

// DRMTMatrix builds the dRMT campaign job matrix: one job per dRMT
// benchmark × processor-count variant × traffic mode × seed, each streaming
// packets random packets through the ISA-level machine against the
// interpreted mini-P4 semantics. An empty procs slice (or a 0 entry) uses
// each benchmark's default HWConfig; a positive entry overrides
// HWConfig.Processors, sweeping the schedule-shaping axis of the dRMT
// hardware model. An empty traffic slice means uniform. As in Matrix,
// default axis values keep the pre-axis job names.
func DRMTMatrix(benchmarks []*drmt.Benchmark, procs []int, traffic []drmt.TrafficMode, seeds []int64, packets int) ([]Job, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("campaign: empty dRMT benchmark set")
	}
	procs, err := procAxis(procs)
	if err != nil {
		return nil, err
	}
	if traffic, err = trafficAxis(traffic); err != nil {
		return nil, err
	}
	seeds = seedAxis(seeds)
	var jobs []Job
	for _, bm := range benchmarks {
		prog, err := bm.Program()
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		entries, err := bm.Entries(prog)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		fp := bm.Fingerprint()
		for _, p := range procs {
			hw := bm.HW
			if p > 0 {
				hw.Processors = p
			}
			for _, mode := range traffic {
				for _, seed := range seeds {
					name := fmt.Sprintf("drmt/%s/seed=%d", bm.Name, seed)
					if p > 0 {
						name += fmt.Sprintf("/procs=%d", p)
					}
					if mode != "" && mode != drmt.TrafficUniform {
						name += "/traffic=" + string(mode)
					}
					jobs = append(jobs, Job{
						Name: name,
						Target: &DRMTTarget{
							Program:         prog,
							Entries:         entries,
							HW:              hw,
							MaxInput:        bm.MaxInput,
							Traffic:         mode,
							SpecFingerprint: fp,
						},
						Seed:    seed,
						Packets: packets,
					})
				}
			}
		}
	}
	return jobs, nil
}

// DRMTDefaultMatrix is DRMTMatrix over every registered dRMT benchmark
// with default hardware, uniform traffic and seed 1: dfarm's -arch drmt
// workload.
func DRMTDefaultMatrix(packets int) ([]Job, error) {
	return DRMTMatrix(drmt.Benchmarks(), nil, nil, nil, packets)
}
