// dbench regenerates Table 1 of the paper: simulation runtime for the
// twelve packet-processing programs at the three optimization levels
// (unoptimized, SCC propagation, SCC + function inlining) plus Druzhba's
// compiled level, each over 50,000 traffic-generator PHVs. Every cell times
// what a campaign executes at that level: sim.NewFuzzer(p).FuzzGen against
// the benchmark's Domino specification — traffic generation, the pipeline,
// the specification and the comparison — on the tick loop over the whole
// grid at the unoptimized level and on the pipeline's fused output cone,
// the specification linked after it, at the others. Every row records how many ALUs of the grid that fuzzer
// executes (live_alus of total_alus) and, where it runs a fused program, the
// program's instruction count. A dRMT section
// follows (the paper reports no dRMT numbers, so it is a characterization
// bench): every embedded dRMT benchmark's differential fuzzing loop is timed
// on the linked flat program it runs. A verify section closes the report: every
// selected program's bounded-equivalence proof at 4, 5, 8 and 10 bits × 2
// steps, with the gates symbolic execution built, the gates, variables and
// clauses the solver was handed, the conflicts it needed and the wall time —
// exact counts beside a timing, so a proof that stops being decided while
// its miter is built shows as numbers, not as a slower run.
//
// Usage:
//
//	dbench                           # full table, 50000 PHVs per cell
//	dbench -phvs 5000                # quicker pass
//	dbench -program rcp,blue-burst   # restrict the RMT rows
//	dbench -drmt-phvs 0              # skip the dRMT section
//	dbench -drmt-bench l2l3          # filter the dRMT section
//	dbench -json BENCH_table1.json   # machine-readable perf trajectory
//	dbench -check -phvs 2000         # ns/PHV regression gate vs baseline
//
// The JSON report records ns/PHV and allocs/PHV per (benchmark × level) and
// per (dRMT benchmark × engine), a per-engine geomean summary, and the Go
// toolchain/CPU the numbers came from; a "baseline" block already present
// in the output file is preserved across regenerations so the perf
// trajectory keeps its reference point.
//
// -check is the CI regression gate: it reruns the selected cells, matches
// them against the checked-in report (-baseline, default BENCH_table1.json)
// and fails when any engine's geomean fresh/baseline ns/PHV ratio exceeds
// 1 + -tolerance; the verify section has no ns/PHV and is not gated.
// -selftest inflates the fresh numbers past the tolerance and requires the
// gate to trip, proving the gate detects regressions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/cli"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
	"druzhba/internal/verify"
)

// Row is one (benchmark × level) cell of the perf report.
type Row struct {
	Benchmark    string  `json:"benchmark"`
	Level        string  `json:"level"`
	MS           int64   `json:"ms"`
	NsPerPHV     float64 `json:"ns_per_phv"`
	AllocsPerPHV float64 `json:"allocs_per_phv"`
	// LiveALUs of TotalALUs is what the timed fuzzer executes per PHV: the
	// pipeline's output cone at prechecked levels, the whole grid at the
	// unoptimized level.
	LiveALUs  int `json:"live_alus"`
	TotalALUs int `json:"total_alus"`
	// Instrs is the length of the pipeline's output cone (Cone().Len()),
	// the live ALU bodies lowered inline at every prechecked level, before
	// flat.Optimize rewrites it into what the fuzzer runs per PHV (sim's
	// TestOracleDispatches pins what that dispatches); absent at the
	// unoptimized level, which has no program.
	Instrs int `json:"instrs,omitempty"`
}

// DRMTRow is one (dRMT benchmark × engine) cell: the differential fuzzing
// loop timed on what a campaign runs ("flat": the ISA program lowered on its
// table entries and the table-level machine, both flat programs linked into
// one).
type DRMTRow struct {
	Benchmark    string  `json:"benchmark"`
	Engine       string  `json:"engine"`
	MS           int64   `json:"ms"`
	NsPerPHV     float64 `json:"ns_per_phv"`
	AllocsPerPHV float64 `json:"allocs_per_phv"`
	PHVsPerSec   float64 `json:"phvs_per_sec"`
	// OpsPerPHV is the instructions of the ISA machine's flat program
	// dispatched per packet of the timed stream, as its counting clone
	// counts them: exact, the same on every host.
	OpsPerPHV float64 `json:"ops_per_phv"`
	// LinkedOpsPerPHV is the same for the linked program the timed loop
	// runs: both sides and the link.
	LinkedOpsPerPHV float64 `json:"linked_ops_per_phv"`
}

// VerifyRow is one proof cell of the verify section: a Table-1 program's
// machine code against its Domino specification at one width.
type VerifyRow struct {
	Program      string  `json:"program"`
	Bits         int     `json:"bits"`
	Steps        int     `json:"steps"`
	Verdict      string  `json:"verdict"`
	GatesBuilt   int     `json:"gates_built"`
	GatesEmitted int     `json:"gates_emitted"`
	Vars         int     `json:"vars"`
	Clauses      int     `json:"clauses"`
	Conflicts    int64   `json:"conflicts"`
	MS           float64 `json:"ms"`
}

// verifyBits × verifySteps is the verify section's grid: the benchmark
// harness's verify-grid widths and the campaign default grid's.
var verifyBits = []int{4, 5, 8, 10}

const verifySteps = 2

// Report is the BENCH_table1.json document.
type Report struct {
	Command    string    `json:"command"`
	GoVersion  string    `json:"go_version,omitempty"`
	CPU        string    `json:"cpu,omitempty"`
	PHVs       int       `json:"phvs"`
	Engine     string    `json:"engine"`
	Rows       []Row     `json:"rows"`
	DRMTPHVs   int       `json:"drmt_phvs,omitempty"`
	DRMTEngine string    `json:"drmt_engine,omitempty"`
	DRMT       []DRMTRow `json:"drmt,omitempty"`
	// Geomeans summarizes the table per engine: the geometric mean ns/PHV
	// across the engine's benchmarks, keyed "rmt/<level>" and
	// "drmt/<engine>". The regression gate (-check) compares these shapes.
	Geomeans map[string]float64 `json:"geomeans,omitempty"`
	// Verify is the proof ledger; -check does not read it.
	Verify   []VerifyRow     `json:"verify,omitempty"`
	Baseline json.RawMessage `json:"baseline,omitempty"`
}

// engineKey groups report cells by execution engine for the geomean summary
// and the regression gate.
func engineKey(arch, engine string) string { return arch + "/" + engine }

// geomeans folds the report's rows into per-engine geometric means of
// ns/PHV. Map iteration never leaks into the output: encoding/json emits
// map keys sorted.
func geomeans(rows []Row, drmtRows []DRMTRow) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rows {
		k := engineKey("rmt", r.Level)
		vals[k] = append(vals[k], r.NsPerPHV)
	}
	for _, r := range drmtRows {
		k := engineKey("drmt", r.Engine)
		vals[k] = append(vals[k], r.NsPerPHV)
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = round2(geomean(v))
	}
	return out
}

// geomean is the geometric mean of strictly positive samples.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// cpuModel identifies the benchmarking CPU for the report's provenance
// header (best effort: /proc/cpuinfo on Linux, the architecture elsewhere).
func cpuModel() string {
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			}
		}
	}
	return runtime.GOARCH
}

func main() {
	fs := flag.NewFlagSet("dbench", flag.ExitOnError)
	phvs := fs.Int("phvs", 50000, "PHVs per benchmark run (the paper uses 50000)")
	program := fs.String("program", "", "comma-separated programs to run (default: all twelve)")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	repeats := fs.Int("repeats", 1, "repetitions per cell (minimum time reported)")
	drmtPHVs := fs.Int("drmt-phvs", 50000, "packets per dRMT differential-fuzz cell (0 = skip the dRMT section)")
	drmtBench := fs.String("drmt-bench", "", "restrict the dRMT section to benchmarks containing this substring")
	jsonPath := fs.String("json", "", "also write the report as JSON to this file (- for stdout)")
	check := fs.Bool("check", false, "regression gate: compare this run's ns/PHV against -baseline and fail past -tolerance")
	baselinePath := fs.String("baseline", "BENCH_table1.json", "checked-in report the -check gate compares against")
	tolerance := fs.Float64("tolerance", 0.25, "-check failure threshold: fail when an engine's geomean fresh/baseline ratio exceeds 1+tolerance")
	selftest := fs.Bool("selftest", false, "with -check: synthesize a regression and require the gate to trip (exit 0 = gate works)")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if *repeats < 1 {
		// A zero-repeat run would report no timing at all (and +Inf
		// PHVs/sec in the dRMT section, which JSON cannot encode).
		*repeats = 1
	}

	benches := spec.All()
	if *program != "" {
		benches = nil
		for _, name := range strings.Split(*program, ",") {
			b, err := spec.Lookup(strings.TrimSpace(name))
			if err != nil {
				cli.Fatalf("dbench: %v", err)
			}
			benches = append(benches, b)
		}
	}

	var rows []Row
	fmt.Printf("Table 1: RMT runtimes with and without optimizations (%d PHVs per run, fuzzed against the Domino specification)\n\n", *phvs)
	fmt.Printf("%-20s %-16s %-12s %14s %14s %18s %14s %10s %7s\n",
		"Program", "Depth, width", "ALU name", "Unoptimized", "SCC prop.", "+ Func. inlining", "Compiled", "Live ALUs", "Instrs")
	for _, bm := range benches {
		times := make(map[core.OptLevel]time.Duration)
		var live, total, instrs int
		for _, level := range core.AllLevels() {
			pipeline, err := bm.Pipeline(level)
			if err != nil {
				cli.Fatalf("dbench: %s/%s: %v", bm.Name, level, err)
			}
			best, allocs, err := measure(pipeline, bm, *seed, *phvs, *repeats)
			if err != nil {
				cli.Fatalf("dbench: %s/%s: %v", bm.Name, level, err)
			}
			times[level] = best
			// What sim.NewFuzzer executes: the fused cone, or the whole grid.
			if cone := pipeline.Cone(); cone != nil {
				live, total = cone.ALUCounts()
				instrs = cone.Len()
			} else {
				s := pipeline.Spec()
				total = s.Depth * s.Width
				if s.StatefulALU != nil {
					total *= 2
				}
				live, instrs = total, 0
			}
			rows = append(rows, Row{
				Benchmark:    bm.Name,
				Level:        level.String(),
				MS:           best.Milliseconds(),
				NsPerPHV:     round2(float64(best.Nanoseconds()) / float64(*phvs)),
				AllocsPerPHV: round4(allocs / float64(*phvs)),
				LiveALUs:     live,
				TotalALUs:    total,
				Instrs:       instrs,
			})
		}
		// live/total are the compiled row's — the cone every prechecked level
		// shares — and so is the instruction count.
		fmt.Printf("%-20s %-16s %-12s %11d ms %11d ms %15d ms %11d ms %10s %7d\n",
			bm.Name,
			fmt.Sprintf("%d,%d", bm.Depth, bm.Width),
			bm.Atom,
			times[core.Unoptimized].Milliseconds(),
			times[core.SCCPropagation].Milliseconds(),
			times[core.SCCInlining].Milliseconds(),
			times[core.Compiled].Milliseconds(),
			fmt.Sprintf("%d/%d", live, total), instrs)
	}
	var drmtRows []DRMTRow
	if *drmtPHVs > 0 {
		benches := drmt.MatchBenchmarks(*drmtBench)
		if len(benches) == 0 {
			cli.Fatalf("dbench: no dRMT benchmark matches %q", *drmtBench)
		}
		fmt.Printf("\ndRMT differential fuzzing (ISA machine vs table-level spec, %d packets per run)\n\n", *drmtPHVs)
		fmt.Printf("%-16s %14s %16s %16s %12s %12s\n", "Program", "Slot engine", "PHVs/sec", "allocs/PHV", "ISA ops/PHV", "linked/PHV")
		for _, bm := range benches {
			row, err := measureDRMT(bm, *seed, *drmtPHVs, *repeats)
			if err != nil {
				cli.Fatalf("dbench: drmt %s: %v", bm.Name, err)
			}
			drmtRows = append(drmtRows, row)
			fmt.Printf("%-16s %11d ms %16.0f %16.4f %12.2f %12.2f\n", bm.Name, row.MS, row.PHVsPerSec, row.AllocsPerPHV, row.OpsPerPHV, row.LinkedOpsPerPHV)
		}
	}

	fmt.Printf("\nVerify: machine code ≡ Domino specification, %d transactions unrolled\n\n", verifySteps)
	fmt.Printf("%-20s %5s %-10s %14s %8s %8s %10s %10s\n", "Program", "bits", "verdict", "gates built", "emitted", "SATvars", "conflicts", "time")
	var verifyRows []VerifyRow
	for _, bm := range benches {
		for _, bits := range verifyBits {
			row, err := measureVerify(bm, bits, *repeats)
			if err != nil {
				cli.Fatalf("dbench: verify %s: %v", bm.Name, err)
			}
			verifyRows = append(verifyRows, row)
			fmt.Printf("%-20s %5d %-10s %14d %8d %8d %10d %7.2f ms\n",
				row.Program, row.Bits, row.Verdict, row.GatesBuilt, row.GatesEmitted, row.Vars, row.Conflicts, row.MS)
		}
	}

	if *jsonPath != "" {
		// Record the actual invocation so a partial run (-program, a
		// non-default -phvs) cannot masquerade as the canonical full-matrix
		// trajectory.
		command := fmt.Sprintf("go run ./cmd/dbench -phvs %d", *phvs)
		if *program != "" {
			command += " -program " + *program
		}
		if *repeats != 1 {
			command += fmt.Sprintf(" -repeats %d", *repeats)
		}
		if *drmtPHVs != 50000 {
			command += fmt.Sprintf(" -drmt-phvs %d", *drmtPHVs)
		}
		if *drmtBench != "" {
			command += " -drmt-bench " + *drmtBench
		}
		command += " -json BENCH_table1.json"
		rep := &Report{
			Command:   command,
			GoVersion: runtime.Version(),
			CPU:       cpuModel(),
			PHVs:      *phvs,
			Engine:    "sim.NewFuzzer(p).FuzzGen against the benchmark's Domino specification, what a campaign executes: the tick loop over the whole grid at the unoptimized level, the fused output cone (one flat register program per pipeline) with the specification linked after it at the others",
			Rows:      rows,
			Verify:    verifyRows,
		}
		if len(drmtRows) > 0 {
			rep.DRMTPHVs = *drmtPHVs
			rep.DRMTEngine = "differential fuzz, the ISA program lowered on its table entries and the table-level machine, linked into one flat program (drmt.DiffFuzzer.FuzzSeeded); ops_per_phv: instructions of the ISA side dispatched per packet, linked_ops_per_phv: of the linked program, exact"
			rep.DRMT = drmtRows
		}
		rep.Geomeans = geomeans(rows, drmtRows)
		if err := writeJSON(*jsonPath, rep); err != nil {
			cli.Fatalf("dbench: %v", err)
		}
	}

	if *check {
		if *selftest {
			// Inflate the fresh numbers far past the tolerance; a working
			// gate must trip on them.
			scale := 2 * (1 + *tolerance)
			for i := range rows {
				rows[i].NsPerPHV *= scale
			}
			for i := range drmtRows {
				drmtRows[i].NsPerPHV *= scale
			}
		}
		err := checkRegression(*baselinePath, rows, drmtRows, *tolerance)
		if *selftest {
			if err == nil {
				cli.Fatalf("dbench: -selftest: gate did not trip on a synthetic %.0f%% regression", 100*2*(1+*tolerance))
			}
			fmt.Printf("\nselftest: gate tripped as required: %v\n", err)
			return
		}
		if err != nil {
			cli.Fatalf("dbench: %v", err)
		}
		fmt.Printf("\ncheck: ns/PHV within %.0f%% of %s per engine\n", 100**tolerance, *baselinePath)
	}
}

// checkRegression compares this run's ns/PHV cells against the checked-in
// baseline report: cells are matched on (benchmark, level/engine), each
// engine's fresh/baseline ratios are folded into a geometric mean, and any
// engine whose geomean exceeds 1+tolerance fails the gate. Cells absent
// from the baseline (new benchmarks, new engines) are skipped, but an
// architecture this run measured must match at least one cell: a relabelled
// engine would otherwise leave the gate blind to it.
func checkRegression(baselinePath string, rows []Row, drmtRows []DRMTRow, tolerance float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("-check: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("-check: %s: %w", baselinePath, err)
	}
	baseNs := map[string]float64{}
	for _, r := range base.Rows {
		baseNs[engineKey("rmt", r.Level)+"/"+r.Benchmark] = r.NsPerPHV
	}
	for _, r := range base.DRMT {
		baseNs[engineKey("drmt", r.Engine)+"/"+r.Benchmark] = r.NsPerPHV
	}
	ratios := map[string][]float64{}
	matched := map[string]int{} // per architecture
	add := func(arch, engine, benchmark string, fresh float64) {
		key := engineKey(arch, engine)
		b, ok := baseNs[key+"/"+benchmark]
		if !ok || b <= 0 || fresh <= 0 {
			return
		}
		ratios[key] = append(ratios[key], fresh/b)
		matched[arch]++
	}
	for _, r := range rows {
		add("rmt", r.Level, r.Benchmark, r.NsPerPHV)
	}
	for _, r := range drmtRows {
		add("drmt", r.Engine, r.Benchmark, r.NsPerPHV)
	}
	for arch, measured := range [...]int{len(rows), len(drmtRows)} {
		if name := [...]string{"rmt", "drmt"}[arch]; measured > 0 && matched[name] == 0 {
			return fmt.Errorf("-check: none of this run's %d %s cells matches a cell of %s", measured, name, baselinePath)
		}
	}
	engines := make([]string, 0, len(ratios))
	for e := range ratios {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	var failures []string
	fmt.Printf("\nregression gate vs %s (tolerance %.0f%%):\n", baselinePath, 100*tolerance)
	for _, e := range engines {
		g := geomean(ratios[e])
		status := "ok"
		if g > 1+tolerance {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s %.2fx", e, g))
		}
		fmt.Printf("  %-24s geomean ratio %.3f over %d cells  %s\n", e, g, len(ratios[e]), status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("-check: ns/PHV regression past %.0f%%: %s", 100*tolerance, strings.Join(failures, ", "))
	}
	return nil
}

// bestOf runs pass once to warm up and then repeats times, and reports the
// fastest pass's wall time together with that pass's heap allocation count.
func bestOf(repeats int, pass func() error) (time.Duration, float64, error) {
	timed := func() (time.Duration, float64, error) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := pass(); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return elapsed, float64(m1.Mallocs - m0.Mallocs), nil
	}
	if _, _, err := timed(); err != nil { // warmup
		return 0, 0, err
	}
	var best time.Duration
	var bestAllocs float64
	for r := 0; r < repeats; r++ {
		elapsed, allocs, err := timed()
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || elapsed < best {
			best, bestAllocs = elapsed, allocs
		}
	}
	return best, bestAllocs, nil
}

// measureDRMT times one dRMT benchmark's differential fuzzing loop on the
// engines a campaign runs.
func measureDRMT(bm *drmt.Benchmark, seed int64, n, repeats int) (DRMTRow, error) {
	prog, err := bm.Program()
	if err != nil {
		return DRMTRow{}, err
	}
	entries, err := bm.Entries(prog)
	if err != nil {
		return DRMTRow{}, err
	}
	f, err := drmt.NewDiffFuzzer(prog, nil, entries, bm.HW)
	if err != nil {
		return DRMTRow{}, err
	}
	best, allocs, err := bestOf(repeats, func() error {
		rep, err := f.FuzzSeeded(seed, n, bm.MaxInput)
		if err != nil {
			return err
		}
		if !rep.Passed() {
			return fmt.Errorf("differential fuzz failed: %d diffs, err=%v", len(rep.Diffs), rep.Err)
		}
		return nil
	})
	if err != nil {
		return DRMTRow{}, err
	}

	// The same stream once more through the ISA machine's RunStream, which
	// counts what its lowered program dispatches on a counting clone.
	isa, err := drmt.NewISAMachine(prog, nil, entries, bm.HW)
	if err != nil {
		return DRMTRow{}, err
	}
	if _, err := isa.RunStream(seed, n, bm.MaxInput); err != nil {
		return DRMTRow{}, err
	}
	ops := isa.Dispatched()
	linked, err := f.Dispatched(seed, n, bm.MaxInput)
	if err != nil {
		return DRMTRow{}, err
	}
	return DRMTRow{
		Benchmark:       bm.Name,
		Engine:          "flat",
		MS:              best.Milliseconds(),
		NsPerPHV:        round2(float64(best.Nanoseconds()) / float64(n)),
		AllocsPerPHV:    round4(allocs / float64(n)),
		PHVsPerSec:      round2(float64(n) / best.Seconds()),
		OpsPerPHV:       round2(float64(ops) / float64(n)),
		LinkedOpsPerPHV: round2(float64(linked) / float64(n)),
	}, nil
}

// measureVerify proves one program at one width, what one cell of a
// verify campaign job does: the problem is prepared once, the cell is the
// timed part.
func measureVerify(bm *spec.Benchmark, bits, repeats int) (VerifyRow, error) {
	r, err := bm.Resolve()
	if err != nil {
		return VerifyRow{}, err
	}
	problem, err := verify.NewProblem(r.Spec, r.Code, r.Program, bm.Fields, verify.Options{Containers: r.Containers, MaxInput: bm.MaxInput})
	if err != nil {
		return VerifyRow{}, err
	}
	var res *verify.Result
	best, _, err := bestOf(repeats, func() error {
		var err error
		res, err = problem.Prove(context.Background(), bits, verifySteps)
		return err
	})
	if err != nil {
		return VerifyRow{}, err
	}
	row := VerifyRow{
		Program: bm.Name, Bits: bits, Steps: verifySteps, Verdict: campaign.VerdictProven,
		GatesBuilt: res.GatesBuilt, GatesEmitted: res.GatesEmitted,
		Vars: res.Vars, Clauses: res.Clauses, Conflicts: res.SolverStats.Conflicts,
		MS: round4(float64(best.Microseconds()) / 1e3),
	}
	switch {
	case res.Unknown:
		row.Verdict = campaign.VerdictUnknown
	case !res.Equivalent:
		row.Verdict = campaign.VerdictCounterexample
	}
	return row, nil
}

// measure times one Fig. 5 fuzz run of n PHVs from a fresh generator:
// sim.NewFuzzer over the pipeline against the benchmark's Domino
// specification, on the loop the fuzzer picks for it at the pipeline's level
// (the fused loop at every prechecked level, the tick loop at unoptimized).
func measure(pipeline *core.Pipeline, bm *spec.Benchmark, seed int64, n, repeats int) (time.Duration, float64, error) {
	r, err := bm.Resolve()
	if err != nil {
		return 0, 0, err
	}
	sp := r.NewSpec()
	f := sim.NewFuzzer(pipeline)
	return bestOf(repeats, func() error {
		gen := sim.NewTrafficGen(seed, pipeline.PHVLen(), pipeline.Bits(), bm.MaxInput)
		rep, err := f.FuzzGen(sp, gen, n, sim.FuzzOptions{Containers: r.Containers}, 0)
		if err != nil {
			return err
		}
		if !rep.Passed() {
			return fmt.Errorf("fuzz failed: %d mismatches, err=%v", len(rep.Mismatches), rep.Err)
		}
		return nil
	})
}

// writeJSON writes the report, preserving any "baseline" block already
// present in the target file so regeneration keeps the trajectory's
// reference point.
func writeJSON(path string, rep *Report) error {
	if path != "-" {
		if prev, err := os.ReadFile(path); err == nil {
			var old Report
			if json.Unmarshal(prev, &old) == nil {
				rep.Baseline = old.Baseline
			}
		}
	}
	if path == "-" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

func round4(v float64) float64 { return math.Round(v*10000) / 10000 }
