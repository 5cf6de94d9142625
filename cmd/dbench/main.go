// dbench regenerates Table 1 of the paper: simulation runtime for the
// twelve packet-processing programs at the three optimization levels
// (unoptimized, SCC propagation, SCC + function inlining) plus Druzhba's
// closure-compiled engine, each over 50,000 traffic-generator PHVs driven
// through the streaming simulation engine. A dRMT section follows (the
// paper reports no dRMT numbers, so it is a characterization bench): every
// embedded dRMT benchmark's differential fuzzing loop is timed on the
// slot-compiled engines.
//
// A "compiled+cone" level times the compiled pipeline's output cone
// (core.Pipeline.OutputCone — only the ALUs whose results can reach an
// output container, all a Fig. 5 fuzzer executes) on the same streaming
// engine and traffic as the "compiled" row, so the two rows are the
// full-grid/cone before and after. Every row records how many ALUs of the
// grid a fuzzer at that level executes (live_alus of total_alus).
//
// A PHV-batch row rides along with each section. The RMT matrix gains a
// "compiled+batch" level: the struct-of-arrays sim.Batch engine over that
// same output cone, -batch packets per run — at the default, the kernel
// sim.NewFuzzer executes at every prechecked level, so "compiled+cone" vs
// "compiled+batch" is the tick loop's kernel against the planes loop's. The
// dRMT section gains a "slots+batch" engine (the differential fuzzer on
// column-major planes, which no campaign selects), so BENCH_table1.json
// records the batched engines' trajectory next to the streaming ones.
//
// Usage:
//
//	dbench                           # full table, 50000 PHVs per cell
//	dbench -phvs 5000                # quicker pass
//	dbench -program rcp,blue-burst   # restrict the RMT rows
//	dbench -batch 64                 # PHV-batch size for the batch rows (default: the fuzzer's chunk)
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
// 1 + -tolerance. -selftest inflates the fresh numbers past the tolerance
// and requires the gate to trip, proving the gate detects regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"druzhba/internal/cli"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// Row is one (benchmark × level) cell of the perf report.
type Row struct {
	Benchmark    string  `json:"benchmark"`
	Level        string  `json:"level"`
	MS           int64   `json:"ms"`
	NsPerPHV     float64 `json:"ns_per_phv"`
	AllocsPerPHV float64 `json:"allocs_per_phv"`
	// LiveALUs of TotalALUs is what a fuzzer over the row's pipeline
	// executes per PHV: its output cone at prechecked levels, the whole
	// grid at the unoptimized level. The timed engine runs the whole grid
	// on every row but compiled+cone.
	LiveALUs  int `json:"live_alus"`
	TotalALUs int `json:"total_alus"`
}

// DRMTRow is one (dRMT benchmark × engine) cell: the differential fuzzing
// loop timed on the slot-compiled engines, packet at a time ("slots") or on
// column-major planes ("slots+batch").
type DRMTRow struct {
	Benchmark    string  `json:"benchmark"`
	Engine       string  `json:"engine"`
	MS           int64   `json:"ms"`
	NsPerPHV     float64 `json:"ns_per_phv"`
	AllocsPerPHV float64 `json:"allocs_per_phv"`
	PHVsPerSec   float64 `json:"phvs_per_sec"`
}

// Report is the BENCH_table1.json document.
type Report struct {
	Command    string    `json:"command"`
	GoVersion  string    `json:"go_version,omitempty"`
	CPU        string    `json:"cpu,omitempty"`
	PHVs       int       `json:"phvs"`
	Batch      int       `json:"batch,omitempty"`
	Engine     string    `json:"engine"`
	Rows       []Row     `json:"rows"`
	DRMTPHVs   int       `json:"drmt_phvs,omitempty"`
	DRMTEngine string    `json:"drmt_engine,omitempty"`
	DRMT       []DRMTRow `json:"drmt,omitempty"`
	// Geomeans summarizes the table per engine: the geometric mean ns/PHV
	// across the engine's benchmarks, keyed "rmt/<level>" and
	// "drmt/<engine>". The regression gate (-check) compares these shapes.
	Geomeans map[string]float64 `json:"geomeans,omitempty"`
	Baseline json.RawMessage    `json:"baseline,omitempty"`
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

// fuzzerChunk mirrors sim's unexported planeChunk: the packets per run of
// the planes loop sim.NewFuzzer binds to a prechecked pipeline.
const fuzzerChunk = 8

func main() {
	fs := flag.NewFlagSet("dbench", flag.ExitOnError)
	phvs := fs.Int("phvs", 50000, "PHVs per benchmark run (the paper uses 50000)")
	program := fs.String("program", "", "comma-separated programs to run (default: all twelve)")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	repeats := fs.Int("repeats", 1, "repetitions per cell (minimum time reported)")
	batch := fs.Int("batch", fuzzerChunk, "PHV-batch size for the compiled+batch and slots+batch rows (default: the chunk sim.NewFuzzer runs prechecked pipelines at; 0 = skip the rows)")
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
	fmt.Printf("Table 1: RMT runtimes with and without optimizations (%d PHVs per run, streaming engine)\n\n", *phvs)
	fmt.Printf("%-20s %-16s %-12s %14s %14s %18s %14s %14s %14s %10s\n",
		"Program", "Depth, width", "ALU name", "Unoptimized", "SCC prop.", "+ Func. inlining", "Compiled", "Batch", "Cone", "Live ALUs")
	for _, bm := range benches {
		times := make(map[core.OptLevel]time.Duration)
		row := func(level string, pipeline *core.Pipeline, best time.Duration, allocs float64) {
			live, total := pipeline.OutputCone().ALUCounts()
			rows = append(rows, Row{
				Benchmark:    bm.Name,
				Level:        level,
				MS:           best.Milliseconds(),
				NsPerPHV:     round2(float64(best.Nanoseconds()) / float64(*phvs)),
				AllocsPerPHV: round4(allocs / float64(*phvs)),
				LiveALUs:     live,
				TotalALUs:    total,
			})
		}
		var compiled *core.Pipeline
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
			row(level.String(), pipeline, best, allocs)
			if level == core.Compiled {
				compiled = pipeline // the cone and batch rows derive from it
			}
		}
		// The cone the fuzzer executes, twice: on the compiled row's engine
		// and traffic (the cone row), and driven by the struct-of-arrays
		// engine, batch columns at a time (the PHV-batch row). Every pass
		// resets state.
		cone := compiled.OutputCone()
		batchCell := "-"
		if *batch > 0 {
			best, allocs, err := measureBatch(cone, bm, *seed, *phvs, *repeats, *batch)
			if err != nil {
				cli.Fatalf("dbench: %s/compiled+batch: %v", bm.Name, err)
			}
			batchCell = fmt.Sprintf("%d ms", best.Milliseconds())
			row("compiled+batch", cone, best, allocs)
		}
		coneBest, coneAllocs, err := measure(cone, bm, *seed, *phvs, *repeats)
		if err != nil {
			cli.Fatalf("dbench: %s/compiled+cone: %v", bm.Name, err)
		}
		row("compiled+cone", cone, coneBest, coneAllocs)
		live, total := cone.ALUCounts()
		fmt.Printf("%-20s %-16s %-12s %11d ms %11d ms %15d ms %11d ms %14s %11d ms %10s\n",
			bm.Name,
			fmt.Sprintf("%d,%d", bm.Depth, bm.Width),
			bm.Atom,
			times[core.Unoptimized].Milliseconds(),
			times[core.SCCPropagation].Milliseconds(),
			times[core.SCCInlining].Milliseconds(),
			times[core.Compiled].Milliseconds(),
			batchCell,
			coneBest.Milliseconds(),
			fmt.Sprintf("%d/%d", live, total))
	}
	var drmtRows []DRMTRow
	if *drmtPHVs > 0 {
		benches := drmt.MatchBenchmarks(*drmtBench)
		if len(benches) == 0 {
			cli.Fatalf("dbench: no dRMT benchmark matches %q", *drmtBench)
		}
		fmt.Printf("\ndRMT differential fuzzing (ISA machine vs table-level spec, %d packets per run)\n\n", *drmtPHVs)
		fmt.Printf("%-16s %14s %14s %16s %16s\n", "Program", "Slot engine", "Batch engine", "Batch PHVs/sec", "Batch allocs/PHV")
		engines := []string{"slots"}
		if *batch > 0 {
			engines = append(engines, "slots+batch")
		}
		for _, bm := range benches {
			perEngine := make(map[string]DRMTRow, len(engines))
			for _, engine := range engines {
				row, err := measureDRMT(bm, engine, *seed, *drmtPHVs, *repeats, *batch)
				if err != nil {
					cli.Fatalf("dbench: drmt %s/%s: %v", bm.Name, engine, err)
				}
				perEngine[engine] = row
				drmtRows = append(drmtRows, row)
			}
			batchCell, phvsCell, allocsCell := "-", "-", "-"
			if br, ok := perEngine["slots+batch"]; ok {
				batchCell = fmt.Sprintf("%d ms", br.MS)
				phvsCell = fmt.Sprintf("%.0f", br.PHVsPerSec)
				allocsCell = fmt.Sprintf("%.4f", br.AllocsPerPHV)
			}
			fmt.Printf("%-16s %11d ms %14s %16s %16s\n",
				bm.Name, perEngine["slots"].MS, batchCell, phvsCell, allocsCell)
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
		if *batch != fuzzerChunk {
			command += fmt.Sprintf(" -batch %d", *batch)
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
			Batch:     *batch,
			Engine:    "streaming (sim.Stream, prechecked fast path at optimized levels); compiled+cone rows on sim.Stream over the compiled pipeline's output cone; compiled+batch rows on the struct-of-arrays sim.Batch engine over that cone, batch packets per run (at batch 8 the kernel sim.NewFuzzer executes at every prechecked level; unoptimized fuzzers run the tick loop)",
			Rows:      rows,
		}
		if len(drmtRows) > 0 {
			rep.DRMTPHVs = *drmtPHVs
			rep.DRMTEngine = "differential fuzz on the slot-compiled engines (drmt.DiffFuzzer.Fuzz); slots+batch rows on column-major planes"
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
// from the baseline (new benchmarks, new engines) are skipped; an engine
// with no matched cells is skipped too.
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
	matched := 0
	add := func(engine, benchmark string, fresh float64) {
		b, ok := baseNs[engine+"/"+benchmark]
		if !ok || b <= 0 || fresh <= 0 {
			return
		}
		ratios[engine] = append(ratios[engine], fresh/b)
		matched++
	}
	for _, r := range rows {
		add(engineKey("rmt", r.Level), r.Benchmark, r.NsPerPHV)
	}
	for _, r := range drmtRows {
		add(engineKey("drmt", r.Engine), r.Benchmark, r.NsPerPHV)
	}
	if matched == 0 {
		return fmt.Errorf("-check: no cell of this run matches %s", baselinePath)
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

// measureBatch drives n PHVs through the struct-of-arrays batch engine,
// batch columns at a time, repeated repeats times after one warmup pass; it
// reports the best wall time and that pass's heap allocation count. Traffic
// and pipeline state match measure exactly, so the two rows time the same
// work on different engines.
func measureBatch(pipeline *core.Pipeline, bm *spec.Benchmark, seed int64, n, repeats, batch int) (time.Duration, float64, error) {
	b, err := sim.NewBatch(pipeline, batch)
	if err != nil {
		return 0, 0, err
	}
	in := make([]phv.Value, pipeline.PHVLen())
	pass := func() (time.Duration, float64, error) {
		gen := sim.NewTrafficGen(seed, pipeline.PHVLen(), pipeline.Bits(), bm.MaxInput)
		pipeline.ResetState()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for at := 0; at < n; at += batch {
			m := batch
			if n-at < m {
				m = n - at
			}
			for k := 0; k < m; k++ {
				gen.Fill(in)
				b.Load(k, in)
			}
			if err := b.Run(m); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return elapsed, float64(m1.Mallocs - m0.Mallocs), nil
	}
	if _, _, err := pass(); err != nil { // warmup
		return 0, 0, err
	}
	var best time.Duration
	var bestAllocs float64
	for r := 0; r < repeats; r++ {
		elapsed, allocs, err := pass()
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || elapsed < best {
			best, bestAllocs = elapsed, allocs
		}
	}
	return best, bestAllocs, nil
}

// measureDRMT times one dRMT benchmark's differential fuzzing loop on one
// engine ("slots" or "slots+batch"), repeated repeats times after
// one warmup pass; the best pass's wall time and its heap allocation count
// are reported.
func measureDRMT(bm *drmt.Benchmark, engine string, seed int64, n, repeats, batch int) (DRMTRow, error) {
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
	if engine == "slots+batch" {
		f.SetBatch(batch)
	}
	pass := func() (time.Duration, float64, error) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		rep, err := f.FuzzSeeded(seed, n, bm.MaxInput) // batched when SetBatch is active
		if err != nil {
			return 0, 0, err
		}
		if !rep.Passed() {
			return 0, 0, fmt.Errorf("differential fuzz failed: %d diffs, err=%v", len(rep.Diffs), rep.Err)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return elapsed, float64(m1.Mallocs - m0.Mallocs), nil
	}
	if _, _, err := pass(); err != nil { // warmup
		return DRMTRow{}, err
	}
	var best time.Duration
	var bestAllocs float64
	for r := 0; r < repeats; r++ {
		elapsed, allocs, err := pass()
		if err != nil {
			return DRMTRow{}, err
		}
		if best == 0 || elapsed < best {
			best, bestAllocs = elapsed, allocs
		}
	}
	return DRMTRow{
		Benchmark:    bm.Name,
		Engine:       engine,
		MS:           best.Milliseconds(),
		NsPerPHV:     round2(float64(best.Nanoseconds()) / float64(n)),
		AllocsPerPHV: round4(bestAllocs / float64(n)),
		PHVsPerSec:   round2(float64(n) / best.Seconds()),
	}, nil
}

// measure drives n PHVs from a fresh generator through the streaming engine,
// repeated repeats times after one warmup pass, and reports the best wall
// time together with the heap allocation count of that pass.
func measure(pipeline *core.Pipeline, bm *spec.Benchmark, seed int64, n, repeats int) (time.Duration, float64, error) {
	stream := sim.NewStream(pipeline)
	in := make([]phv.Value, pipeline.PHVLen())
	pass := func() (time.Duration, float64, error) {
		gen := sim.NewTrafficGen(seed, pipeline.PHVLen(), pipeline.Bits(), bm.MaxInput)
		pipeline.ResetState()
		stream.Reset()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for fed := 0; fed < n || stream.InFlight() > 0; {
			var admit []phv.Value
			if fed < n {
				gen.Fill(in)
				admit = in
				fed++
			}
			if _, err := stream.Tick(admit); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return elapsed, float64(m1.Mallocs - m0.Mallocs), nil
	}
	if _, _, err := pass(); err != nil { // warmup
		return 0, 0, err
	}
	var best time.Duration
	var bestAllocs float64
	for r := 0; r < repeats; r++ {
		elapsed, allocs, err := pass()
		if err != nil {
			return 0, 0, err
		}
		if best == 0 || elapsed < best {
			best, bestAllocs = elapsed, allocs
		}
	}
	return best, bestAllocs, nil
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
