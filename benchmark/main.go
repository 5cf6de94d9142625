// Command benchmark is the repo's performance instrument: seven campaign
// workloads (BENCHMARK.json gates six of them) driven from outside through
// the public functions of each layer (campaign, farmd, fabric, sim, drmt,
// verify), in one process, closed loop, one client, GOMAXPROCS = W =
// min(cores, 4).
//
//	go run ./benchmark -workload rmt-fast -seed 1 -seconds 14 -trace 0
//
// measures one workload and prints, as the last line of standard output,
// one JSON object {correct, attempted, failed, metrics}: the end-to-end
// metrics with -trace 0, the per-layer metrics (span ledger plus layer
// probes) with -trace 1. Without -workload it runs every workload both
// ways and prints a human-readable report; -out saves that run for
// -compare. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	if err := run(os.Args[1:], defaultSizes, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// contractResult is the one-line JSON a contract run ends with.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload as -out saves it. A saved file
// holds any number of them: -out appends, so a loop that alternates two
// checkouts builds the two sides of a -compare run by run.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Workers   int                `json:"workers"`
	Go        string             `json:"go"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`

	// Exact, simulated statistics of one rep.
	Work      int64  `json:"work_per_rep"`
	Ticks     int64  `json:"ticks_per_rep"`
	Conflicts int64  `json:"conflicts_per_rep"`
	Hash      string `json:"report_sha256"`
}

func record(r *result, endToEnd, perLayer map[string]float64) runRecord {
	return runRecord{Workload: r.Workload, Seed: r.Seed, Workers: r.Workers, Go: runtime.Version(),
		EndToEnd: endToEnd, PerLayer: perLayer, Attempted: r.Attempted, Failed: r.Failed,
		Work: r.Work, Ticks: r.Ticks, Conflicts: r.Conflicts, Hash: r.Hash}
}

// run is main without the process: tests call it with small sizes.
func run(args []string, sz sizes, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty = every workload, untraced then traced)")
	seed := fs.Int64("seed", 1, "workload seed: every job's traffic seed")
	seconds := fs.Float64("seconds", runSeconds, "how long each workload measures")
	reps := fs.Int("reps", 0, "run exactly this many timed reps instead of measuring for -seconds")
	trace := fs.String("trace", "0", "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass and the layer probes")
	out := fs.String("out", "", "append this run's metric values and exact counts to a JSON file for -compare")
	spansPath := fs.String("spans", "", "write the traced pass's spans as NDJSON to this file at exit")
	compare := fs.Bool("compare", false, "compare two files of saved runs: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two saved runs, got %d arguments", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	traced := false
	switch *trace {
	case "0", "false":
	case "1", "true":
		traced = true
	default:
		return fmt.Errorf("-trace %q (want 0 or 1)", *trace)
	}

	workers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(workers)
	// Scratch lives inside the checkout: cache directories, journals.
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return err
	}
	workdir, err := os.MkdirTemp(".bench_work", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	e := &env{seed: *seed, workers: workers, sizes: sz, workdir: workdir}
	opts := runOpts{seconds: *seconds, reps: *reps, log: stderr}

	var allSpans []span
	defer func() {
		if *spansPath == "" || len(allSpans) == 0 {
			return
		}
		f, err := os.Create(*spansPath)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: -spans:", err)
			return
		}
		defer f.Close()
		if err := writeNDJSON(f, allSpans); err != nil {
			fmt.Fprintln(stderr, "benchmark: -spans:", err)
		}
	}()

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
		}
		opts.traced = traced
		fmt.Fprintf(stderr, "%s: seed=%d W=%d trace=%v\n", w.name, e.seed, workers, traced)
		res, err := runWorkload(w, e, opts)
		if err != nil {
			return err
		}
		cr := contractResult{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
		var rec runRecord
		if traced {
			allSpans = res.spans
			vals, lg := res.ledgerValues()
			lg.write(stderr, fmt.Sprintf("%s: where %d traced reps' wall went", w.name, len(res.Traced)))
			probes, err := runProbes(e, stderr)
			if err != nil {
				return err
			}
			for k, v := range probes {
				vals[k] = v
			}
			if err := fill(cr.Metrics, perLayer, vals); err != nil {
				return err
			}
			printMetrics(stderr, perLayer, vals)
			rec = record(res, nil, vals)
		} else {
			vals := res.endToEndValues()
			if err := fill(cr.Metrics, endToEnd, vals); err != nil {
				return err
			}
			printEndToEnd(stderr, res)
			rec = record(res, vals, nil)
		}
		printVerdict(stderr, res)
		cr.Correct = res.Failed == 0
		if *out != "" {
			if err := save(*out, []runRecord{rec}); err != nil {
				return err
			}
		}
		line, err := json.Marshal(cr)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(line))
		return nil
	}

	// The whole suite: every workload untraced (the end-to-end numbers),
	// then every workload traced (its ledger), then the layer probes once.
	var records []runRecord
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(stderr, "%s: seed=%d W=%d untraced\n", w.name, e.seed, workers)
		res, err := runWorkload(w, e, opts)
		if err != nil {
			return err
		}
		printEndToEnd(stdout, res)
		if w.demoted != "" {
			fmt.Fprintf(stdout, "  not gated (absent from BENCHMARK.json): %s\n", w.demoted)
		}
		printVerdict(stdout, res)
		failed += res.Failed
		records = append(records, record(res, res.endToEndValues(), nil))
	}
	layer := map[string]map[string]float64{}
	var tracedResults []*result
	opts.traced = true
	for i := range workloads {
		w := &workloads[i]
		fmt.Fprintf(stderr, "%s: seed=%d W=%d traced\n", w.name, e.seed, workers)
		res, err := runWorkload(w, e, opts)
		if err != nil {
			return err
		}
		vals, lg := res.ledgerValues()
		lg.write(stdout, fmt.Sprintf("%s: where %d traced reps' wall went", w.name, len(res.Traced)))
		fmt.Fprintln(stdout)
		failed += res.Failed
		layer[w.name] = vals
		tracedResults = append(tracedResults, res)
		if *spansPath != "" {
			allSpans = append(allSpans, res.spans...)
		}
	}
	fmt.Fprintln(stderr, "layer probes")
	probes, err := runProbes(e, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "per-layer metrics (ledger.*, bench.*, process.*, workload.*: one column per workload; the rest are layer probes)")
	printLayerTable(stdout, layer, probes)
	for _, res := range tracedResults {
		vals := layer[res.Workload]
		for k, v := range probes {
			vals[k] = v
		}
		records = append(records, record(res, nil, vals))
	}
	if *out != "" {
		if err := save(*out, records); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// fill copies every metric of defs from vals into dst; a metric the
// harness did not produce is a bug in the harness, not a zero.
func fill(dst map[string]metricValue, defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		dst[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// printEndToEnd prints one workload's end-to-end metrics, the rep times'
// median, quartiles and tail behind verdict_ms, and the exact counts of one
// rep.
func printEndToEnd(w io.Writer, r *result) {
	vals := r.endToEndValues()
	fmt.Fprintf(w, "%s  (W=%d, seed=%d)\n", r.Workload, r.Workers, r.Seed)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-12s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(w, "  %-12s %16.4f %s (work per rep over verdict_ms; printed, not gated)\n", "work_per_s", r.workPerS(), r.Unit)
	// The clocks as read, before anything is divided by the reference loop.
	printClock := func(what string, ts []timing) {
		walls := column(ts, func(t timing) float64 { return t.WallMS })
		q1, q3 := quartiles(walls)
		fmt.Fprintf(w, "  %s wall ms: n=%d median=%.3f q1=%.3f q3=%.3f", what, len(walls), median(walls), q1, q3)
		if pct, v, ok := tailPercentile(walls); ok {
			fmt.Fprintf(w, " p%d=%.3f", pct, v)
		}
		refs := column(ts, func(t timing) float64 { return t.RefMS })
		q1, q3 = quartiles(refs)
		fmt.Fprintf(w, "; reference loop ms: median=%.3f q1=%.3f q3=%.3f (nominal %g)\n", median(refs), q1, q3, refNominalMS)
	}
	printClock("rep", timings(r.Reps))
	printClock("set-up", r.Setups)
	fmt.Fprintf(w, "  exact per rep: work=%d ticks=%d conflicts=%d report_sha256=%.16s\n", r.Work, r.Ticks, r.Conflicts, r.Hash)
}

func printVerdict(w io.Writer, r *result) {
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  operations: attempted=%d failed=%d fail_ratio=%g\n", r.Attempted, r.Failed, ratio)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printLayerTable prints the per-workload ledger metrics side by side and
// the workload-independent probes once.
func printLayerTable(w io.Writer, layer map[string]map[string]float64, probes map[string]float64) {
	fmt.Fprintf(w, "  %-28s", "")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		if _, isProbe := probes[d.Name]; isProbe {
			continue
		}
		fmt.Fprintf(w, "  %-28s", d.Name)
		for _, wl := range workloads {
			fmt.Fprintf(w, " %14.4g", layer[wl.name][d.Name])
		}
		fmt.Fprintf(w, " %s\n", d.Unit)
	}
	fmt.Fprintln(w)
	for _, d := range perLayer {
		if v, ok := probes[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
}

// save appends records to the JSON list at path (creating it).
func save(path string, records []runRecord) error {
	var all []runRecord
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	data, err := json.MarshalIndent(append(all, records...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
