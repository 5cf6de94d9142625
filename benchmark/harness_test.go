package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/spec"
)

// tinySizes shrink every matrix so the whole suite smokes in a second or
// two; what runs is the same code path as the benchmark proper.
var tinySizes = sizes{
	table1Packets: 300,
	fastPackets:   600,
	bulkPackets:   600,
	drmtPackets:   500,
	verifyBits:    []int{3},
	verifySteps:   []int{1},
	canaryPackets: 256,
	probePHVs:     128,

	shardProbePackets: 1 << 12,

	refIters: 1000,
}

func tinyEnv(t *testing.T) *env {
	return &env{seed: 7, workers: 2, sizes: tinySizes, workdir: t.TempDir()}
}

// TestEveryWorkloadSmokes runs each workload once untraced and once traced
// on a tiny matrix: every rep's rows meet their known answers, served and
// distributed reports equal the local run's bytes, both canaries FAIL, and
// the traced pass accounts for its reps' wall.
func TestEveryWorkloadSmokes(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e := tinyEnv(t)
			var hash string
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, e, runOpts{reps: 1, traced: traced})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: attempted %d, failed %d: %v", traced, res.Attempted, res.Failed, res.Failures)
				}
				if len(res.Reps) != 1 || len(res.Setups) != minSetups || res.Work == 0 {
					t.Fatalf("traced=%v: %d reps, %d set-ups, work %d", traced, len(res.Reps), len(res.Setups), res.Work)
				}
				if hash == "" {
					hash = res.Hash
				} else if res.Hash != hash {
					t.Errorf("traced report differs from untraced report")
				}
				for name, v := range res.endToEndValues() {
					if !(v > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
					}
				}
				if !traced {
					continue
				}
				vals, lg := res.ledgerValues()
				if lg.SpanNS == 0 || len(lg.Rows) == 0 {
					t.Fatalf("traced pass recorded no spans")
				}
				var shares float64
				for _, k := range []string{"build", "runner", "kernel", "cache", "wire", "unattributed"} {
					shares += vals["ledger."+k+"_pct"]
				}
				if shares < 99.9 || shares > 100.1 {
					t.Errorf("ledger shares sum to %.3f%%, want 100%%", shares)
				}
				// At benchmark size the remainder is under 4% on every
				// workload; millisecond reps leave the engine's own start-up
				// a visible share, so the smoke only rules out a ledger that
				// has lost its spans.
				if u := vals["ledger.unattributed_pct"]; u > 50 {
					t.Errorf("%.1f%% of the traced wall is unattributed", u)
				}
			}
		})
	}
}

// TestProbesCoverEveryLayerMetric: probes plus a traced run's ledger
// together yield every metric BENCHMARK.json promises for -trace 1.
func TestProbesCoverEveryLayerMetric(t *testing.T) {
	e := tinyEnv(t)
	vals, err := runProbes(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(findWorkload("rmt-fast"), e, runOpts{reps: 1, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	ledger, _ := res.ledgerValues()
	for k, v := range ledger {
		vals[k] = v
	}
	if err := fill(map[string]metricValue{}, perLayer, vals); err != nil {
		t.Error(err)
	}
	for k := range vals {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == k
		}
		if !found {
			t.Errorf("harness measures %s but the manifest does not list it", k)
		}
	}
	for _, exact := range []struct {
		name string
		want float64
	}{
		{"farmd.cache.hit_ratio.cold", 0}, {"farmd.cache.hit_ratio.warm", 1}, {"farmd.cache.hit_ratio.diskwarm", 1},
		{"fabric.dispatch.retries", 0}, {"fabric.dispatch.fallback", 0},
	} {
		if vals[exact.name] != exact.want {
			t.Errorf("%s = %v, want exactly %v", exact.name, vals[exact.name], exact.want)
		}
	}
}

// TestCanariesFail pins the two planted bugs: each canary job must come
// back FAIL with counterexamples, for any seed.
func TestCanariesFail(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		jobs, err := canaryJobs(seed, tinySizes.canaryPackets)
		if err != nil {
			t.Fatal(err)
		}
		attempted, failed, rep, err := runCanaries(jobs, 2)
		if err != nil {
			t.Fatal(err)
		}
		if attempted != 2 || failed != 0 {
			t.Errorf("seed %d: %d canaries attempted, %d not failing:\n%s", seed, attempted, failed, rep.Text(false))
		}
	}
}

// TestBlindOracleRaisesFailures: a canary that passes — here, the same two
// programs without the planted bug — counts as a failed operation.
func TestBlindOracleRaisesFailures(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := campaign.Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, _, err := runCanaries(healthy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if attempted != 1 || failed != 1 {
		t.Errorf("a passing canary gave attempted=%d failed=%d, want 1 and 1", attempted, failed)
	}
}

// TestReportMismatchRaisesFailures forces the three kinds of wrong report a
// rep can produce — bytes that differ from the first rep's, a row that
// misses its known answer, bytes that differ from the local reference —
// and checks each one is counted.
func TestReportMismatchRaisesFailures(t *testing.T) {
	e := tinyEnv(t)
	jobs, err := fastJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	canaries, err := canaryJobs(e.seed, e.sizes.canaryPackets)
	if err != nil {
		t.Fatal(err)
	}
	run := func(js []campaign.Job) (*campaign.Report, error) {
		rep, err := campaign.Run(t.Context(), js, campaign.Options{Workers: 1})
		return rep, err
	}
	calls := 0
	flaky := workload{name: "flaky", unit: "PHVs/s", root: "campaign.run", setup: func(*env, string) (*instance, error) {
		return &instance{
			rep: func(*recorder) (*campaign.Report, error) {
				calls++
				if calls == minSetups+warmups+1 { // the first timed rep
					return run(jobs[:len(jobs)-1]) // a rep that loses a row
				}
				return run(jobs)
			},
			close: func() {},
		}, nil
	}}
	res, err := runWorkload(&flaky, e, runOpts{reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || !strings.Contains(strings.Join(res.Failures, "\n"), "differs from the first one") {
		t.Errorf("rep with different bytes: failed=%d %v, want exactly the byte-identity failure", res.Failed, res.Failures)
	}

	wrong := workload{name: "wrong", unit: "PHVs/s", root: "campaign.run", setup: func(*env, string) (*instance, error) {
		return &instance{
			rep:       func(*recorder) (*campaign.Report, error) { return run(append(jobs[:1:1], canaries[0])) },
			reference: func() (*campaign.Report, error) { return run(jobs[:1]) },
			close:     func() {},
		}, nil
	}}
	res, err = runWorkload(&wrong, e, runOpts{reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every rep (the set-ups', the warm-ups and the timed one) has one
	// failing row, and the reference differs.
	if want := minSetups + warmups + 1 + 1; res.Failed != want {
		t.Errorf("failing row + reference mismatch: failed=%d %v, want %d", res.Failed, res.Failures, want)
	}
}

// TestContractOutput runs the command the way the driver does and checks
// the last line of standard output.
func TestContractOutput(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		out := filepath.Join(t.TempDir(), "runs.json")
		args := []string{"--workload", "farmd-warm", "--seed", "3", "--seconds", "0.05", "--trace", c.trace, "-out", out}
		if err := run(args, tinySizes, &stdout, &stderr); err != nil {
			t.Fatalf("trace %s: %v\n%s", c.trace, err, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got contractResult
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", c.trace, err)
		}
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", c.trace, got.Correct, got.Attempted, got.Failed)
		}
		if len(got.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(got.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v), want unit %s", c.trace, d.Name, m, ok, d.Unit)
			}
		}
		recs, err := loadRuns(out)
		if err != nil || len(recs) != 1 || recs[0].Workload != "farmd-warm" || recs[0].Seed != 3 {
			t.Errorf("trace %s: -out wrote %+v, %v", c.trace, recs, err)
		}
	}
	if entries, _ := os.ReadDir(".bench_work"); len(entries) != 0 {
		t.Errorf("run left %d entries in .bench_work", len(entries))
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"--workload", "no-such"}, tinySizes, &stdout, &stderr); err == nil || stdout.Len() != 0 {
		t.Errorf("unknown workload: err=%v, stdout %q; want an error and no result", err, stdout.String())
	}
}

// TestCompare: -out appends run by run, and -compare judges the two files.
func TestCompare(t *testing.T) {
	rec := func(seed int64, verdict float64) runRecord {
		return runRecord{Workload: "rmt-fast", Seed: seed, Workers: 2, Work: 1200, Ticks: 1300, Hash: "abc",
			EndToEnd: map[string]float64{"verdict_ms": verdict, "alloc_mb": 3.5, "setup_s": 0.4}}
	}
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	for i := 0; i < 5; i++ {
		for path, v := range map[string]float64{a: 400 + float64(i), b: 404 - float64(i), c: 460 + float64(i)} {
			if err := save(path, []runRecord{rec(1, v)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	if err := compareFiles(a, b, &buf); err != nil {
		t.Errorf("same speed: %v\n%s", err, buf.String())
	}
	if n := strings.Count(buf.String(), verdictWithin); n != len(endToEnd) {
		t.Errorf("same speed: %d rows within bound, want %d\n%s", n, len(endToEnd), buf.String())
	}
	buf.Reset()
	if err := compareFiles(a, c, &buf); err == nil || !strings.Contains(buf.String(), verdictWorse) {
		t.Errorf("15%% slower on runs that repeat within 1%%: err=%v\n%s", err, buf.String())
	}
	// Same workload and seed, different simulated counts: never acceptable.
	drift := rec(1, 400)
	drift.Ticks++
	buf.Reset()
	if err := compareRuns([]runRecord{rec(1, 400)}, []runRecord{drift}, &buf); err == nil || !strings.Contains(buf.String(), "exact counts differ") {
		t.Errorf("tick drift: err=%v\n%s", err, buf.String())
	}
}

// manifest is BENCHMARK.json as the harness defines it.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []metricDef     `json:"end_to_end"`
	PerLayer   []metricDef     `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func currentManifest() manifest {
	m := manifest{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if w.demoted == "" {
			m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
		}
	}
	return m
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the harness's workload and metric lists")

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json in step with the
// harness and inside the limits its contract sets.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(currentManifest()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", want.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go test ./benchmark -run TestManifestMatchesBenchmarkJSON -update`")
	}
	m := currentManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters, limit 200, one line", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range m.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(want.Bytes()) > 64<<10 {
		t.Errorf("run_seconds %d, manifest %d bytes", m.RunSeconds, want.Len())
	}
	for _, arg := range m.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}
