package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

// passingJobs builds a small matrix of real Table-1 jobs that are known to
// pass (the fixtures are fuzz-verified by package spec's own tests).
func passingJobs(t *testing.T, packets int, seeds ...int64) []Job {
	t.Helper()
	bms := []*spec.Benchmark{}
	for _, name := range []string{"sampling", "snap-heavy-hitter", "conga"} {
		bm, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		bms = append(bms, bm)
	}
	jobs, err := Matrix(bms, []core.OptLevel{core.SCCInlining}, nil, seeds, packets)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// brokenJob returns a job whose specification deliberately disagrees with
// the pipeline: the sampling benchmark's pipeline against a spec demanding
// container 0 always hold 12345.
func brokenJob(t *testing.T, name string, packets int) Job {
	t.Helper()
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	cspec, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Name: name,
		Target: &PipelineTarget{
			Spec:  cspec,
			Code:  code,
			Level: core.SCCInlining,
			NewSpec: func() (sim.Spec, error) {
				return &sim.SpecFunc{SpecName: "always-12345", Fn: func(in *phv.PHV) (*phv.PHV, error) {
					out := in.Clone()
					out.Set(0, 12345)
					return out, nil
				}}, nil
			},
			Containers: []int{0},
		},
		Seed:    7,
		Packets: packets,
	}
}

func deterministicJSON(t *testing.T, r *Report) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, false); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReportDeterministicAcrossWorkers is the engine's core guarantee: the
// same campaign yields a byte-identical report for 1 worker, 4 workers and
// GOMAXPROCS workers, across several seeds, both text and JSON renderings.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		jobs := passingJobs(t, 3000, seed)
		// A failing job too, so determinism covers counterexample paths.
		jobs = append(jobs, brokenJob(t, "broken", 3000))

		var wantJSON, wantText string
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			rep, err := Run(context.Background(), jobs, Options{Workers: workers, ShardSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			gotJSON := deterministicJSON(t, rep)
			gotText := rep.Text(false)
			if wantJSON == "" {
				wantJSON, wantText = gotJSON, gotText
				continue
			}
			if gotJSON != wantJSON {
				t.Fatalf("seed %d: JSON report differs between workers=1 and workers=%d:\n--- want ---\n%s--- got ---\n%s",
					seed, workers, wantJSON, gotJSON)
			}
			if gotText != wantText {
				t.Fatalf("seed %d: text report differs at workers=%d", seed, workers)
			}
		}
	}
}

// TestShardSeedsIndependentOfWorkerCount pins that shard traffic depends
// only on (seed, shard index).
func TestShardSeedsIndependentOfWorkerCount(t *testing.T) {
	if deriveSeed(1, 0) == deriveSeed(1, 1) {
		t.Fatal("adjacent shards share a seed")
	}
	if deriveSeed(1, 0) == deriveSeed(2, 0) {
		t.Fatal("different jobs share a shard seed")
	}
	if deriveSeed(5, 3) != deriveSeed(5, 3) {
		t.Fatal("seed derivation is not a pure function")
	}
}

func TestCampaignPasses(t *testing.T) {
	jobs := passingJobs(t, 2000, 1)
	rep, err := Run(context.Background(), jobs, Options{Workers: 4, ShardSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("campaign failed:\n%s", rep.Text(false))
	}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Status != StatusPass || j.Checked != j.Packets || j.ShardsRun != j.Shards {
			t.Fatalf("job %s: %+v", j.Name, j)
		}
		if j.Ticks == 0 {
			t.Fatalf("job %s: no ticks recorded", j.Name)
		}
	}
	if rep.Timing == nil || rep.Timing.PHVsPerSec <= 0 {
		t.Fatalf("timing not populated: %+v", rep.Timing)
	}
}

func TestCampaignFindsCounterexamples(t *testing.T) {
	jobs := []Job{brokenJob(t, "broken", 4000)}
	rep, err := Run(context.Background(), jobs, Options{Workers: 4, ShardSize: 256, MaxCounterexamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("broken job passed")
	}
	j := rep.Jobs[0]
	if j.Status != StatusFail {
		t.Fatalf("status = %s, want fail", j.Status)
	}
	if len(j.Counterexamples) == 0 || len(j.Counterexamples) > 5 {
		t.Fatalf("got %d counterexamples, want 1..5", len(j.Counterexamples))
	}
	for i := 1; i < len(j.Counterexamples); i++ {
		if j.Counterexamples[i].Packet <= j.Counterexamples[i-1].Packet {
			t.Fatal("counterexamples not in ascending packet order")
		}
	}
	for _, ce := range j.Counterexamples {
		if !strings.Contains(ce.Want, "12345") {
			t.Fatalf("counterexample lost the spec output: %+v", ce)
		}
	}
}

// TestCounterexampleDedup feeds a spec that fails identically on every
// input (outputs are compared on container 0 only, and both sides are
// constant), so every shard reports the same counterexample tuple — the
// merged report must keep it once.
func TestCounterexampleDedup(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	cspec, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name: "constant-divergence",
		Target: &PipelineTarget{
			Spec:  cspec,
			Code:  code,
			Level: core.SCCInlining,
			NewSpec: func() (sim.Spec, error) {
				return &sim.SpecFunc{SpecName: "const", Fn: func(in *phv.PHV) (*phv.PHV, error) {
					out := in.Clone()
					out.Set(0, 1)
					return out, nil
				}}, nil
			},
			Containers: []int{0},
			MaxInput:   1, // every generated value is 0: identical inputs everywhere
		},
		Seed:    3,
		Packets: 2048,
	}
	rep, err := Run(context.Background(), []Job{job}, Options{Workers: 4, ShardSize: 128, MaxCounterexamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	j := rep.Jobs[0]
	if j.Status != StatusFail {
		t.Fatalf("status = %s, want fail:\n%s", j.Status, rep.Text(false))
	}
	if len(j.Counterexamples) != 1 {
		t.Fatalf("got %d counterexamples after dedup, want 1: %+v", len(j.Counterexamples), j.Counterexamples)
	}
}

// TestDistinctCounterexamplesSurviveDuplicates pins that the per-job cap
// applies after deduplication: a run of identical early mismatches must not
// crowd a later, distinct failure mode out of the report.
func TestDistinctCounterexamplesSurviveDuplicates(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	cspec, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name: "two-failure-modes",
		Target: &PipelineTarget{
			Spec:  cspec,
			Code:  code,
			Level: core.SCCInlining,
			NewSpec: func() (sim.Spec, error) {
				// Inputs are all zero (MaxInput=1) and the expected value
				// switches after the third packet, so the first failure mode
				// repeats before the second ever appears.
				k := 0
				return &sim.SpecFunc{SpecName: "two-modes", Fn: func(in *phv.PHV) (*phv.PHV, error) {
					out := in.Clone()
					k++
					if k <= 3 {
						out.Set(0, 100)
					} else {
						out.Set(0, 200)
					}
					return out, nil
				}}, nil
			},
			Containers: []int{0},
			MaxInput:   1,
		},
		Seed:    1,
		Packets: 64,
	}
	rep, err := Run(context.Background(), []Job{job}, Options{Workers: 1, ShardSize: 64, MaxCounterexamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	ces := rep.Jobs[0].Counterexamples
	if len(ces) != 2 {
		t.Fatalf("got %d counterexamples, want both failure modes:\n%s", len(ces), rep.Text(false))
	}
	if !strings.Contains(ces[0].Want, "100") || !strings.Contains(ces[1].Want, "200") {
		t.Fatalf("failure modes missing: %+v", ces)
	}
}

// TestCampaignCancellation: a campaign cancelled mid-run returns the
// context's error and a partial report whose unclaimed shards merge as
// aborted, every job emitted once in matrix order, for one worker, two and
// more workers than jobs (each job has hundreds of shards).
func TestCampaignCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Cancel deterministically from inside the first shard that
			// starts: wall-clock timers are load-sensitive, a hooked spec
			// factory is not.
			jobs := passingJobs(t, 200000, 1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			for i := range jobs {
				pt := jobs[i].Target.(*PipelineTarget)
				inner := pt.NewSpec
				pt.NewSpec = func() (sim.Spec, error) {
					once.Do(cancel)
					return inner()
				}
			}
			var rows streamedRows
			rep, err := Run(ctx, jobs, Options{Workers: workers, ShardSize: 256, OnJobReport: rows.add})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			rows.check(t, jobs, rep)
			if !rep.StoppedEarly {
				t.Fatal("report does not record the early stop")
			}
			aborted := 0
			for i := range rep.Jobs {
				if rep.Jobs[i].Status == StatusAborted {
					aborted++
				}
			}
			if aborted == 0 {
				t.Fatalf("no job recorded as aborted:\n%s", rep.Text(false))
			}
			if rep.Passed {
				t.Fatal("cancelled campaign reported as passed")
			}
		})
	}
}

// streamedRows collects the rows a campaign hands OnJobReport.
type streamedRows struct {
	mu   sync.Mutex
	rows []JobReport
}

func (s *streamedRows) add(jr JobReport) {
	s.mu.Lock()
	s.rows = append(s.rows, jr)
	s.mu.Unlock()
}

// check holds the streamed rows to the contract: every job exactly once, in
// matrix order, each equal to the final report's row.
func (s *streamedRows) check(t *testing.T, jobs []Job, rep *Report) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.rows) != len(jobs) || len(rep.Jobs) != len(jobs) {
		t.Fatalf("streamed %d rows and reported %d, want %d", len(s.rows), len(rep.Jobs), len(jobs))
	}
	for i := range s.rows {
		if s.rows[i].Name != jobs[i].Name {
			t.Fatalf("row %d is %q, want %q (matrix order)", i, s.rows[i].Name, jobs[i].Name)
		}
		if fmt.Sprintf("%+v", s.rows[i]) != fmt.Sprintf("%+v", rep.Jobs[i]) {
			t.Fatalf("streamed row %d differs from final report row:\n%+v\n%+v", i, s.rows[i], rep.Jobs[i])
		}
	}
}

func TestCampaignPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, passingJobs(t, 1000, 1), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range rep.Jobs {
		if got := rep.Jobs[i].Status; got != StatusAborted {
			t.Fatalf("job %s status = %s, want aborted", rep.Jobs[i].Name, got)
		}
	}
}

func TestFailFastStopsEarly(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// The broken job fails in its first shards; fail-fast must
			// prevent the large trailing jobs from completing in full, and
			// still emit every job once, in matrix order.
			jobs := []Job{brokenJob(t, "broken", 512)}
			jobs = append(jobs, passingJobs(t, 500000, 1)...)
			var rows streamedRows
			rep, err := Run(context.Background(), jobs, Options{Workers: workers, ShardSize: 256, FailFast: true, OnJobReport: rows.add})
			if err != nil {
				t.Fatal(err)
			}
			rows.check(t, jobs, rep)
			if !rep.StoppedEarly {
				t.Fatal("fail-fast campaign did not record an early stop")
			}
			if rep.Jobs[0].Status != StatusFail {
				t.Fatalf("broken job status = %s, want fail", rep.Jobs[0].Status)
			}
			var totalPossible, checked int64
			for i := range rep.Jobs {
				totalPossible += int64(rep.Jobs[i].Packets)
				checked += int64(rep.Jobs[i].Checked)
			}
			if checked >= totalPossible {
				t.Fatal("fail-fast ran the full campaign anyway")
			}
		})
	}
}

func TestBuildFailureIsAFinding(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	bad := code.Clone()
	bad.Delete(bad.Names()[0]) // now incompatible with the pipeline
	job := brokenJob(t, "unbuildable", 100)
	job.Target.(*PipelineTarget).Code = bad
	rep, err := Run(context.Background(), []Job{job}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j := rep.Jobs[0]
	if j.Status != StatusError || j.Error == "" {
		t.Fatalf("job = %+v, want build error finding", j)
	}
	if rep.Passed {
		t.Fatal("campaign with unbuildable job passed")
	}
}

func TestRunValidatesJobs(t *testing.T) {
	if _, err := Run(context.Background(), nil, Options{}); err == nil {
		t.Fatal("empty campaign accepted")
	}
	j := brokenJob(t, "dup", 10)
	if _, err := Run(context.Background(), []Job{j, j}, Options{}); err == nil {
		t.Fatal("duplicate job names accepted")
	}
	bad := brokenJob(t, "x", 10)
	bad.Target.(*PipelineTarget).NewSpec = nil
	if _, err := Run(context.Background(), []Job{bad}, Options{}); err == nil {
		t.Fatal("job without spec factory accepted")
	}
	bad = brokenJob(t, "y", 0)
	if _, err := Run(context.Background(), []Job{bad}, Options{}); err == nil {
		t.Fatal("zero-packet job accepted")
	}
	bad = brokenJob(t, "z", 10)
	bad.Target = nil
	if _, err := Run(context.Background(), []Job{bad}, Options{}); err == nil {
		t.Fatal("job without target accepted")
	}
}

// TestRunRefusesTooManyShards: a job's shard count is counted without
// overflow and bounded by MaxJobShards, so a huge packet budget is an error
// naming the job before anything is planned. (Counted as
// (Packets+size-1)/size, math.MaxInt packets wrapped negative and Run
// panicked making the results slice.)
func TestRunRefusesTooManyShards(t *testing.T) {
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		packets, shardSize int
		want               string
	}{
		{math.MaxInt, 0, fmt.Sprintf("(%d packets, 4096 a shard), more than 1048576", math.MaxInt)},
		{1 << 40, 1, "asks for 1099511627776 shards (1099511627776 packets, 1 a shard), more than 1048576"},
	} {
		jobs, err := Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, nil, tc.packets)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), jobs, Options{ShardSize: tc.shardSize, Workers: 1})
		if rep != nil || err == nil || !strings.Contains(err.Error(), jobs[0].Name) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d packets, shard size %d: Run = %v, %v; want an error naming %s with %q", tc.packets, tc.shardSize, rep, err, jobs[0].Name, tc.want)
		}
	}
	// The bound itself is admitted: one shard a packet, MaxJobShards packets.
	jobs, err := Matrix([]*spec.Benchmark{bm}, []core.OptLevel{core.Compiled}, nil, nil, MaxJobShards)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := jobs[0].Shards(1); n != MaxJobShards || err != nil {
		t.Errorf("Shards(1) of a %d-packet job = %d, %v", MaxJobShards, n, err)
	}
	if n, err := jobs[0].Shards(0); n != MaxJobShards/DefaultShardSize || err != nil {
		t.Errorf("Shards(0) of a %d-packet job = %d, %v", MaxJobShards, n, err)
	}
}

func TestTable1MatrixShape(t *testing.T) {
	jobs, err := Table1Matrix(100)
	if err != nil {
		t.Fatal(err)
	}
	want := len(spec.All()) * len(core.AllLevels())
	if len(jobs) != want {
		t.Fatalf("Table1Matrix has %d jobs, want %d", len(jobs), want)
	}
	names := map[string]bool{}
	for _, j := range jobs {
		if names[j.Name] {
			t.Fatalf("duplicate job name %s", j.Name)
		}
		names[j.Name] = true
	}
}

// TestMatrixSizesCountTheBuilders: MatrixSize, DRMTMatrixSize and
// VerifyMatrixSize count what Matrix, DRMTMatrix and VerifyMatrix build,
// with every axis empty (its default) or set, refuse the axes the builders
// refuse, and saturate rather than overflow.
func TestMatrixSizesCountTheBuilders(t *testing.T) {
	bms, dbms := spec.All()[:2], drmt.Benchmarks()[:2]
	traffics := [][]sim.TrafficMode{nil, {sim.TrafficUniform, sim.TrafficBoundary}}
	for _, seeds := range [][]int64{nil, {1, 2, 3}} {
		for _, traffic := range traffics {
			for _, levels := range [][]core.OptLevel{nil, {core.Compiled, core.SCCPropagation}} {
				jobs, err := Matrix(bms, levels, traffic, seeds, 10)
				if n, nerr := MatrixSize(len(bms), levels, traffic, seeds); err != nil || nerr != nil || n != len(jobs) {
					t.Errorf("Matrix(%v, %v, %v) built %d jobs (%v), MatrixSize %d (%v)", levels, traffic, seeds, len(jobs), err, n, nerr)
				}
			}
			for _, procs := range [][]int{nil, {0, 2, 4}} {
				jobs, err := DRMTMatrix(dbms, procs, traffic, seeds, 10)
				if n, nerr := DRMTMatrixSize(len(dbms), procs, traffic, seeds); err != nil || nerr != nil || n != len(jobs) {
					t.Errorf("DRMTMatrix(%v, %v, %v) built %d jobs (%v), DRMTMatrixSize %d (%v)", procs, traffic, seeds, len(jobs), err, n, nerr)
				}
			}
		}
		jobs, err := VerifyMatrix(bms, nil, nil, seeds, 0)
		if n := VerifyMatrixSize(len(bms), seeds); err != nil || n != len(jobs) {
			t.Errorf("VerifyMatrix(%v) built %d jobs (%v), VerifyMatrixSize %d", seeds, len(jobs), err, n)
		}
	}
	if _, err := MatrixSize(1, nil, []sim.TrafficMode{"bursty"}, nil); err == nil {
		t.Error("MatrixSize counted an unknown traffic mode")
	}
	if _, err := DRMTMatrixSize(1, []int{-1}, nil, nil); err == nil {
		t.Error("DRMTMatrixSize counted a negative processor count")
	}
	if n := product(12, math.MaxInt/4, 8); n != math.MaxInt {
		t.Errorf("product overflowed to %d", n)
	}
}

// TestConcurrentExpansionsShareOneResolution: spec.Benchmark.Resolve hands
// every expansion the same spec, fixture, program and containers, so
// matrices expanded and run from several goroutines at once (a daemon
// serving concurrent submissions) read them concurrently. Run under -race:
// nothing on the path from expansion to report may write to them.
func TestConcurrentExpansionsShareOneResolution(t *testing.T) {
	bm, err := spec.Lookup("stateful-firewall")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	reports := make([]string, goroutines)
	specs := make([]core.Spec, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			jobs, err := Matrix([]*spec.Benchmark{bm}, nil, nil, nil, 700) // every level
			if err != nil {
				t.Error(err)
				return
			}
			vjobs, err := VerifyMatrix([]*spec.Benchmark{bm}, []int{3}, []int{2}, nil, 0)
			if err != nil {
				t.Error(err)
				return
			}
			specs[g] = jobs[0].Target.(*PipelineTarget).Spec
			rep, err := Run(context.Background(), append(jobs, vjobs...), Options{Workers: 2, ShardSize: 256})
			if err != nil {
				t.Error(err)
				return
			}
			if !rep.Passed {
				t.Errorf("goroutine %d failed:\n%s", g, rep.Text(false))
			}
			reports[g] = rep.Text(false)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if reports[g] != reports[0] {
			t.Errorf("goroutine %d rendered a different report:\n%s\nvs\n%s", g, reports[g], reports[0])
		}
		if specs[g].StatefulALU != specs[0].StatefulALU {
			t.Errorf("goroutine %d expanded onto its own parse of the atom", g)
		}
	}
}
