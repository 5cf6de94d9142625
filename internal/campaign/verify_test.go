package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"druzhba/internal/core"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
	"druzhba/internal/verify"
	"druzhba/internal/verify/verifytest"
)

// verifyJobsFor builds the verification matrix for the named benchmarks at
// a small, fast proof grid.
func verifyJobsFor(t *testing.T, names []string, bits, steps []int, maxConflicts int64) []Job {
	t.Helper()
	var benchmarks []*spec.Benchmark
	for _, name := range names {
		bm, err := spec.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		benchmarks = append(benchmarks, bm)
	}
	jobs, err := VerifyMatrix(benchmarks, bits, steps, nil, maxConflicts)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// corruptedSampling returns the sampling fixture with its stateful rel_op
// flipped (== -> !=) — machine code the prover refutes at 5 bits — along
// with everything needed to build verify and fuzz targets over it.
func corruptedSampling(t *testing.T) (*spec.Benchmark, core.Spec, *machinecode.Program) {
	t.Helper()
	bm, err := spec.Lookup("sampling")
	if err != nil {
		t.Fatal(err)
	}
	hw, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	code, err := bm.MachineCode()
	if err != nil {
		t.Fatal(err)
	}
	name := machinecode.ALUHoleName(0, true, 0, "rel_op_0")
	v, ok := code.Get(name)
	if !ok {
		t.Fatalf("fixture is missing %q", name)
	}
	code.Set(name, 1-v)
	return bm, hw, code
}

// corruptedVerifyJob wraps the corrupted sampling code in a one-cell
// verification job at 5 bits × 2 steps.
func corruptedVerifyJob(t *testing.T) Job {
	t.Helper()
	bm, hw, code := corruptedSampling(t)
	prog, err := bm.DominoProgram()
	if err != nil {
		t.Fatal(err)
	}
	containers, err := bm.CompareContainers()
	if err != nil {
		t.Fatal(err)
	}
	target := &VerifyTarget{
		Benchmark:       bm.Name,
		Spec:            hw,
		Code:            code,
		Prog:            prog,
		Fields:          bm.Fields,
		Containers:      containers,
		MaxInput:        bm.MaxInput,
		Bits:            []int{5},
		Steps:           []int{2},
		SpecFingerprint: bm.Fingerprint(),
		Seed:            1,
	}
	return Job{Name: "verify/sampling-corrupt/seed=1", Target: target, Seed: 1, Packets: 1}
}

// commutedMulJob is a verification job over verifytest.CommutedMul, the
// fixture whose proof is a SAT search (454 conflicts at 5 bits, 83 at 4):
// the Table-1 cells are decided while their miter is built and cost the
// solver nothing.
func commutedMulJob(bits []int, maxConflicts int64) Job {
	hw, code, prog, fields := verifytest.CommutedMul()
	target := &VerifyTarget{
		Benchmark:    prog.Name,
		Spec:         hw,
		Code:         code,
		Prog:         prog,
		Fields:       fields,
		Bits:         bits,
		Steps:        []int{1},
		MaxConflicts: maxConflicts,
		Seed:         1,
	}
	return Job{Name: "verify/" + prog.Name + "/seed=1", Target: target, Seed: 1, Packets: len(bits)}
}

// TestVerifyReportByteIdenticalAcrossWorkers pins the tentpole determinism
// guarantee: a verify-mode report renders byte-identically for every
// worker count, with cells in bits-major grid order.
func TestVerifyReportByteIdenticalAcrossWorkers(t *testing.T) {
	names := []string{"sampling", "rcp"}
	bits, steps := []int{3, 5}, []int{2}
	var renders []string
	var rep1 *Report
	for _, workers := range []int{1, 4} {
		rep, err := Run(context.Background(), verifyJobsFor(t, names, bits, steps, 0), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if rep1 == nil {
			rep1 = rep
		}
		renders = append(renders, render(t, rep))
	}
	if renders[0] != renders[1] {
		t.Fatalf("verify report differs across workers:\n--- workers=1\n%s\n--- workers=4\n%s", renders[0], renders[1])
	}
	if !rep1.Passed {
		t.Fatalf("expected every benchmark proven:\n%s", rep1.Text(false))
	}
	for _, jr := range rep1.Jobs {
		if jr.Mode != ModeVerify || jr.Status != StatusPass {
			t.Fatalf("job %s: mode=%s status=%s", jr.Name, jr.Mode, jr.Status)
		}
		if len(jr.Cells) != len(bits)*len(steps) {
			t.Fatalf("job %s: %d cells, want %d", jr.Name, len(jr.Cells), len(bits)*len(steps))
		}
		for i, cell := range jr.Cells {
			wantBits, wantSteps := bits[i/len(steps)], steps[i%len(steps)]
			if cell.Bits != wantBits || cell.Steps != wantSteps {
				t.Fatalf("job %s cell %d: (%d,%d), want (%d,%d) — cells must merge in grid order",
					jr.Name, i, cell.Bits, cell.Steps, wantBits, wantSteps)
			}
			if cell.Verdict != VerdictProven {
				t.Fatalf("job %s cell %d: verdict %s", jr.Name, i, cell.Verdict)
			}
		}
	}
}

// TestVerifyWarmCacheReprovesNothing pins the caching acceptance
// criterion: resubmitting an unchanged verification matrix performs zero
// SAT solves (counted inside the verifier) and zero cache misses, while
// rendering byte-identically to the cold run.
func TestVerifyWarmCacheReprovesNothing(t *testing.T) {
	cache := newMapCache()
	jobs := func() []Job { return verifyJobsFor(t, []string{"sampling", "conga"}, []int{3, 4}, []int{2}, 0) }
	opts := Options{Workers: 2, Cache: cache}

	cold, err := Run(context.Background(), jobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache.Misses == 0 || cold.Cache.Hits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d", cold.Cache.Hits, cold.Cache.Misses)
	}

	before := verify.SolveCount()
	warm, err := Run(context.Background(), jobs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if solves := verify.SolveCount() - before; solves != 0 {
		t.Fatalf("warm resubmission performed %d SAT solves, want 0", solves)
	}
	if warm.Cache.Misses != 0 {
		t.Fatalf("warm run: %d cache misses, want 0", warm.Cache.Misses)
	}
	if warm.Cache.Hits != cold.Cache.Misses {
		t.Fatalf("warm hits=%d, want %d (every cold miss replayed)", warm.Cache.Hits, cold.Cache.Misses)
	}
	if a, b := render(t, cold), render(t, warm); a != b {
		t.Fatalf("warm report differs from cold:\n--- cold\n%s\n--- warm\n%s", a, b)
	}
}

// TestVerifyBudgetExhaustionIsUnknown pins the deterministic unknown
// verdict: a solver conflict budget too small for the instance yields
// StatusUnknown (not pass, not error), the report fails overall, and the
// cell spent exactly its budget (-budget is a per-cell bound on conflicts,
// not on restarts).
func TestVerifyBudgetExhaustionIsUnknown(t *testing.T) {
	for _, budget := range []int64{1, 150} {
		rep, err := Run(context.Background(), []Job{commutedMulJob([]int{5}, budget)}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed {
			t.Fatal("unknown cells must not pass the campaign")
		}
		jr := rep.Jobs[0]
		if jr.Status != StatusUnknown {
			t.Fatalf("status %s, want %s", jr.Status, StatusUnknown)
		}
		if len(jr.Cells) != 1 || jr.Cells[0].Verdict != VerdictUnknown {
			t.Fatalf("cells = %+v, want one unknown cell", jr.Cells)
		}
		if jr.Cells[0].Conflicts != budget {
			t.Fatalf("budget %d: cell reports %d conflicts", budget, jr.Cells[0].Conflicts)
		}
	}
}

// TestVerifyEmptyComparisonIsJobError: a Domino program that writes only
// state compares no container, and a proof of nothing used to come back
// PROVEN for any machine code. The verifier refuses the question when the
// target is built, which the campaign reports as the job's error row with
// no cell decided.
func TestVerifyEmptyComparisonIsJobError(t *testing.T) {
	hw, code, prog, fields := verifytest.StateOnly()
	target := &VerifyTarget{
		Benchmark: prog.Name, Spec: hw, Code: code, Prog: prog, Fields: fields,
		Bits: []int{4}, Steps: []int{2}, Seed: 1,
	}
	rep, err := Run(context.Background(), []Job{{Name: "verify/state-only/seed=1", Target: target, Seed: 1, Packets: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	const want = "verify: nothing to compare: the Domino program writes no packet field and no state is bound (Options.StateBindings, dverify -state), so any machine code would be proved"
	if rep.Passed || jr.Status != StatusError || !strings.Contains(jr.Error, want) || len(jr.Cells) != 0 {
		t.Fatalf("status %s, error %q, %d cells; want an error row carrying %q", jr.Status, jr.Error, len(jr.Cells), want)
	}
}

// TestVerifySpecThatCanFailIsJobError: a cell whose specification can fail
// is not proven; the failure is the job's error row, as a fuzz job's spec
// failure is.
func TestVerifySpecThatCanFailIsJobError(t *testing.T) {
	hw, code, prog, fields, containers, maxInput := verifytest.CanFail()
	target := &VerifyTarget{
		Benchmark: prog.Name, Spec: hw, Code: code, Prog: prog, Fields: fields,
		Containers: containers, MaxInput: maxInput, Bits: []int{2}, Steps: []int{1}, Seed: 1,
	}
	rep, err := Run(context.Background(), []Job{{Name: "verify/can-fail/seed=1", Target: target, Seed: 1, Packets: 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr := rep.Jobs[0]
	const want = `domino: local "x" read before assignment`
	if rep.Passed || jr.Status != StatusError || !strings.Contains(jr.Error, want) {
		t.Fatalf("status %s, error %q; want an error row carrying %q", jr.Status, jr.Error, want)
	}
}

// TestVerifyCounterexampleReproducesAsFuzzMismatch is the differential
// test of the verify→fuzz feedback loop: a seeded miscompile's SAT
// counterexample trace, decoded to concrete PHVs, must reproduce as a
// fuzzer mismatch at exactly the transaction the prover reported — both
// replayed directly through sim.Fuzz and seeded as corpus traffic
// into a fuzz campaign.
func TestVerifyCounterexampleReproducesAsFuzzMismatch(t *testing.T) {
	job := corruptedVerifyJob(t)
	vrep, err := Run(context.Background(), []Job{job}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	jr := vrep.Jobs[0]
	if jr.Status != StatusFail {
		t.Fatalf("corrupted sampling: status %s, want fail:\n%s", jr.Status, vrep.Text(false))
	}
	if len(jr.Counterexamples) == 0 {
		t.Fatal("refuted cell must surface a counterexample row")
	}
	if len(jr.Cells) != 1 || jr.Cells[0].Verdict != VerdictCounterexample {
		t.Fatalf("cells = %+v, want one counterexample cell", jr.Cells)
	}
	cell := jr.Cells[0]
	if len(cell.Trace) != 2 {
		t.Fatalf("trace has %d steps, want 2 (the unrolling depth)", len(cell.Trace))
	}

	// Differential replay: the decoded trace through the simulator must
	// diverge at cell.FailStep for every counterexample.
	bm, hw, code := corruptedSampling(t)
	target := job.Target.(*VerifyTarget)
	hw.Bits = mustWidth(t, cell.Bits)
	pipe, err := core.Build(hw, code, core.SCCInlining)
	if err != nil {
		t.Fatal(err)
	}
	simSpec, err := bm.SimSpec()
	if err != nil {
		t.Fatal(err)
	}
	input := phv.NewTrace()
	for _, row := range cell.Trace {
		vals := make([]phv.Value, len(row))
		for c, v := range row {
			vals[c] = phv.Value(v)
		}
		input.Append(phv.FromValues(vals))
	}
	replay, err := sim.Fuzz(pipe, simSpec, input, sim.FuzzOptions{Containers: target.Containers})
	if err != nil {
		t.Fatal(err)
	}
	if replay.Passed || replay.Err != nil {
		t.Fatalf("verify counterexample did not reproduce as a fuzz mismatch: %v", replay)
	}
	if got := replay.FailIndex; got != cell.FailStep {
		t.Fatalf("fuzz mismatch at step %d, verifier reported step %d", got, cell.FailStep)
	}

	// Corpus feedback: the harvested trace seeded into a fuzz campaign
	// must fail deterministically at packet == FailStep, identically for
	// every worker count.
	corpus := HarvestVerifyCorpus(vrep)
	if len(corpus[bm.Name]) != len(cell.Trace) {
		t.Fatalf("harvested %d corpus packets, want %d", len(corpus[bm.Name]), len(cell.Trace))
	}
	hwNative, err := bm.Spec()
	if err != nil {
		t.Fatal(err)
	}
	fuzzJob := Job{
		Name: "rmt/sampling-corrupt/scc+inline/seed=1",
		Target: &PipelineTarget{
			Spec:            hwNative,
			Code:            code,
			Level:           core.SCCInlining,
			NewSpec:         bm.SimSpec,
			Containers:      target.Containers,
			MaxInput:        bm.MaxInput,
			Corpus:          corpus[bm.Name],
			SpecFingerprint: bm.Fingerprint(),
		},
		Seed:    1,
		Packets: 64,
	}
	var renders []string
	for _, workers := range []int{1, 4} {
		frep, err := Run(context.Background(), []Job{fuzzJob}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		fjr := frep.Jobs[0]
		if fjr.Status != StatusFail || len(fjr.Counterexamples) == 0 {
			t.Fatalf("seeded fuzz campaign: status %s with %d counterexamples", fjr.Status, len(fjr.Counterexamples))
		}
		if got := fjr.Counterexamples[0].Packet; got != cell.FailStep {
			t.Fatalf("first fuzz counterexample at packet %d, want %d (the seeded trace's fail step)", got, cell.FailStep)
		}
		renders = append(renders, render(t, frep))
	}
	if renders[0] != renders[1] {
		t.Fatalf("corpus-seeded fuzz report differs across workers:\n--- workers=1\n%s\n--- workers=4\n%s", renders[0], renders[1])
	}
}

func mustWidth(t *testing.T, bits int) phv.Width {
	t.Helper()
	w, err := phv.NewWidth(bits)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestVerifyJobValidation pins the shard↔cell addressing invariants: a
// verify job whose packet count or seed disagrees with its target is
// rejected before anything runs.
func TestVerifyJobValidation(t *testing.T) {
	base := verifyJobsFor(t, []string{"sampling"}, []int{3, 4}, []int{2}, 0)[0]

	wrongPackets := base
	wrongPackets.Packets = 7
	if _, err := Run(context.Background(), []Job{wrongPackets}, Options{}); err == nil || !strings.Contains(err.Error(), "proof grid") {
		t.Fatalf("mismatched Packets: err = %v", err)
	}

	wrongSeed := base
	wrongSeed.Seed = 99
	if _, err := Run(context.Background(), []Job{wrongSeed}, Options{}); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("mismatched Seed: err = %v", err)
	}
}

// ctxBlockTarget is a stub ContextRunner whose shards block until their
// context is cancelled — a stand-in for a wedged SAT proof. It records
// that the context actually fired, pinning the engine's deadline
// propagation (not just its abandonment timer).
type ctxBlockTarget struct {
	once  sync.Once
	fired chan struct{}
}

func (c *ctxBlockTarget) Arch() string               { return "stub" }
func (c *ctxBlockTarget) Engine() string             { return "ctxblock" }
func (c *ctxBlockTarget) Build() (Instance, error)   { return c, nil }
func (c *ctxBlockTarget) NewRunner() (Runner, error) { return c, nil }
func (c *ctxBlockTarget) RunShard(seed int64, n int) ShardResult {
	return c.RunShardContext(context.Background(), seed, n)
}
func (c *ctxBlockTarget) RunShardContext(ctx context.Context, seed int64, n int) ShardResult {
	<-ctx.Done()
	c.once.Do(func() { close(c.fired) })
	return ShardResult{Err: ctx.Err()}
}

// TestJobTimeoutCancelsWedgedContextRunner pins satellite robustness: a
// job timeout must propagate a context cancellation into a context-aware
// runner (a wedged SAT solve), so the shard goroutine exits instead of
// leaking forever, and the job reports a deterministic timeout error.
func TestJobTimeoutCancelsWedgedContextRunner(t *testing.T) {
	target := &ctxBlockTarget{fired: make(chan struct{})}
	job := Job{Name: "stub/wedged", Target: target, Seed: 1, Packets: 1}
	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(context.Background(), []Job{job}, Options{Workers: 1, JobTimeout: 100 * time.Millisecond})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	var rep *Report
	select {
	case rep = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign wedged behind a blocking runner despite JobTimeout")
	}
	select {
	case <-target.fired:
	case <-time.After(5 * time.Second):
		t.Fatal("job deadline never cancelled the runner's context (goroutine leaked)")
	}
	jr := rep.Jobs[0]
	if jr.Status != StatusError || !strings.Contains(jr.Error, "wall-clock budget") {
		t.Fatalf("status=%s error=%q, want a wall-clock budget error", jr.Status, jr.Error)
	}
}

// TestVerifyCancellationNotCached pins the cache-poisoning guard: an
// Unknown produced by context cancellation is a shard error, never a
// cached verdict, so a later uncancelled run still proves the cell.
func TestVerifyCancellationNotCached(t *testing.T) {
	cache := newMapCache()
	jobs := func() []Job { return verifyJobsFor(t, []string{"sampling"}, []int{3}, []int{2}, 0) }

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, jobs(), Options{Cache: cache}); err == nil {
		t.Fatal("pre-cancelled run should report the context error")
	}
	if n := len(cache.entries); n != 0 {
		t.Fatalf("cancelled run stored %d cache entries, want 0", n)
	}

	rep, err := Run(context.Background(), jobs(), Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("clean rerun should prove the cell:\n%s", rep.Text(false))
	}
}

// TestVerifyFingerprintGolden pins VerifyTarget fingerprints, which hash the
// machine code's digest (machinecode.Program.Digest) next to the proof grid
// and key every cached cell: a change to how that text reaches the hash must
// not move them. A deliberate change of a verify job's identity is the only
// reason to touch these.
func TestVerifyFingerprintGolden(t *testing.T) {
	for _, grid := range []struct {
		bits, steps []int
		conflicts   int64
		want        []string // sampling, learn-filter
	}{
		{nil, nil, 0, []string{
			"92113ea3e50adeacc96b8f1b57f2644a07d346fb6e3ec9f2e67c691f6e0619e7",
			"a3b195de1e16b84699add810da654d1349fc57c30415773b5031e2dc9daf7f03",
		}},
		{[]int{4, 6}, []int{2}, 1000, []string{
			"fedbdcad37ce30bfa991782db6e1243efb468cfb3d89ce02f7d9c772c80286b2",
			"4c4260da531d0c94b480b951fee0940c8c42193db3d6e10d7017896a20963723",
		}},
	} {
		jobs := verifyJobsFor(t, []string{"sampling", "learn-filter"}, grid.bits, grid.steps, grid.conflicts)
		if len(jobs) != len(grid.want) {
			t.Fatalf("bits %v steps %v: %d jobs, %d golden fingerprints", grid.bits, grid.steps, len(jobs), len(grid.want))
		}
		for i, j := range jobs {
			if got := j.Target.(*VerifyTarget).Fingerprint(); got != grid.want[i] {
				t.Errorf("%s, bits %v steps %v conflicts %d: fingerprint %s, golden %s", j.Name, grid.bits, grid.steps, grid.conflicts, got, grid.want[i])
			}
		}
	}
}
