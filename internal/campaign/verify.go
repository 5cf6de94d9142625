package campaign

import (
	"context"
	"fmt"
	"time"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/machinecode"
	"druzhba/internal/phv"
	"druzhba/internal/sat"
	"druzhba/internal/spec"
	"druzhba/internal/verify"
)

// Verdicts of one verification cell.
const (
	VerdictProven         = "proven"         // UNSAT: machine code ≡ spec at (bits, steps)
	VerdictCounterexample = "counterexample" // SAT: a concrete diverging input trace exists
	VerdictUnknown        = "unknown"        // solver conflict budget exhausted
)

// VerifyCell is one decided cell of a verification job: a bounded
// equivalence check at one (bit width, transaction-unrolling) point.
// Everything serialized here is a pure function of (spec, machine code,
// bits, steps, budget) — the solver is single-threaded and deterministic —
// so cells flow through the content-addressed shard cache and replay
// byte-identically. SolveMS is the one nondeterministic field; it, the
// search counters in Search and the gate counts are excluded from
// serialization (and therefore from cached replays, which show them as zero)
// and only surface in metadata renderings.
type VerifyCell struct {
	Bits      int    `json:"bits"`
	Steps     int    `json:"steps"`
	Verdict   string `json:"verdict"`
	Vars      int    `json:"vars"`    // SAT variables in the emitted instance (1: the miter folded while it was built)
	Clauses   int    `json:"clauses"` // SAT problem clauses in the emitted instance
	Conflicts int64  `json:"conflicts"`

	// On VerdictCounterexample: the diverging input trace (Steps rows of
	// container values) and the first transaction whose outputs differ.
	// The trace replays deterministically from reset state — it is the
	// seed-corpus feedback fed to the fuzzer in both mode.
	Trace    [][]int64 `json:"trace,omitempty"`
	FailStep int       `json:"fail_step,omitempty"`

	// SolveMS is wall-clock solve time: nondeterministic, never
	// serialized, shown only in metadata renderings.
	SolveMS float64 `json:"-"`

	// Search is the solver's effort on this cell beyond Conflicts —
	// decisions, propagations, restarts, learnt and removed clauses — for
	// -timing renderings and the engine's sat_* counters. Deterministic,
	// but kept out of serialized, cached and hashed bytes so that reports
	// do not move when only the solver's bookkeeping does.
	Search sat.Stats `json:"-"`

	// GatesBuilt and GatesEmitted are the AND/XOR/ITE gates symbolic
	// execution constructed for the cell and the ones the solver was
	// handed; metadata like Search.
	GatesBuilt   int `json:"-"`
	GatesEmitted int `json:"-"`
}

// VerifyTarget is SAT-based equivalence checking as a campaign target: one
// job proves (or refutes) a benchmark's machine code against its Domino
// specification over a grid of bit widths × transaction-unrolling steps.
// Each grid cell is an independent bounded proof, so the target shards at
// one cell per shard and the existing worker pool parallelizes SAT work.
//
// Cell results are pure functions of (spec hash, machine code, bits,
// steps, budget), so they flow through the content-addressed ShardCache
// unchanged: a re-submitted matrix re-proves nothing, and an edited spec
// invalidates exactly its own cells.
type VerifyTarget struct {
	// Benchmark names the Table-1 benchmark under proof; it labels report
	// rows and keys the verify→fuzz corpus harvest.
	Benchmark string

	// Spec and Code describe the pipeline under proof. The spec's Bits
	// field is overridden per cell by the cell's verification width.
	Spec core.Spec
	Code *machinecode.Program

	// Prog and Fields are the Domino specification and its container
	// binding — the verifier works on the program directly (not an opaque
	// sim.Spec factory), because the proof needs its syntax.
	Prog   *domino.Program
	Fields domino.FieldMap

	// Containers restricts the equality assertion (nil = the containers
	// bound to fields the program writes, matching the fuzz harness).
	Containers []int

	// MaxInput bounds verified inputs, mirroring the traffic generator's
	// value bound (0 = full verification width).
	MaxInput int64

	// Bits and Steps span the proof grid; cells are ordered bits-major.
	Bits  []int
	Steps []int

	// MaxConflicts bounds solver effort per cell (0 = unlimited); an
	// exhausted budget yields VerdictUnknown deterministically.
	MaxConflicts int64

	// SpecFingerprint is the benchmark's content hash (covers the Domino
	// source and the field binding). Empty means not cacheable.
	SpecFingerprint string

	// Seed must equal the job's Seed. The engine addresses shards by
	// derived seed, and the runner inverts that derivation to find the
	// cell; carrying the job seed here both enables that inversion and
	// folds the seed into the fingerprint, so cache keys of different
	// jobs can never collide on a coincidental derived-seed equality.
	Seed int64
}

// Arch implements Target: the architecture whose machine code is proven.
func (t *VerifyTarget) Arch() string { return "rmt" }

// Engine implements Target: the decision procedure, not an execution
// engine — proofs cover the machine code independent of how a simulator
// executes it, which is why verify jobs have no optimization-level axis.
func (t *VerifyTarget) Engine() string { return "sat" }

// Mode implements Moder.
func (t *VerifyTarget) Mode() string { return ModeVerify }

// BenchmarkName implements BenchmarkNamer.
func (t *VerifyTarget) BenchmarkName() string { return t.Benchmark }

// ShardSize implements ShardSizer: one proof cell per shard.
func (t *VerifyTarget) ShardSize(int) int { return 1 }

func (t *VerifyTarget) cellCount() int { return len(t.Bits) * len(t.Steps) }

// cell maps a cell index to its (bits, steps) coordinates, bits-major.
func (t *VerifyTarget) cell(i int) (bits, steps int) {
	return t.Bits[i/len(t.Steps)], t.Steps[i%len(t.Steps)]
}

func (t *VerifyTarget) validate() error {
	if t.Code == nil {
		return fmt.Errorf("verify target has no machine code")
	}
	if t.Prog == nil {
		return fmt.Errorf("verify target has no Domino program")
	}
	if len(t.Bits) == 0 || len(t.Steps) == 0 {
		return fmt.Errorf("verify target has an empty proof grid (%d bit widths × %d step counts)", len(t.Bits), len(t.Steps))
	}
	return checkGrid(t.Bits, t.Steps)
}

// checkGrid checks a proof grid's coordinates against the verifier's bounds.
func checkGrid(bits, steps []int) error {
	for _, b := range bits {
		if err := verify.CheckBits(b); err != nil {
			return err
		}
	}
	for _, s := range steps {
		if s < 1 {
			return fmt.Errorf("unrolling depth %d < 1", s)
		}
	}
	return nil
}

// validateJob pins the two invariants the shard↔cell addressing depends
// on: the job's packet count is the cell count (so the engine plans
// exactly one shard per cell), and the job seed equals the target's.
func (t *VerifyTarget) validateJob(j *Job) error {
	if j.Packets != t.cellCount() {
		return fmt.Errorf("verify job asks for %d packets but the proof grid has %d cells (set Packets = len(Bits)*len(Steps))", j.Packets, t.cellCount())
	}
	if j.Seed != t.Seed {
		return fmt.Errorf("verify job seed %d differs from target seed %d (the target seed maps shards to cells and salts cache keys)", j.Seed, t.Seed)
	}
	return nil
}

// Fingerprint implements Fingerprinter over everything a cell verdict
// depends on. The job seed participates so two jobs' shard keys can never
// alias (derived seeds of different job seeds may coincide).
func (t *VerifyTarget) Fingerprint() string {
	if t.SpecFingerprint == "" {
		return ""
	}
	return fingerprintOf(
		"verify",
		t.SpecFingerprint,
		fmt.Sprintf("%d/%d/%d", t.Spec.Depth, t.Spec.Width, t.Spec.PHVLen),
		t.Code.Digest(),
		fmt.Sprint(t.Containers),
		fmt.Sprint(t.MaxInput),
		fmt.Sprint(t.Bits),
		fmt.Sprint(t.Steps),
		fmt.Sprint(t.MaxConflicts),
		fmt.Sprint(t.Seed),
	)
}

// Build implements Target. The instance holds what every cell of the job
// shares: the prepared verify.Problem (spec and machine code checked, muxes
// and holes resolved, the compared cone found — once, not per cell) and the
// derived-seed → cell-index table the runners use to invert the engine's
// shard addressing (deriveSeed is injective for a fixed job seed, so the
// table is total; the collision check is a cheap invariant guard). A
// question the verifier rejects — machine code that does not fit the
// pipeline, nothing to compare — is the job's build error.
func (t *VerifyTarget) Build() (Instance, error) {
	problem, err := verify.NewProblem(t.Spec, t.Code, t.Prog, t.Fields, verify.Options{
		MaxInput:     t.MaxInput,
		Containers:   t.Containers,
		MaxConflicts: t.MaxConflicts,
	})
	if err != nil {
		return nil, err
	}
	cellOf := make(map[int64]int, t.cellCount())
	for i := 0; i < t.cellCount(); i++ {
		s := deriveSeed(t.Seed, i)
		if prev, dup := cellOf[s]; dup {
			return nil, fmt.Errorf("verify: derived seed collision between cells %d and %d", prev, i)
		}
		cellOf[s] = i
	}
	return &verifyInstance{t: t, problem: problem, cellOf: cellOf}, nil
}

// verifyInstance is also its own Runner: it is a stateless view over the
// shared immutable target and problem — each cell builds its own gate graph
// and solver — so one value serves every worker.
type verifyInstance struct {
	t       *VerifyTarget
	problem *verify.Problem
	cellOf  map[int64]int
}

// NewRunner implements Instance.
func (r *verifyInstance) NewRunner() (Runner, error) { return r, nil }

// RunShard implements Runner.
func (r *verifyInstance) RunShard(seed int64, n int) ShardResult {
	return r.RunShardContext(context.Background(), seed, n)
}

// RunShardContext implements ContextRunner: decide the one proof cell this
// shard addresses. Cancellation mid-solve returns the context error as the
// shard error — never a cached or merged verdict — so a job timeout
// abandons a wedged proof without poisoning the cache, while a
// deterministic budget exhaustion (MaxConflicts) is a real, cacheable
// VerdictUnknown.
func (r *verifyInstance) RunShardContext(ctx context.Context, seed int64, n int) ShardResult {
	i, ok := r.cellOf[seed]
	if !ok || n != 1 {
		return ShardResult{Err: fmt.Errorf("verify: shard (seed=%d, n=%d) does not address a proof cell", seed, n)}
	}
	bits, steps := r.t.cell(i)
	start := time.Now() //dvet:walltime-ok SolveMS is -timing display only, excluded from serialized/cached bytes
	res, err := r.problem.Prove(ctx, bits, steps)
	if err != nil {
		return ShardResult{Err: err}
	}
	if res.Unknown && ctx.Err() != nil {
		return ShardResult{Err: ctx.Err()}
	}
	cell := VerifyCell{
		Bits:      bits,
		Steps:     steps,
		Vars:      res.Vars,
		Clauses:   res.Clauses,
		Conflicts: res.SolverStats.Conflicts,
		SolveMS:   float64(time.Since(start).Microseconds()) / 1e3, //dvet:walltime-ok same: display-only timing
		Search:    res.SolverStats,

		GatesBuilt:   res.GatesBuilt,
		GatesEmitted: res.GatesEmitted,
	}
	out := ShardResult{}
	switch {
	case res.Equivalent:
		cell.Verdict = VerdictProven
	case res.Unknown:
		cell.Verdict = VerdictUnknown
	default:
		cell.Verdict = VerdictCounterexample
		cell.FailStep = res.FailStep
		cell.Trace = make([][]int64, 0, res.Counterexample.Len())
		for s := 0; s < res.Counterexample.Len(); s++ {
			p := res.Counterexample.At(s)
			row := make([]int64, p.Len())
			for c := range row {
				row[c] = int64(p.Get(c))
			}
			cell.Trace = append(cell.Trace, row)
		}
		// The counterexample is also a Finding, so cross-shard
		// deduplication, the per-job cap and fail-fast treat proof
		// refutations exactly like fuzz mismatches.
		out.Findings = []Finding{{
			Index: 0,
			Input: res.Counterexample.At(res.FailStep).String(),
			Got:   res.PipelineOut.String(),
			Want:  res.SpecOut.String(),
		}}
	}
	out.Cells = []VerifyCell{cell}
	return out
}

// Default proof grid for verification campaigns: the 8–10 bits where the
// paper's §5.2 limited-range miscompiles live (machine code right below
// 100, wrong at 10-bit inputs), with the 2-step unrolling that exposes
// single-update state corruption. Every Table-1 fixture is decided at both
// widths while its miter is built, in well under a millisecond.
var (
	DefaultVerifyBits  = []int{8, 10}
	DefaultVerifySteps = []int{2}
)

// VerifyMatrix builds the verification campaign job matrix: one job per
// benchmark × seed, whose cells span bits × steps. Proofs cover the
// machine code itself — every execution engine runs the same code — so
// unlike the fuzz matrix there is no optimization-level axis. Empty bits,
// steps or seeds take the defaults.
func VerifyMatrix(benchmarks []*spec.Benchmark, bits, steps []int, seeds []int64, maxConflicts int64) ([]Job, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("campaign: empty benchmark set")
	}
	if len(bits) == 0 {
		bits = DefaultVerifyBits
	}
	if len(steps) == 0 {
		steps = DefaultVerifySteps
	}
	// Check the grid here as well as in target validation, so servers can
	// reject a bad matrix before committing a stream to it.
	if err := checkGrid(bits, steps); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	seeds = seedAxis(seeds)
	var jobs []Job
	for _, bm := range benchmarks {
		r, err := bm.Resolve()
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", bm.Name, err)
		}
		for _, seed := range seeds {
			jobs = append(jobs, Job{
				Name: fmt.Sprintf("verify/%s/seed=%d", bm.Name, seed),
				Target: &VerifyTarget{
					Benchmark:       bm.Name,
					Spec:            r.Spec,
					Code:            r.Code,
					Prog:            r.Program,
					Fields:          bm.Fields,
					Containers:      r.Containers,
					MaxInput:        bm.MaxInput,
					Bits:            bits,
					Steps:           steps,
					MaxConflicts:    maxConflicts,
					SpecFingerprint: r.Fingerprint,
					Seed:            seed,
				},
				Seed:    seed,
				Packets: len(bits) * len(steps),
			})
		}
	}
	return jobs, nil
}

// HarvestVerifyCorpus extracts every counterexample trace from a verify
// report's rows as fuzzer seed traffic, keyed by benchmark name.
// Duplicate traces (the same refutation found in several cells) are
// dropped whole; within a trace every step is kept in order — stateful
// refutations may need the same packet twice — so the first harvested
// trace of each benchmark replays from reset state exactly as the prover
// decoded it, the deterministic regression input of both mode.
func HarvestVerifyCorpus(rep *Report) map[string][][]phv.Value {
	out := map[string][][]phv.Value{}
	seen := map[string]bool{}
	for i := range rep.Jobs {
		j := &rep.Jobs[i]
		if j.Mode != ModeVerify || j.Benchmark == "" {
			continue
		}
		for _, cell := range j.Cells {
			if len(cell.Trace) == 0 {
				continue
			}
			key := j.Benchmark + "|" + fmt.Sprint(cell.Trace)
			if seen[key] {
				continue
			}
			seen[key] = true
			for _, step := range cell.Trace {
				vals := make([]phv.Value, len(step))
				for c, v := range step {
					vals[c] = phv.Value(v)
				}
				out[j.Benchmark] = append(out[j.Benchmark], vals)
			}
		}
	}
	return out
}
