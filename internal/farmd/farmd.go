// Package farmd is the long-running campaign service behind dfarmd: the
// serving layer that turns the batch-mode campaign engine of package
// campaign into a daemon for heavy, repeated traffic.
//
// Clients POST a job matrix described as data (MatrixRequest — the JSON
// form of dfarm's flags) to /v1/campaigns; the server expands it onto the
// architecture-generic campaign engine and streams one NDJSON row per job
// back as jobs complete, in matrix order, followed by a summary row. The
// job rows are the same values the engine assembles into its batch report,
// so a streamed campaign renders byte-identically to an offline dfarm run
// at the same settings.
//
// Underneath the server sits a content-addressed shard-result cache
// (campaign.ShardCache): shard results are pure functions of (target
// fingerprint, shard seed, shard size), so the server stores every clean
// result and replays it on resubmission. Submitting an unchanged matrix
// twice executes zero shards the second time — the summary row's cache
// counters make that observable — while streaming byte-identical job rows.
// The package provides three stores: MemCache (bounded in-memory LRU),
// DirCache (one append-only segment file per job under a directory, one
// self-validating JSON line per shard, read once per job), and Tiered (LRU
// over disk).
package farmd

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"druzhba/internal/campaign"
	"druzhba/internal/core"
	"druzhba/internal/drmt"
	"druzhba/internal/phv"
	"druzhba/internal/spec"
)

// ModeBoth chains a verification phase before the fuzz phase: every
// counterexample trace the prover decodes is fed back into the fuzzer as
// seed traffic. The single-phase modes are campaign.ModeFuzz and
// campaign.ModeVerify.
const ModeBoth = "both"

// MatrixRequest describes a campaign job matrix as data: the JSON body of
// POST /v1/campaigns and the request dfarm -server submits. Fields mirror
// dfarm's flags; zero values take the same defaults.
type MatrixRequest struct {
	// Arch selects the architectures to sweep: "rmt", "drmt" or "all"
	// (empty = "rmt").
	Arch string `json:"arch,omitempty"`

	// Run keeps only benchmarks whose name contains this substring.
	Run string `json:"run,omitempty"`

	// Levels lists rmt optimization levels by name (empty = all four).
	Levels []string `json:"levels,omitempty"`

	// Traffic lists traffic modes ("uniform", "boundary"; empty =
	// uniform). Each mode adds a full matrix sweep.
	Traffic []string `json:"traffic,omitempty"`

	// Procs lists dRMT processor-count variants (empty = each
	// benchmark's default HWConfig; 0 entries also mean the default).
	Procs []int `json:"procs,omitempty"`

	// Seeds lists traffic seeds (empty = [1]).
	Seeds []int64 `json:"seeds,omitempty"`

	// Packets is the packet budget per job (0 = 50000, the paper's
	// workload).
	Packets int `json:"packets,omitempty"`

	// ShardSize is packets per shard (0 = 4096). It is part of the
	// campaign's traffic identity and therefore of every cache key.
	ShardSize int `json:"shard_size,omitempty"`

	// MaxCounterexamples caps deduplicated counterexamples per job
	// (0 = 8, negative = unbounded).
	MaxCounterexamples int `json:"max_counterexamples,omitempty"`

	// FailFast cancels the campaign at the first failing shard.
	FailFast bool `json:"failfast,omitempty"`

	// JobTimeoutMS bounds each job's wall clock in milliseconds
	// (0 = the server's default).
	JobTimeoutMS int64 `json:"job_timeout_ms,omitempty"`

	// Mode selects the campaign phases: "fuzz" (empty = fuzz, the random
	// differential workload), "verify" (SAT-based bounded equivalence
	// proofs over the rmt benchmarks), or "both" (verify first, then fuzz
	// with every counterexample trace seeded into the fuzzer's traffic).
	Mode string `json:"mode,omitempty"`

	// VerifyBits lists the bit widths of the proof grid (empty =
	// campaign.DefaultVerifyBits). Verify and both modes only.
	VerifyBits []int `json:"verify_bits,omitempty"`

	// VerifySteps lists the transaction-unrolling depths of the proof grid
	// (empty = campaign.DefaultVerifySteps). Verify and both modes only.
	VerifySteps []int `json:"verify_steps,omitempty"`

	// MaxConflicts bounds solver effort per proof cell (0 = unlimited);
	// an exhausted budget yields an "unknown" verdict deterministically.
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
}

// JobTimeout returns the request's per-job wall-clock budget.
func (r *MatrixRequest) JobTimeout() time.Duration {
	return time.Duration(r.JobTimeoutMS) * time.Millisecond
}

// Options returns the engine options the request runs under: base carries
// what the process decides (pool, cache, instruments, and the job timeout
// used when the request sets none), the request supplies the rest.
func (r *MatrixRequest) Options(base campaign.Options) campaign.Options {
	base.ShardSize = r.ShardSize
	base.MaxCounterexamples = r.MaxCounterexamples
	base.FailFast = r.FailFast
	if t := r.JobTimeout(); t > 0 {
		base.JobTimeout = t
	}
	return base
}

// phases decodes the request's mode into the set of campaign phases to run
// and rejects flag combinations that cannot apply to them.
func (r *MatrixRequest) phases() (runVerify, runFuzz bool, err error) {
	switch r.Mode {
	case "", campaign.ModeFuzz:
		return false, true, nil
	case campaign.ModeVerify:
		if len(r.Levels) > 0 || len(r.Traffic) > 0 || len(r.Procs) > 0 {
			return false, false, fmt.Errorf("farmd: levels, traffic and procs apply to fuzz jobs only")
		}
		return true, false, nil
	case ModeBoth:
		return true, true, nil
	default:
		return false, false, fmt.Errorf("farmd: mode %q (want %s, %s or %s)", r.Mode, campaign.ModeFuzz, campaign.ModeVerify, ModeBoth)
	}
}

// Expansion is a request's job matrix, phase by phase. Expanding is how a
// request is validated, and what admission expanded is what the run
// executes, so a submission expands once.
// Requests are compared and hashed as plain data (CampaignID, lease keys),
// so the expansion travels beside the request, never inside it.
type Expansion struct {
	// Verify is the verify phase's matrix; nil when the mode has none.
	Verify []campaign.Job
	// Fuzz is the fuzz phase's matrix with no seed corpus; nil when the
	// mode has none.
	Fuzz []campaign.Job
}

// Bounds on what one request expands to, so that admission allocates in
// proportion to them and not to what the axes multiply to. An expanded job
// costs about 600 bytes, so MaxMatrixJobs keeps a matrix near 10 MB; it
// admits the full Table-1 and dRMT sweep at both traffic modes for over a
// hundred seeds. The engine holds a result slot per shard from the start
// of a run, so MaxMatrixShards keeps a matrix's slots within 32 MiB; each
// job is also held to campaign.MaxJobShards.
const (
	MaxMatrixJobs   = 1 << 14
	MaxMatrixShards = 1 << 22
)

// Expand expands every phase of the request without running anything, so
// servers can reject a bad matrix before committing a stream to it. The
// jobs are counted from the axes before any is built, and a matrix past
// MaxMatrixJobs, MaxMatrixShards or campaign.MaxJobShards is an error.
func (r *MatrixRequest) Expand() (*Expansion, error) {
	runVerify, runFuzz, err := r.phases()
	if err != nil {
		return nil, err
	}
	n, err := r.countJobs(runVerify, runFuzz)
	if err != nil {
		return nil, err
	}
	if n > MaxMatrixJobs {
		return nil, fmt.Errorf("farmd: the matrix expands to more than %d jobs", MaxMatrixJobs)
	}
	exp := &Expansion{}
	if runVerify {
		if exp.Verify, err = r.VerifyJobs(); err != nil {
			return nil, err
		}
	}
	if runFuzz {
		if exp.Fuzz, err = r.FuzzJobs(nil); err != nil {
			return nil, err
		}
	}
	shards := 0
	for _, jobs := range [][]campaign.Job{exp.Verify, exp.Fuzz} {
		for i := range jobs {
			k, err := jobs[i].Shards(r.ShardSize)
			if err != nil {
				return nil, fmt.Errorf("farmd: %w", err)
			}
			if shards += k; shards > MaxMatrixShards {
				return nil, fmt.Errorf("farmd: the matrix plans more than %d shards", MaxMatrixShards)
			}
		}
	}
	return exp, nil
}

// countJobs counts the jobs the request's phases expand to, building none:
// the campaign matrices' sizes, each capped at MaxMatrixJobs+1 so that the
// sum cannot overflow.
func (r *MatrixRequest) countJobs(runVerify, runFuzz bool) (int, error) {
	rmt, n := len(spec.Match(r.Run)), 0
	add := func(k int) { n += min(k, MaxMatrixJobs+1) }
	if runVerify {
		add(campaign.VerifyMatrixSize(rmt, r.Seeds))
	}
	if runFuzz {
		arch, levels, modes, err := r.fuzzAxes()
		if err != nil {
			return 0, err
		}
		if arch == "rmt" || arch == "all" {
			k, err := campaign.MatrixSize(rmt, levels, modes, r.Seeds)
			if err != nil {
				return 0, err
			}
			add(k)
		}
		if arch == "drmt" || arch == "all" {
			k, err := campaign.DRMTMatrixSize(len(drmt.MatchBenchmarks(r.Run)), r.Procs, modes, r.Seeds)
			if err != nil {
				return 0, err
			}
			add(k)
		}
	}
	return n, nil
}

// VerifyJobs expands the request into the verification job matrix: one job
// per rmt benchmark × seed, with cells spanning the requested proof grid.
// Proofs cover rmt machine code, so the drmt architecture has no verify
// phase.
func (r *MatrixRequest) VerifyJobs() ([]campaign.Job, error) {
	arch := r.Arch
	if arch == "" {
		arch = "rmt"
	}
	if arch == "drmt" {
		return nil, fmt.Errorf("farmd: verification applies to the rmt architecture only")
	}
	benchmarks := spec.Match(r.Run)
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("farmd: run %q matches no rmt benchmark to verify (have %v)", r.Run, spec.Names())
	}
	return campaign.VerifyMatrix(benchmarks, r.VerifyBits, r.VerifySteps, r.Seeds, r.MaxConflicts)
}

// Jobs expands the request into the fuzz-mode campaign job matrix, applying
// the same defaults and validation as dfarm's flags.
func (r *MatrixRequest) Jobs() ([]campaign.Job, error) {
	return r.FuzzJobs(nil)
}

// FuzzJobs is Jobs with per-benchmark seed corpora threaded into the rmt
// targets — both mode's verify→fuzz feedback path. Distributed workers call
// it to rebuild the exact job a shard lease addresses: the expansion is a
// pure function of (request, corpus), so every process holding the same
// benchmark registries derives the same matrix.
func (r *MatrixRequest) FuzzJobs(corpus map[string][][]phv.Value) ([]campaign.Job, error) {
	arch, levels, modes, err := r.fuzzAxes()
	if err != nil {
		return nil, err
	}
	packets := r.Packets
	if packets == 0 {
		packets = 50000
	}
	var jobs []campaign.Job
	if arch == "rmt" || arch == "all" {
		benchmarks := spec.Match(r.Run)
		if len(benchmarks) == 0 && arch == "rmt" {
			return nil, fmt.Errorf("farmd: run %q matches no rmt benchmark (have %v)", r.Run, spec.Names())
		}
		if len(benchmarks) > 0 {
			rmtJobs, err := campaign.MatrixWithCorpus(benchmarks, levels, modes, r.Seeds, packets, corpus)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, rmtJobs...)
		}
	}
	if arch == "drmt" || arch == "all" {
		benchmarks := drmt.MatchBenchmarks(r.Run)
		if len(benchmarks) == 0 && arch == "drmt" {
			return nil, fmt.Errorf("farmd: run %q matches no dRMT benchmark (have %v)", r.Run, drmt.BenchmarkNames())
		}
		if len(benchmarks) > 0 {
			drmtJobs, err := campaign.DRMTMatrix(benchmarks, r.Procs, modes, r.Seeds, packets)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, drmtJobs...)
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("farmd: run %q matches no benchmark in any architecture", r.Run)
	}
	return jobs, nil
}

// fuzzAxes checks the request's fuzz axes and parses them into the forms
// the campaign matrices take, with the architecture defaulted to rmt.
func (r *MatrixRequest) fuzzAxes() (arch string, levels []core.OptLevel, modes []phv.TrafficMode, err error) {
	arch = r.Arch
	if arch == "" {
		arch = "rmt"
	}
	if arch != "rmt" && arch != "drmt" && arch != "all" {
		return "", nil, nil, fmt.Errorf("farmd: arch %q (want rmt, drmt or all)", arch)
	}
	if len(r.Levels) > 0 {
		if arch == "drmt" {
			return "", nil, nil, fmt.Errorf("farmd: levels apply to the rmt architecture only")
		}
		for _, name := range r.Levels {
			lvl, err := core.ParseLevel(strings.TrimSpace(name))
			if err != nil {
				return "", nil, nil, fmt.Errorf("farmd: %w", err)
			}
			levels = append(levels, lvl)
		}
	}
	if len(r.Procs) > 0 && arch == "rmt" {
		return "", nil, nil, fmt.Errorf("farmd: procs apply to the drmt architecture only")
	}
	for _, m := range r.Traffic {
		mode := phv.TrafficMode(strings.TrimSpace(m))
		if mode == "" {
			return "", nil, nil, fmt.Errorf("farmd: empty traffic mode")
		}
		if err := mode.Check(); err != nil {
			return "", nil, nil, fmt.Errorf("farmd: %w", err)
		}
		modes = append(modes, mode)
	}
	return arch, levels, modes, nil
}

// ParseSeeds parses a comma-separated seed list (dfarm's -seeds syntax)
// into the request form.
func ParseSeeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseInts parses a comma-separated list of positive integers (dfarm's
// -procs / -vbits / -vsteps syntax) into the request form.
func ParseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad value %q (want a positive integer)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// SplitList splits a comma-separated flag value into trimmed non-empty
// elements (dfarm's -levels / -traffic syntax).
func SplitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Row is one line of the campaign NDJSON stream: exactly one of Job,
// Summary or Error is set. Job rows arrive in matrix order as jobs
// complete; the Summary row terminates a successful stream; an Error row
// terminates a stream the engine could not finish.
type Row struct {
	Job     *campaign.JobReport `json:"job,omitempty"`
	Summary *Summary            `json:"summary,omitempty"`
	Error   string              `json:"error,omitempty"`
}

// Summary is the stream's terminal row: the non-row remainder of the
// campaign report, including the cache counters that make "the second run
// executed zero shards" observable, and the run's timing.
type Summary struct {
	Passed       bool                 `json:"passed"`
	Jobs         int                  `json:"jobs"`
	TotalChecked int64                `json:"total_checked"`
	StoppedEarly bool                 `json:"stopped_early,omitempty"`
	Cache        *campaign.CacheStats `json:"cache,omitempty"`
	Timing       *campaign.Timing     `json:"timing,omitempty"`
}

// RunMatrix executes every phase of the request on the campaign engine and
// returns one merged report (verify rows first, then fuzz rows, each block
// in matrix order — the same order OnJobReport streamed them). In both
// mode the verify phase runs first, its counterexample traces are decoded
// into concrete PHV inputs, and the fuzz phase replays them as seed
// traffic at the start of every shard — so a proof refutation immediately
// becomes a deterministic fuzz regression. The fuzz phase is skipped when
// the verify phase was cancelled or tripped fail-fast.
//
// Both phases run under the same Options: the worker pool size, the shard
// cache and the OnJobReport stream are shared, and verify shard results
// flow through the same content-addressed cache as fuzz shards.
func RunMatrix(ctx context.Context, req *MatrixRequest, opts campaign.Options) (*campaign.Report, error) {
	return RunMatrixPhases(ctx, req, nil, func(string, *campaign.Report) campaign.Options { return opts })
}

// RunMatrixPhases is RunMatrix over an expansion the caller already holds,
// with per-phase options. exp is req's expansion — what a server built to
// admit the submission; nil expands here (offline runs, a request recovered
// from a journal). In both mode the fuzz phase re-expands only when the
// verify phase yielded a corpus to thread into it. optsFor is called once
// per phase that actually runs, with the phase name (PhaseVerify,
// PhaseFuzz) and — for the fuzz phase of a both-mode run — the completed
// verify report. The distributed coordinator uses it to hand each phase an
// executor whose leases carry exactly the context a remote worker needs to
// rebuild that phase's jobs (the fuzz phase of a both-mode matrix depends
// on the verify phase's counterexample rows).
func RunMatrixPhases(ctx context.Context, req *MatrixRequest, exp *Expansion, optsFor func(phase string, verifyReport *campaign.Report) campaign.Options) (*campaign.Report, error) {
	if exp == nil {
		var err error
		if exp, err = req.Expand(); err != nil {
			return nil, err
		}
	}
	var vrep *campaign.Report
	fjobs := exp.Fuzz
	if exp.Verify != nil {
		var verr error
		vrep, verr = campaign.Run(ctx, exp.Verify, optsFor(PhaseVerify, nil))
		if vrep == nil {
			return nil, verr
		}
		if fjobs == nil || verr != nil || vrep.StoppedEarly {
			return vrep, verr
		}
		if corpus := campaign.HarvestVerifyCorpus(vrep); len(corpus) > 0 {
			var err error
			if fjobs, err = req.FuzzJobs(corpus); err != nil {
				return vrep, err
			}
		}
	}
	frep, ferr := campaign.Run(ctx, fjobs, optsFor(PhaseFuzz, vrep))
	if frep == nil {
		return vrep, ferr
	}
	if vrep == nil {
		return frep, ferr
	}
	return mergeReports(vrep, frep), ferr
}

// mergeReports folds two phase reports into one: rows concatenate, the
// deterministic aggregates combine, and the metadata (cache counters,
// timing) sums so a both-mode run reports its full cost.
func mergeReports(a, b *campaign.Report) *campaign.Report {
	out := &campaign.Report{
		Passed:       a.Passed && b.Passed,
		TotalChecked: a.TotalChecked + b.TotalChecked,
		StoppedEarly: a.StoppedEarly || b.StoppedEarly,
	}
	out.Jobs = append(append([]campaign.JobReport{}, a.Jobs...), b.Jobs...)
	if a.Cache != nil || b.Cache != nil {
		cs := &campaign.CacheStats{}
		for _, c := range []*campaign.CacheStats{a.Cache, b.Cache} {
			if c != nil {
				cs.Hits += c.Hits
				cs.Misses += c.Misses
			}
		}
		out.Cache = cs
	}
	if a.Timing != nil && b.Timing != nil {
		t := &campaign.Timing{Workers: a.Timing.Workers, ElapsedMS: a.Timing.ElapsedMS + b.Timing.ElapsedMS}
		if t.ElapsedMS > 0 {
			t.PHVsPerSec = float64(out.TotalChecked) / (t.ElapsedMS / 1e3)
		}
		out.Timing = t
	}
	return out
}
