package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"druzhba/internal/campaign"
)

// runOpts selects how one workload is measured.
type runOpts struct {
	seconds float64 // measure for this long ...
	reps    int     // ... or, when > 0, exactly this many timed reps
	traced  bool    // second half of the measurement runs under the span recorder
	log     io.Writer
}

const (
	// Set-ups are repeated until there are minSetups of them and they have
	// taken sizes.setupSeconds together: the cheapest takes a few milliseconds,
	// and only the median of many of those repeats from run to run.
	minSetups = 5

	// Two discarded reps warm an instance up (lazily parsed atoms, loopback
	// connections) — one when it alone outlasts warmupBudget, because by
	// then whatever is initialised once is a small share of any rep.
	warmups      = 2
	warmupBudget = time.Second

	// A run times at least minReps reps however long one takes.
	minReps = 3
)

// sample is one timed rep.
type sample struct {
	timing
	AllocMB float64
}

// result is everything one run of one workload produced.
type result struct {
	Workload  string
	Unit      string
	Seed      int64
	Workers   int
	Setups    []timing // one per set-up
	Reps      []sample // untraced timed reps
	Traced    []sample // traced timed reps (traced runs only)
	Attempted int
	Failed    int
	Failures  []string

	// Exact, simulated statistics of one rep: identical on every commit
	// that does not change what is simulated.
	Work      int64
	Ticks     int64
	Conflicts int64
	Hash      string // SHA-256 of the report's deterministic renderings

	PeakHeapMB float64

	spans []span
}

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 16 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// reportHash is the SHA-256 of a report's two deterministic renderings.
func reportHash(rep *campaign.Report) (string, error) {
	var buf bytes.Buffer
	buf.WriteString(rep.Text(false))
	if err := rep.WriteJSON(&buf, false); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// simulated sums a report's exact statistics.
func simulated(rep *campaign.Report) (ticks, conflicts int64) {
	for i := range rep.Jobs {
		ticks += rep.Jobs[i].Ticks
		for _, c := range rep.Jobs[i].Cells {
			conflicts += c.Conflicts
		}
	}
	return ticks, conflicts
}

// runWorkload sets the workload up (several times, for setup_s), runs the
// warm-up and timed reps closed-loop with one client, and checks every
// report it sees: rows against their known answers, every rep's bytes
// against the first rep's, the served paths against a local run, and the
// canaries against FAIL.
func runWorkload(w *workload, e *env, o runOpts) (*result, error) {
	res := &result{Workload: w.name, Unit: w.unit, Seed: e.seed, Workers: e.workers}

	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	ref := newRefClock(e.workers, e.sizes.refIters)
	var inst *instance
	var ms runtime.MemStats
	repIndex := 0
	// check compares one report — a rep's, or the priming submission's —
	// with its known answers, the first report's bytes and the cache pattern
	// it must show.
	check := func(what string, rep *campaign.Report, cacheOK func(*campaign.CacheStats) bool) error {
		a, f := checkRows(rep)
		res.Attempted += a
		if f > 0 {
			res.fail("%s: %d of %d rows or cells missed their known answer", what, f, a)
			res.Failed += f - 1
		}
		res.Attempted++
		hash, err := reportHash(rep)
		if err != nil {
			return err
		}
		if res.Hash == "" {
			res.Hash = hash
			res.Work = workOf(rep)
			res.Ticks, res.Conflicts = simulated(rep)
		} else if hash != res.Hash {
			res.fail("%s: report differs from the first one (sha256 %.12s vs %.12s)", what, hash, res.Hash)
		}
		if cacheOK != nil {
			res.Attempted++
			if !cacheOK(rep.Cache) {
				res.fail("%s: cache counters %+v do not fit the expected hit pattern", what, rep.Cache)
			}
		}
		return nil
	}
	// one runs a single rep — prep outside the timed region, then the timed
	// call between two turns of the reference loop — and checks its report.
	one := func(rec *recorder, keep *[]sample) error {
		if inst.prep != nil {
			if err := inst.prep(rec); err != nil {
				return fmt.Errorf("%s: prep: %w", w.name, err)
			}
		}
		before := ref.turn()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		rec.beginRep(w.name, repIndex, w.root)
		repIndex++
		t0 := time.Now()
		rep, err := inst.rep(rec)
		wall := time.Since(t0)
		rec.endRep()
		if err != nil {
			return fmt.Errorf("%s: rep: %w", w.name, err)
		}
		runtime.ReadMemStats(&ms)
		after := ref.turn()
		if heap := float64(ms.HeapInuse) / 1e6; heap > res.PeakHeapMB {
			res.PeakHeapMB = heap
		}
		if keep != nil {
			*keep = append(*keep, sample{
				timing:  timing{WallMS: float64(wall.Nanoseconds()) / 1e6, RefMS: (before + after) / 2},
				AllocMB: float64(ms.TotalAlloc-alloc0) / 1e6,
			})
		}
		return check(fmt.Sprintf("rep %d", repIndex-1), rep, inst.cacheOK)
	}

	// scratch is the directory a daemon would find at start (its cache or
	// journal directory); making and removing it is the harness's business
	// and stays out of the set-up time.
	scratch := ""
	closeInst := func() {
		if inst != nil {
			inst.close()
			inst = nil
		}
		if scratch != "" {
			os.RemoveAll(scratch)
		}
	}
	defer closeInst()
	// build replaces inst with a new instance of the workload at env's
	// sizes, primed where the workload presupposes a filled cache, and
	// returns when building began and the priming submission's report.
	build := func(env *env) (start time.Time, primed *campaign.Report, err error) {
		closeInst()
		if w.scratch {
			if scratch, err = os.MkdirTemp(e.workdir, w.name+"-"); err != nil {
				return start, nil, err
			}
		}
		start = time.Now()
		if inst, err = w.setup(env, scratch); err != nil {
			return start, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		if inst.prime == nil {
			return start, nil, nil
		}
		if err := inst.prep(nil); err != nil {
			return start, nil, fmt.Errorf("%s: set-up: prep: %w", w.name, err)
		}
		if primed, err = inst.prime(); err != nil {
			return start, nil, fmt.Errorf("%s: priming submission: %w", w.name, err)
		}
		return start, primed, nil
	}

	// Set-up, timed, many times over: a new instance brought from nothing
	// to its first verdict on the smoke matrix (see env.smoke) — matrix
	// expansion, listeners, servers, coordinator, cache priming, the first
	// prep and rep with everything they build lazily. Every fixed cost is
	// in it and next to none of the bulk work, so work a later change moves
	// out of the timed reps into construction, priming or first use shows
	// up here, at a size where a few milliseconds are visible.
	smoke := e.smoke()
	setupBudget := time.Duration(e.sizes.setupSeconds * float64(time.Second))
	for begin := time.Now(); len(res.Setups) < minSetups || time.Since(begin) < setupBudget; {
		before := ref.turn()
		start, primed, err := build(smoke)
		if err != nil {
			return nil, err
		}
		if inst.prep != nil {
			if err := inst.prep(nil); err != nil {
				return nil, fmt.Errorf("%s: set-up: prep: %w", w.name, err)
			}
		}
		rep, err := inst.rep(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: first rep: %w", w.name, err)
		}
		wall := time.Since(start)
		res.Setups = append(res.Setups, timing{WallMS: float64(wall.Nanoseconds()) / 1e6, RefMS: (before + ref.turn()) / 2})
		for _, r := range []*campaign.Report{primed, rep} {
			if r == nil {
				continue
			}
			a, f := checkRows(r)
			res.Attempted += a
			if f > 0 {
				res.fail("set-up %d: %d of %d rows or cells missed their known answer", len(res.Setups)-1, f, a)
				res.Failed += f - 1
			}
		}
	}

	// The instance that is measured, at full size.
	_, primed, err := build(e)
	if err != nil {
		return nil, err
	}
	if primed != nil {
		if err := check("priming submission", primed, noHits); err != nil {
			return nil, err
		}
	}
	for i, start := 0, time.Now(); i < warmups && (i == 0 || time.Since(start) < warmupBudget); i++ {
		if err := one(nil, nil); err != nil {
			return nil, err
		}
	}
	// timed runs reps until the budget is spent.
	timed := func(rec *recorder, keep *[]sample, budget time.Duration, reps int) error {
		start := time.Now()
		for n := 0; ; n++ {
			if reps > 0 && n >= reps {
				return nil
			}
			if reps <= 0 && n >= minReps && time.Since(start) >= budget {
				return nil
			}
			if err := one(rec, keep); err != nil {
				return err
			}
		}
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		// The untraced half is the reference the tracing overhead is
		// measured against; the ledger comes from the traced half.
		if err := timed(nil, &res.Reps, budget*2/5, o.reps); err != nil {
			return nil, err
		}
		if err := timed(rec, &res.Traced, budget*3/5, o.reps); err != nil {
			return nil, err
		}
		res.spans = rec.snapshot()
	} else if err := timed(nil, &res.Reps, budget, o.reps); err != nil {
		return nil, err
	}

	if inst.stats != nil {
		st, err := inst.stats()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.Attempted++
		if st.Dispatch.Retries != 0 || st.Dispatch.Fallback != 0 || st.Dispatch.Poisoned != 0 {
			res.fail("dispatcher retried %d, fell back %d, poisoned %d shards on a healthy loopback fleet",
				st.Dispatch.Retries, st.Dispatch.Fallback, st.Dispatch.Poisoned)
		}
	}

	// A served or distributed campaign must render the bytes a local run
	// of the same matrix renders.
	if inst.reference != nil {
		ref, err := inst.reference()
		if err != nil {
			return nil, fmt.Errorf("%s: local reference: %w", w.name, err)
		}
		hash, err := reportHash(ref)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if hash != res.Hash {
			res.fail("report differs from local campaign.Run of the same matrix (sha256 %.12s vs %.12s)", res.Hash, hash)
		}
	}

	canaries, err := canaryJobs(e.seed, e.sizes.canaryPackets)
	if err != nil {
		return nil, err
	}
	a, f, crep, err := runCanaries(canaries, e.workers)
	if err != nil {
		return nil, err
	}
	res.Attempted += a
	if f > 0 {
		res.fail("%d of %d canary jobs did not FAIL: the oracle is blind", f, a)
		res.Failed += f - 1
	}
	if o.log != nil {
		for i := range crep.Jobs {
			fmt.Fprintf(o.log, "  canary %-40s %s (%d counterexamples)\n", crep.Jobs[i].Name, crep.Jobs[i].Status, len(crep.Jobs[i].Counterexamples))
		}
	}
	return res, nil
}

// column extracts one field of the samples.
func column[S, T any](ss []S, f func(S) T) []T {
	out := make([]T, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func allocMB(s sample) float64 { return s.AllocMB }

// timings extracts the reps' clocks.
func timings(ss []sample) []timing {
	return column(ss, func(s sample) timing { return s.timing })
}

// endToEndValues condenses the untraced reps into the end-to-end metrics.
// verdict_ms is the rep time — call or submit to final report, as one user
// of dfarm, dfarmd or dcoord waits for it — and setup_s the set-up time,
// both read against the reference loop (see scaledMS); alloc_mb is the
// median heap allocated per rep.
func (r *result) endToEndValues() map[string]float64 {
	return map[string]float64{
		"verdict_ms": scaledMS(timings(r.Reps)),
		"alloc_mb":   median(column(r.Reps, allocMB)),
		"setup_s":    scaledMS(r.Setups) / 1e3,
	}
}

// workPerS is verdict_ms read the way Table 1 and `dfarm -timing` print it:
// work per rep (PHVs checked, proof cells decided) over the rep time.
func (r *result) workPerS() float64 {
	return float64(r.Work) / (scaledMS(timings(r.Reps)) / 1e3)
}

// ledgerValues condenses the traced reps into the workload's own per-layer
// metrics.
func (r *result) ledgerValues() (map[string]float64, ledger) {
	lg := buildLedger(r.spans)
	classes := map[string]int64{}
	for _, row := range lg.Rows {
		classes[ledgerClass(row.Name)] += row.WallNS
	}
	pct := func(ns int64) float64 {
		if lg.SpanNS == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(lg.SpanNS)
	}
	overhead := 0.0
	if u := scaledMS(timings(r.Reps)); u > 0 {
		overhead = 100 * (scaledMS(timings(r.Traced)) - u) / u
	}
	return map[string]float64{
		"ledger.build_pct":         pct(classes["build"]),
		"ledger.runner_pct":        pct(classes["runner"]),
		"ledger.kernel_pct":        pct(classes["kernel"]),
		"ledger.cache_pct":         pct(classes["cache"]),
		"ledger.wire_pct":          pct(classes["wire"]),
		"ledger.unattributed_pct":  pct(lg.UnattributedN),
		"bench.trace_overhead_pct": overhead,
		"process.peak_heap_mb":     r.PeakHeapMB,
		"workload.work_total":      float64(r.Work),
		"workload.ticks_total":     float64(r.Ticks),
		"workload.conflicts_total": float64(r.Conflicts),
	}, lg
}
