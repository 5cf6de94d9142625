package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Job statuses in a Report.
const (
	StatusPass    = "pass"    // every shard ran, no divergence
	StatusFail    = "fail"    // at least one counterexample
	StatusError   = "error"   // pipeline build or simulation failed
	StatusAborted = "aborted" // cancelled before every shard ran
	StatusUnknown = "unknown" // verify only: some cell exhausted its solver budget
)

// Campaign modes labeling report rows.
const (
	ModeFuzz   = "fuzz"   // random differential testing (Fig. 5)
	ModeVerify = "verify" // SAT-based bounded equivalence proofs (§7)
)

// Counterexample is one deduplicated diverging PHV. Packet is the global
// packet index within the job's traffic stream (shard × shard size +
// offset), so it addresses the same PHV for every worker count.
type Counterexample struct {
	Packet int    `json:"packet"`
	Input  string `json:"input"`
	Got    string `json:"got"`
	Want   string `json:"want"`
}

// JobReport aggregates one job's shards.
type JobReport struct {
	Name      string `json:"name"`
	Mode      string `json:"mode"`   // campaign mode (fuzz, verify)
	Arch      string `json:"arch"`   // architecture under test (rmt, drmt)
	Engine    string `json:"engine"` // engine variant (optimization level / execution model / decision procedure)
	Benchmark string `json:"benchmark,omitempty"`
	Seed      int64  `json:"seed"`
	Packets   int    `json:"packets"` // requested (verify: proof cells)
	Shards    int    `json:"shards"`
	ShardsRun int    `json:"shards_run"`
	Checked   int    `json:"checked"` // PHVs actually compared
	Ticks     int64  `json:"ticks"`   // pipeline ticks, summed over shards
	Status    string `json:"status"`
	Error     string `json:"error,omitempty"`

	// Counterexamples are deduplicated across shards (same input and
	// outputs count once) and capped by Options.MaxCounterexamples, kept
	// in ascending packet order.
	Counterexamples []Counterexample `json:"counterexamples,omitempty"`

	// Cells are the decided verification cells of a verify-mode job, in
	// (bits, steps) grid order.
	Cells []VerifyCell `json:"cells,omitempty"`
}

// Passed reports whether the job completed with no findings.
func (j *JobReport) Passed() bool { return j.Status == StatusPass }

// Timing is the non-deterministic half of a report: it depends on the
// machine, the scheduler and the worker count, so renderers exclude it
// unless asked (reports are otherwise bit-identical across worker counts).
type Timing struct {
	Workers    int     `json:"workers"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	PHVsPerSec float64 `json:"phvs_per_sec"`
}

// Report is the merged outcome of a campaign.
type Report struct {
	Jobs         []JobReport `json:"jobs"`
	Passed       bool        `json:"passed"`
	TotalChecked int64       `json:"total_checked"`

	// StoppedEarly is set when FailFast tripped or the context was
	// cancelled before every shard ran.
	StoppedEarly bool `json:"stopped_early,omitempty"`

	// Timing is omitted from deterministic renderings.
	Timing *Timing `json:"-"`

	// Cache counts shard-cache hits and misses when Options.Cache was
	// set. Like Timing it is excluded from deterministic renderings: a
	// warm cache changes the counters, never a row.
	Cache *CacheStats `json:"-"`
}

// merge folds the job's landed shard results into its report row, visiting
// shards in index order so the outcome is independent of scheduling. It is
// called exactly once per job — either the moment the job's last shard
// lands (streaming consumers) or when the pool drains — and the same value
// serves both the streamed row and the final report, so the two are
// byte-identical by construction.
func (js *jobState) merge(maxCounterexamples int) {
	jr := &js.row
	if js.buildErr != nil {
		// The target never built, so no shard of the job was runnable: the
		// finding is the job's, reported bare on a row with no shards.
		jr.Shards = 0
		jr.Status = StatusError
		jr.Error = js.buildErr.Error()
		return
	}
	seen := map[string]bool{}
	unknown := false
	for s, res := range js.results {
		if res == nil {
			continue // shard skipped by cancellation
		}
		jr.ShardsRun++
		jr.Checked += res.Checked
		jr.Ticks += res.Ticks
		jr.Cells = append(jr.Cells, res.Cells...)
		for _, c := range res.Cells {
			if c.Verdict == VerdictUnknown {
				unknown = true
			}
		}
		if res.Err != nil && jr.Error == "" {
			jr.Error = fmt.Sprintf("shard %d: %v", s, res.Err)
		}
		for _, f := range res.Findings {
			ce := Counterexample{
				Packet: s*js.size + f.Index,
				Input:  f.Input,
				Got:    f.Got,
				Want:   f.Want,
			}
			key := ce.Input + "|" + ce.Got + "|" + ce.Want
			if seen[key] {
				continue
			}
			seen[key] = true
			if maxCounterexamples < 0 || len(jr.Counterexamples) < maxCounterexamples {
				jr.Counterexamples = append(jr.Counterexamples, ce)
			}
		}
	}
	switch {
	case jr.Error != "":
		jr.Status = StatusError
	case len(jr.Counterexamples) > 0:
		jr.Status = StatusFail
	case jr.ShardsRun < jr.Shards:
		jr.Status = StatusAborted
	case unknown:
		jr.Status = StatusUnknown
	default:
		jr.Status = StatusPass
	}
}

// Text renders the report for humans. includeMeta adds the
// non-deterministic metadata (timing, cache counters); without it the text
// is bit-identical across worker counts and cache states.
func (r *Report) Text(includeMeta bool) string {
	var b strings.Builder
	counts := map[string]int{}
	for i := range r.Jobs {
		counts[r.Jobs[i].Status]++
	}
	fmt.Fprintf(&b, "campaign: %d jobs: %d pass, %d fail, %d error, %d unknown, %d aborted; %d PHVs checked\n",
		len(r.Jobs), counts[StatusPass], counts[StatusFail], counts[StatusError], counts[StatusUnknown], counts[StatusAborted], r.TotalChecked)
	if r.StoppedEarly {
		b.WriteString("campaign stopped early\n")
	}
	for i := range r.Jobs {
		j := &r.Jobs[i]
		if j.Mode == ModeVerify {
			verdicts := map[string]int{}
			for _, c := range j.Cells {
				verdicts[c.Verdict]++
			}
			fmt.Fprintf(&b, "%-7s %s  cells=%d/%d proven=%d refuted=%d unknown=%d\n",
				strings.ToUpper(j.Status), j.Name, j.ShardsRun, j.Shards,
				verdicts[VerdictProven], verdicts[VerdictCounterexample], verdicts[VerdictUnknown])
			for _, c := range j.Cells {
				fmt.Fprintf(&b, "        bits=%d steps=%d: %s (vars=%d clauses=%d conflicts=%d)",
					c.Bits, c.Steps, c.Verdict, c.Vars, c.Clauses, c.Conflicts)
				if includeMeta {
					fmt.Fprintf(&b, " solve=%.1fms gates=%d/%d decisions=%d propagations=%d restarts=%d learned=%d removed=%d",
						c.SolveMS, c.GatesBuilt, c.GatesEmitted, c.Search.Decisions, c.Search.Propagations, c.Search.Restarts, c.Search.Learned, c.Search.Removed)
				}
				b.WriteByte('\n')
			}
		} else {
			fmt.Fprintf(&b, "%-7s %s  packets=%d shards=%d/%d checked=%d ticks=%d\n",
				strings.ToUpper(j.Status), j.Name, j.Packets, j.ShardsRun, j.Shards, j.Checked, j.Ticks)
		}
		if j.Error != "" {
			fmt.Fprintf(&b, "        error: %s\n", j.Error)
		}
		for _, ce := range j.Counterexamples {
			fmt.Fprintf(&b, "        packet %d: input %s: got %s, want %s\n", ce.Packet, ce.Input, ce.Got, ce.Want)
		}
	}
	if includeMeta && r.Cache != nil {
		fmt.Fprintf(&b, "cache: hits=%d misses=%d\n", r.Cache.Hits, r.Cache.Misses)
	}
	if includeMeta && r.Timing != nil {
		fmt.Fprintf(&b, "timing: workers=%d elapsed=%.1fms throughput=%.0f PHVs/sec\n",
			r.Timing.Workers, r.Timing.ElapsedMS, r.Timing.PHVsPerSec)
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON. The non-deterministic
// metadata (timing, cache counters) is included only on request, keeping
// the default output deterministic across worker counts and cache states.
func (r *Report) WriteJSON(w io.Writer, includeMeta bool) error {
	type metaReport struct {
		Report
		Cache  *CacheStats `json:"cache,omitempty"`
		Timing *Timing     `json:"timing,omitempty"`
	}
	out := metaReport{Report: *r}
	if includeMeta {
		out.Cache = r.Cache
		out.Timing = r.Timing
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
