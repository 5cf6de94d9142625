package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The same-runner A/B comparison: two files of saved runs (say the merge
// base's and the head's, taken alternately on one machine), one row per
// workload × end-to-end metric.

// Verdicts of one comparison row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's per-run values a (before) and b (after). The change is
// the move of the median as a share of a's median, signed so that positive
// is worse. A move past the bound in the good direction is "better", past
// it in the bad direction "worse", anything else "within bound" — unless
// either side's own spread (interquartile distance over median) exceeds the
// bound, in which case the samples cannot resolve a move of that size and
// the row is "unresolved", except when every sample of b beats every sample
// of a.
func judge(a, b []float64, better string, bound float64) (worsening float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, verdictUnresolved
	}
	worsening = (mb - ma) / ma
	if better == "higher" {
		worsening = -worsening
	}
	if spread(a) > bound || spread(b) > bound {
		sa, sb := sorted(a), sorted(b)
		clear := sb[len(sb)-1] < sa[0] // every b below every a
		if better == "higher" {
			clear = sb[0] > sa[len(sa)-1]
		}
		if clear {
			return worsening, verdictBetter
		}
		return worsening, verdictUnresolved
	}
	switch {
	case worsening > bound:
		return worsening, verdictWorse
	case worsening < -bound:
		return worsening, verdictBetter
	default:
		return worsening, verdictWithin
	}
}

// resolvable is the bound an A/B comparison of the samples a and b can be
// held to: the issue's rule for fixing a bound from measurement — twice the
// wider side's spread, at least 5 % — and never more than the metric's own
// bound. Interleaved runs of two checkouts that repeat within 3 % are so
// judged at 6 %, whatever the spells between two sequential sweeps made the
// metric's bound. Below minCompareRuns a side the spread says nothing, and
// the metric's bound stands.
func resolvable(a, b []float64, bound float64) float64 {
	if len(a) < minCompareRuns || len(b) < minCompareRuns {
		return bound
	}
	return min(bound, max(0.05, 2*max(spread(a), spread(b))))
}

const minCompareRuns = 5

func loadRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// compareFiles prints the comparison table and returns an error when any
// row is worse or any exact count differs, so a gate can use the exit code.
func compareFiles(pathA, pathB string, w io.Writer) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	return compareRuns(a, b, w)
}

// valuesOf collects one end-to-end metric's value from every untraced run
// of a workload.
func valuesOf(recs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// compareRuns judges b against a, each row against the bound its samples
// can resolve.
func compareRuns(a, b []runRecord, w io.Writer) error {
	fmt.Fprintf(w, "%-15s %-11s %3s %13s %13s %13s %3s %13s %13s %13s %7s %6s  %s\n",
		"workload", "metric", "n", "a.median", "a.q1", "a.q3", "n", "b.median", "b.q1", "b.q3", "b/a", "bound", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := valuesOf(a, wl.name, d.Name), valuesOf(b, wl.name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			bound := resolvable(xa, xb, d.Bound)
			_, verdict := judge(xa, xb, d.Better, bound)
			if verdict == verdictWorse {
				worse++
			}
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			fmt.Fprintf(w, "%-15s %-11s %3d %13.4f %13.4f %13.4f %3d %13.4f %13.4f %13.4f %7.3f %5.0f%%  %s\n",
				wl.name, d.Name, len(xa), median(xa), a1, a3, len(xb), median(xb), b1, b3, median(xb)/median(xa), 100*bound, verdict)
		}
	}
	// Simulated statistics are exact: for one workload and seed, any
	// difference between two runs means they did not simulate the same
	// thing — whichever file they are in.
	type exact struct {
		work, ticks, conflicts int64
		hash                   string
	}
	seen := map[string]exact{}
	drift := 0
	for _, r := range append(append([]runRecord{}, a...), b...) {
		key := fmt.Sprintf("%s seed=%d", r.Workload, r.Seed)
		x := exact{r.Work, r.Ticks, r.Conflicts, r.Hash}
		if first, ok := seen[key]; !ok {
			seen[key] = x
		} else if first != x {
			drift++
			fmt.Fprintf(w, "%s: exact counts differ: work %d/%d ticks %d/%d conflicts %d/%d sha256 %.12s/%.12s\n",
				key, first.work, x.work, first.ticks, x.ticks, first.conflicts, x.conflicts, first.hash, x.hash)
		}
	}
	if worse > 0 || drift > 0 {
		return fmt.Errorf("%d rows worse than their bound, %d runs whose exact counts differ", worse, drift)
	}
	return nil
}
