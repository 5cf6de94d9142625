package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the arithmetic the acceptance driver applies to this benchmark's
// output. Fewer than two samples have no spread: both quartiles are the
// sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n // as in CPython: may extrapolate past the clamped pair
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median: the
// run-to-run noise figure a bound has to clear.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailPercentile returns the highest whole percentile of xs that still has
// at least ten samples beyond it, and its value — the tail figure the
// metrics guide asks for next to a median. With fewer than twenty samples
// no percentile above the median qualifies, and ok is false.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n < 20 {
		return 0, 0, false
	}
	// samples strictly beyond index i number n-1-i; keep that >= 10.
	i := n - 11
	pct = 100 * (i + 1) / n
	if pct > 99 {
		pct = 99
	}
	if pct <= 50 {
		return 0, 0, false
	}
	return pct, s[i], true
}

// geomean is the geometric mean of the positive entries of xs (the
// compilers sheet's rule for averaging per-program ratios and costs).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
