package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are CPython's statistics.median and
	// statistics.quantiles(n=4) on the same lists (one sample, which Python
	// rejects, is its own quartile here).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
		{[]float64{484.53, 424.506, 452.137, 430.112, 459.159, 433.385, 484.187, 509.694, 423.09, 425.677}, 442.761, 425.38425, 484.27275},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 ((82.5-27.5)/55)", got)
	}
}

func TestScaledAndTail(t *testing.T) {
	// A machine that runs at half speed for two of three regions doubles
	// wall and reference alike; one region hit without its reference is an
	// outlier the median drops.
	ts := []timing{{WallMS: 50, RefMS: refNominalMS}, {WallMS: 100, RefMS: 2 * refNominalMS}, {WallMS: 300, RefMS: 2 * refNominalMS}}
	if got := scaledMS(ts); got != 50 {
		t.Errorf("scaledMS = %v, want 50", got)
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	pct, v, ok := tailPercentile(xs)
	if !ok || pct != 90 || v != 90 { // ten samples (91..100) lie beyond it
		t.Errorf("tailPercentile of 1..100 = p%d %v %v, want p90 = 90", pct, v, ok)
	}
	if _, _, ok := tailPercentile(xs[:19]); ok {
		t.Error("tailPercentile with 19 samples claims a tail it cannot support")
	}
	if got := geomean([]float64{1, 100}); !near(got, 10) {
		t.Errorf("geomean(1,100) = %v", got)
	}
}

func TestJudge(t *testing.T) {
	steadyA := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name   string
		b      []float64
		better string
		want   string
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "lower", verdictWithin},
		{"slower", []float64{120, 121, 119, 120, 120}, "lower", verdictWorse},
		{"faster", []float64{80, 81, 79, 80, 80}, "lower", verdictBetter},
		{"higher is better, dropped", []float64{80, 81, 79, 80, 80}, "higher", verdictWorse},
		{"noisy", []float64{60, 140, 100, 180, 90}, "lower", verdictUnresolved},
		{"noisy but every run faster", []float64{40, 90, 60, 20, 50}, "lower", verdictBetter},
	}
	for _, c := range cases {
		if _, got := judge(steadyA, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestResolvableBound(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		want float64
	}{
		{"both steady: the 5% floor", steady, steady, 0.05},
		{"twice the wider side's spread", steady, []float64{100, 104, 96, 102, 98}, 0.12},
		{"never above the metric's bound", steady, []float64{100, 110, 90, 105, 95}, 0.25},
		{"too few runs to know the spread", steady[:4], steady, 0.25},
	} {
		if got := resolvable(c.a, c.b, 0.25); !near(got, c.want) {
			t.Errorf("%s: bound %v, want %v", c.name, got, c.want)
		}
	}
}
