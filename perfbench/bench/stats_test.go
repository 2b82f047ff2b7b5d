package bench

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4) on the same data.
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{7, 1, 3}, 3, 1, 7},
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{3.5, 1.25, 9, 4, 4, 12, 0.5}, 4, 1.25, 9},
	}
	for _, c := range cases {
		if got := Median(c.xs); got != c.med {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := Quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("Spread = %v", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: TailPercentile must sort
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n         int
		p         float64
		wantValue float64 // the 1-based rank, since seq holds 1..n
		wantUsed  float64
	}{
		{1000, 0.99, 990, 0.99}, // exactly ten beyond
		{200, 0.95, 190, 0.95},
		{199, 0.95, 189, 189.0 / 199}, // nearest rank 190 leaves nine
		{500, 0.99, 490, 0.98},
		{15, 0.99, 8, 8.0 / 15}, // never below the median
		{100, 0.5, 50, 0.5},
	}
	for _, c := range cases {
		v, used := TailPercentile(seq(c.n), c.p)
		if v != c.wantValue || math.Abs(used-c.wantUsed) > 1e-12 {
			t.Errorf("n=%d p=%v: got value %v used %v, want %v used %v", c.n, c.p, v, used, c.wantValue, c.wantUsed)
		}
	}
}

func TestTailPercentileCountsFailuresBeyondEveryLimit(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1) // failed requests
	}
	if v, _ := TailPercentile(xs, 0.99); !math.IsInf(v, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", v)
	}
}
