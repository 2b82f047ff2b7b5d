// Package bench holds the master benchmark's shared pieces: summary
// statistics, the open-loop schedule, the seeded question generators,
// the reference-plan checker, the HTTP load client, master process
// control, and the span format the traced master writes.
package bench

import (
	"math"
	"sort"
)

// MinTail is how many samples must lie beyond a reported percentile.
// With fewer, the tail value is one or two outliers, not a percentile.
const MinTail = 10

// Median returns the median of xs (the mean of the two middle values for
// an even count). It returns NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs by the
// "exclusive" method, the default of Python's statistics.quantiles(xs,
// n=4). It needs at least two values and returns NaNs otherwise.
func Quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		// Clamp to the data before taking delta, as Python does.
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Spread is the interquartile distance of xs as a share of its median.
func Spread(xs []float64) float64 {
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / Median(xs)
}

// TailPercentile reports the p-th percentile (0 < p < 1) of xs by
// nearest rank, but only as high as the data allow: the reported rank
// keeps at least MinTail samples beyond it. When p asks for more than
// that, the percentile falls back to the highest one that qualifies, and
// never below the median. It returns the value and the percentile
// actually used. +Inf samples (failed requests) sort last, so they count
// as beyond every limit.
func TailPercentile(xs []float64, p float64) (value, used float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), p
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < MinTail {
		rank = n - MinTail
		if med := (n + 1) / 2; rank < med {
			rank = med
		}
	}
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], float64(rank) / float64(n)
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
