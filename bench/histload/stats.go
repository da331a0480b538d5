package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// percentile with a thinner tail is reported missing rather than
// estimated: p90 needs at least 100 samples, p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. ok is false when
// fewer than minBeyond samples lie above the rank.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads
// printed by -runs match the ones a reader computes from the raw values.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := m - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// mean returns the arithmetic mean of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
