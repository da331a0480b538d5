// Package stats provides the small statistical toolkit shared by the
// testers and the experiment harness: medians and repetition counts for
// success-probability amplification (the standard trick invoked in §3.2.1
// of the paper), sample moments, and binomial confidence intervals for the
// Monte-Carlo experiments.
package stats

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two central elements
// for even lengths). It panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	return MedianInPlace(sorted)
}

// MedianInPlace returns the median of xs, sorting xs as a side effect. It
// is the allocation-free variant of Median for callers whose input is a
// scratch buffer (the sieve computes K medians per round — copying each
// replicate column was the single largest allocation site of core.Test).
func MedianInPlace(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// RepsForConfidence returns the (odd) number of independent repetitions of
// a 2/3-correct subroutine whose majority vote errs with probability at
// most delta. Derived from the Chernoff bound
// Pr[majority wrong] <= exp(-reps/18) for p = 2/3.
func RepsForConfidence(delta float64) int {
	if delta >= 1.0/3.0 {
		return 1
	}
	reps := int(math.Ceil(18 * math.Log(1/delta)))
	if reps%2 == 0 {
		reps++
	}
	return reps
}

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (zero for a single
// observation).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: variance of empty slice")
	}
	if len(xs) == 1 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// Wilson returns the Wilson score interval [lo, hi] for a binomial
// proportion with successes out of trials at confidence z (z = 1.96 for
// 95%). It is well-behaved at proportions near 0 and 1, which is where
// tester accept-rates live.
func Wilson(successes, trials int, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Quantile returns the q-th empirical quantile of xs (nearest-rank,
// q in [0, 1]). It panics on an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile fraction outside [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}
