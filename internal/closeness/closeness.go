// Package closeness implements two-sample (closeness) testing with the
// χ² statistic of Chan, Diakonikolas, Valiant, and Valiant [CDVV14] — the
// work the paper's footnote 2 credits for the χ²-style statistic behind
// its testing stage. Given samples from two unknown distributions p and q
// over [n], it distinguishes p = q from dTV(p, q) >= ε with
// O(max(n^{2/3}/ε^{4/3}, √n/ε²)) samples.
//
// The statistic, over Poissonized count vectors X, Y (X_i ~ Poisson(m·p_i),
// Y_i ~ Poisson(m·q_i)):
//
//	Z = Σ_i ((X_i − Y_i)² − X_i − Y_i) / (X_i + Y_i)    (terms with
//	    X_i + Y_i = 0 contribute 0)
//
// E[Z] = 0 when p = q, and E[Z] grows with m·‖p−q‖₂²-ish when they are
// far; [CDVV14] run it on samples split into a light part (after removing
// heavy elements) — this implementation follows their simpler variant that
// thresholds Z directly, which preserves the sample-complexity scaling.
//
// TestTwoSample runs it on the [DKN17] reduced domain of two histograms.
// With k = n the reduction is off, and TestTwoSample is the full-domain
// [CDVV14] test: one Poissonized batch per side when Reps = 1, as
// histtest.TestCloseness and E15's naive arm call it.
package closeness

import (
	"math"

	"repro/internal/oracle"
)

// Params are the tester's tunable constants.
type Params struct {
	// MFactor sets the per-distribution Poisson mean
	// m = MFactor·max(n^{2/3}/ε^{4/3}, √n/ε²).
	MFactor float64
	// ThresholdFactor sets the accept cutoff Z <= ThresholdFactor·√(total
	// counts): under the null Z has zero mean and variance O(min(m, n)),
	// so a multiple of the standard-deviation scale separates the cases.
	ThresholdFactor float64
}

// DefaultParams returns calibrated constants (validated in the tests:
// null acceptance and ε-far rejection both >= 3/4 at laptop scales).
func DefaultParams() Params {
	return Params{MFactor: 2, ThresholdFactor: 3}
}

// SampleMean returns the Poisson mean used per distribution.
func (p Params) SampleMean(n int, eps float64) float64 {
	a := math.Pow(float64(n), 2.0/3.0) / math.Pow(eps, 4.0/3.0)
	b := math.Sqrt(float64(n)) / (eps * eps)
	return p.MFactor * math.Max(a, b)
}

// Statistic computes Z from two count vectors over the same domain.
func Statistic(x, y *oracle.Counts) float64 {
	if x.N() != y.N() {
		panic("closeness: mismatched domains")
	}
	z := 0.0
	// Iterate the union of supports: first x's elements, then y's elements
	// that x has not seen.
	w := x.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			xi, yi := e.Count, y.Of(e.Elem)
			d := float64(xi - yi)
			z += (d*d - float64(xi) - float64(yi)) / float64(xi+yi)
		}
	}
	w = y.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			if x.Of(e.Elem) != 0 {
				continue // already counted
			}
			// xi = 0: ((0−yi)² − yi)/yi = yi − 1.
			z += float64(e.Count) - 1
		}
	}
	return z
}
