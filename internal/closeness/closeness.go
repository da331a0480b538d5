// Package closeness implements the two-sample (closeness) tester of
// Chan, Diakonikolas, Valiant, and Valiant [CDVV14] — the work the paper's
// footnote 2 credits for the χ²-style statistic behind its testing stage.
// Given samples from two unknown distributions p and q over [n], it
// distinguishes p = q from dTV(p, q) >= ε with
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
// The tester rounds out the repository's distribution-testing toolkit and
// gives the experiments an independent χ²-flavored primitive to sanity-
// check the ADK machinery against.
package closeness

import (
	"math"

	"repro/internal/oracle"
	"repro/internal/rng"
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
	x.ForEach(func(i, xi int) {
		yi := y.Of(i)
		d := float64(xi - yi)
		z += (d*d - float64(xi) - float64(yi)) / float64(xi+yi)
	})
	y.ForEach(func(i, yi int) {
		if x.Of(i) != 0 {
			return // already counted
		}
		// xi = 0: ((0−yi)² − yi)/yi = yi − 1.
		z += float64(yi) - 1
	})
	return z
}

// Result reports one closeness test.
type Result struct {
	Accept       bool
	Z, Threshold float64
	M            float64
	DrawnX       int
	DrawnY       int
}

// Test decides whether the distributions behind the two oracles are equal
// (accept w.p. >= 2/3) or ε-far in total variation (reject w.p. >= 2/3),
// drawing Poisson(m) samples from each.
func Test(px, py oracle.Oracle, r *rng.RNG, eps float64, params Params) Result {
	n := px.N()
	if py.N() != n {
		panic("closeness: oracles over different domains")
	}
	m := params.SampleMean(n, eps)
	sx := oracle.DrawPoisson(px, r, m)
	sy := oracle.DrawPoisson(py, r, m)
	x := oracle.NewCounts(n, sx)
	y := oracle.NewCounts(n, sy)
	z := Statistic(x, y)
	// Null variance scale: each element with both counts zero contributes
	// nothing; occupied elements contribute O(1) variance each, so the
	// scale is √(#occupied) <= √(total counts).
	occupied := float64(x.Distinct() + y.Distinct())
	thr := params.ThresholdFactor * math.Sqrt(math.Max(occupied, 1))
	return Result{Accept: z <= thr, Z: z, Threshold: thr, M: m, DrawnX: len(sx), DrawnY: len(sy)}
}
