// Package gen generates the workload distributions the experiments and
// examples run on: random k-histograms (completeness instances),
// controlled perturbations at a target distance from H_k (soundness
// instances), and the natural shapes the paper's introduction motivates
// (power laws, discretized mixtures).
package gen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// KHistogram draws a random k-histogram over [0, n): k−1 distinct uniform
// breakpoints and Dirichlet(1,...,1) piece masses, resampled until the
// canonical representation has exactly k pieces (no two adjacent levels
// collide). It panics unless 1 <= k <= n.
func KHistogram(r *rng.RNG, n, k int) *dist.PiecewiseConstant {
	if k < 1 || k > n {
		panic(fmt.Sprintf("gen: KHistogram k=%d out of [1,%d]", k, n))
	}
	for attempt := 0; ; attempt++ {
		cuts := distinctCuts(r, n, k-1)
		p := intervals.FromBoundaries(n, cuts)
		masses := dirichlet(r, p.Count())
		d, err := dist.FromWeights(p, masses)
		if err != nil {
			panic(err)
		}
		if d.Compact().PieceCount() == k || attempt > 50 {
			return d
		}
	}
}

// distinctCuts returns c distinct interior cut points of [0, n).
func distinctCuts(r *rng.RNG, n, c int) []int {
	seen := make(map[int]bool, c)
	cuts := make([]int, 0, c)
	for len(cuts) < c {
		v := 1 + r.Intn(n-1)
		if !seen[v] {
			seen[v] = true
			cuts = append(cuts, v)
		}
	}
	sort.Ints(cuts)
	return cuts
}

// dirichlet draws flat-Dirichlet weights (normalized exponentials), with a
// floor to avoid degenerate near-zero pieces.
func dirichlet(r *rng.RNG, k int) []float64 {
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = r.Exponential() + 0.05
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// BlockComb perturbs d to total-variation distance ~delta away, while
// pushing it far from every small-k histogram: the domain is divided into
// `pairs` adjacent block pairs and mass 2·delta·(pair mass) is shifted
// within each pair. The result has ~2·pairs + pieces(d) pieces and, for
// pairs >> k, distance >= ~delta·(1 − k/pairs) from H_k (verify exactly
// with histdp.DistanceToHk). Shifts are capped so no block goes negative,
// so the achieved distance can fall slightly short of delta for very
// skewed d; the exact achieved TV distance from d is returned.
func BlockComb(d *dist.PiecewiseConstant, pairs int, delta float64) (*dist.PiecewiseConstant, float64) {
	n := d.N()
	if pairs < 1 || 2*pairs > n {
		panic(fmt.Sprintf("gen: BlockComb pairs=%d out of range for n=%d", pairs, n))
	}
	if delta < 0 || delta > 1 {
		panic("gen: BlockComb delta must be in [0, 1]")
	}
	// Block boundaries: 2·pairs equal-ish blocks.
	bounds := make([]int, 0, 2*pairs+1)
	for j := 0; j <= 2*pairs; j++ {
		bounds = append(bounds, j*n/(2*pairs))
	}
	var pieces []dist.Piece
	achieved := 0.0
	for pr := 0; pr < pairs; pr++ {
		lo, mid, hi := bounds[2*pr], bounds[2*pr+1], bounds[2*pr+2]
		ivA := intervals.Interval{Lo: lo, Hi: mid}
		ivB := intervals.Interval{Lo: mid, Hi: hi}
		mA, mB := d.IntervalMass(ivA), d.IntervalMass(ivB)
		// Shift x from B to A: the TV distance moved is exactly x, so the
		// pair contributes delta·(its mass); capped by what B holds.
		x := delta * (mA + mB)
		if x > mB {
			x = mB
		}
		achieved += x
		pieces = append(pieces,
			dist.Piece{Iv: ivA, Mass: mA + x},
			dist.Piece{Iv: ivB, Mass: mB - x},
		)
	}
	out, err := dist.NewPiecewiseConstant(n, pieces)
	if err != nil {
		panic(err)
	}
	// The flattening onto blocks changes d inside blocks too; measure the
	// true TV distance to d.
	return out, dist.TV(d, out)
}

// FarFromHk returns a distribution at (approximately) TV distance target
// from the k-histogram it perturbs, constructed to stay far from ALL of
// H_k: a random k-histogram base plus a block comb with many pairs. The
// exact lower bound on its distance to H_k should be verified by the
// caller via histdp when needed.
func FarFromHk(r *rng.RNG, n, k int, target float64, pairs int) *dist.PiecewiseConstant {
	base := KHistogram(r, n, k)
	flat := dist.Flatten(base, intervals.EquiWidth(n, 2*pairs))
	out, _ := BlockComb(flat, pairs, target)
	return out
}

// Zipf returns the Zipf(s) distribution over [0, n): P(i) ∝ (i+1)^−s.
// Power laws are the canonical "needs many bins at the head, few at the
// tail" shape from the selectivity-estimation literature.
func Zipf(n int, s float64) *dist.Dense {
	p := make([]float64, n)
	total := 0.0
	for i := range p {
		p[i] = math.Pow(float64(i+1), -s)
		total += p[i]
	}
	for i := range p {
		p[i] /= total
	}
	return dist.MustDense(p)
}

// GaussianMixture returns a discretized mixture of Gaussians over [0, n).
// means and sigmas are in domain units; weights need not be normalized.
func GaussianMixture(n int, means, sigmas, weights []float64) *dist.Dense {
	if len(means) != len(sigmas) || len(means) != len(weights) {
		panic("gen: mixture parameter lengths differ")
	}
	p := make([]float64, n)
	total := 0.0
	for i := range p {
		x := float64(i)
		for c := range means {
			z := (x - means[c]) / sigmas[c]
			p[i] += weights[c] * math.Exp(-z*z/2) / sigmas[c]
		}
		total += p[i]
	}
	if total <= 0 {
		panic("gen: mixture has zero mass on the domain")
	}
	for i := range p {
		p[i] /= total
	}
	return dist.MustDense(p)
}

// Staircase returns a deterministic s-step staircase over [0, n) with
// strongly non-monotone levels (useful as a reproducible far-from-small-k
// instance).
func Staircase(n, steps int) *dist.PiecewiseConstant {
	if steps < 1 || steps > n {
		panic("gen: Staircase steps out of range")
	}
	pieces := make([]dist.Piece, steps)
	total := 0.0
	for j := 0; j < steps; j++ {
		lo := j * n / steps
		hi := (j + 1) * n / steps
		mass := float64((j%4)+1) * float64(hi-lo)
		pieces[j] = dist.Piece{Iv: intervals.Interval{Lo: lo, Hi: hi}, Mass: mass}
		total += mass
	}
	for j := range pieces {
		pieces[j].Mass /= total
	}
	return dist.MustPiecewiseConstant(n, pieces)
}

// PoissonPMF returns the Poisson(lambda) probability mass function
// truncated to [0, n) and renormalized — a natural unimodal count-data
// shape.
func PoissonPMF(n int, lambda float64) *dist.Dense {
	if lambda <= 0 {
		panic("gen: PoissonPMF needs positive lambda")
	}
	p := make([]float64, n)
	logLambda := math.Log(lambda)
	total := 0.0
	for i := range p {
		lg, _ := math.Lgamma(float64(i) + 1)
		p[i] = math.Exp(float64(i)*logLambda - lambda - lg)
		total += p[i]
	}
	if total <= 0 {
		panic("gen: PoissonPMF lost all mass to truncation")
	}
	for i := range p {
		p[i] /= total
	}
	return dist.MustDense(p)
}

// KModal returns a random k-modal distribution over [0, n): its pmf has
// exactly k local maxima (modality counting as in dist.Modality gives
// 2k−1 monotone runs for interior modes). The paper remarks that the
// Theorem 1.2 lower bound also applies to testing this class. Built as a
// piecewise-linear tent profile through k random peaks, discretized and
// normalized. Requires 1 <= k and 4k <= n.
func KModal(r *rng.RNG, n, k int) *dist.Dense {
	if k < 1 || 4*k > n {
		panic(fmt.Sprintf("gen: KModal k=%d out of range for n=%d", k, n))
	}
	// Peak positions: one per equal slice, jittered; valleys between.
	peaks := make([]int, k)
	for j := 0; j < k; j++ {
		lo := j * n / k
		hi := (j+1)*n/k - 1
		peaks[j] = lo + 1 + r.Intn(hi-lo-1)
	}
	p := make([]float64, n)
	addTent := func(center int, height, halfWidth float64) {
		lo := int(math.Max(0, float64(center)-halfWidth))
		hi := int(math.Min(float64(n-1), float64(center)+halfWidth))
		for i := lo; i <= hi; i++ {
			v := height * (1 - math.Abs(float64(i-center))/halfWidth)
			if v > p[i] {
				p[i] = v
			}
		}
	}
	for _, c := range peaks {
		addTent(c, 0.5+r.Float64(), float64(n)/(2.2*float64(k)))
	}
	total := 0.0
	for _, v := range p {
		total += v
	}
	for i := range p {
		p[i] /= total
	}
	return dist.MustDense(p)
}

// Comb returns the alternating element-level comb: mass 2/n on even
// elements, 0 on odd — distance ~1/2 from every o(n)-histogram. Its
// piecewise representation has n pieces; use only for moderate n.
func Comb(n int) *dist.PiecewiseConstant {
	pieces := make([]dist.Piece, n)
	for i := 0; i < n; i++ {
		m := 0.0
		if i%2 == 0 {
			m = 2.0 / float64(n)
		}
		pieces[i] = dist.Piece{Iv: intervals.Interval{Lo: i, Hi: i + 1}, Mass: m}
	}
	return dist.MustPiecewiseConstant(n, pieces)
}
