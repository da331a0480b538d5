// Package learn implements the learning-stage subroutines of Algorithm 1:
//
//   - ApproxPart (Proposition 3.4, from the full version of [ADK15]): from
//     O(b log b) samples, partition the domain so that heavy elements
//     (mass >= 1/b) are singletons and every other interval has small mass.
//   - LaplaceEstimate / Learn (Lemma 3.5, following the Laplace/add-one
//     estimator analysis of [KOPS15]): from O(ℓ/ε²) samples over an
//     ℓ-interval partition, output a flattened histogram D̂ that is
//     ε²-close in χ² distance to the flattening of D — except possibly on
//     D's breakpoint intervals, which the sieve later removes.
package learn

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// PartResult is the output of ApproxPart.
type PartResult struct {
	// Partition divides [0, n) into K intervals.
	Partition *intervals.Partition
	// Heavy[j] reports whether interval j was emitted as a heavy singleton
	// (empirical mass >= the singleton threshold).
	Heavy []bool
	// SamplesUsed is the number of samples drawn.
	SamplesUsed int
}

// ApproxPartSamples returns the sample budget C·b·log2(b+2) used by
// ApproxPart.
func ApproxPartSamples(b, c float64) int {
	return int(SampleCount(math.Ceil(c * b * math.Log2(b+2))))
}

// SampleCount truncates a non-negative real sample budget to a count.
// Every stage's budget grows without bound as ε → 0; one past
// math.MaxInt64 saturates there instead of wrapping into a small or
// negative count that a MaxSamples guard would let through.
func SampleCount(x float64) int64 {
	if x < math.MaxInt64 {
		return int64(x)
	}
	return math.MaxInt64
}

// TotalSamples sums non-negative sample counts, saturating at
// math.MaxInt64.
func TotalSamples(counts ...int64) int64 {
	var total int64
	for _, c := range counts {
		if c > math.MaxInt64-total {
			return math.MaxInt64
		}
		total += c
	}
	return total
}

// ApproxPart draws O(b log b) samples and returns a partition of the
// domain such that, with high probability:
//
//	(i)  every element with true mass >= 1/b is a singleton interval;
//	(ii) every non-singleton interval has true mass <= 2/b;
//	(iii) the number of intervals K is O(b).
//
// The greedy differs from the paper's statement only in the constant of
// (iii): K <= 7b/3 + #heavy + 2 rather than 2b+2, because trailing light
// chunks before each heavy singleton are kept separate instead of merged
// (merging would break the 2/b bound of (ii)). Downstream only O(b)
// matters. c scales the sample budget (the paper's O(·); default 20 in
// core.Config).
func ApproxPart(o oracle.Oracle, r *rng.RNG, b, c float64) (*PartResult, error) {
	return ApproxPartContext(context.Background(), o, r, b, c)
}

// ApproxPartContext is ApproxPart honoring ctx: the context is checked
// before the sample batch is drawn (batch-draw granularity; the batch
// itself is not interruptible), and ctx.Err() is returned on
// cancellation with no samples consumed and no pooled buffers retained.
func ApproxPartContext(ctx context.Context, o oracle.Oracle, r *rng.RNG, b, c float64) (*PartResult, error) {
	n := o.N()
	if b < 1 {
		return nil, fmt.Errorf("learn: ApproxPart needs b >= 1, got %v", b)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m := ApproxPartSamples(b, c)
	// Pooled tally: identical draw sequence to NewCounts(n, DrawN(o, m))
	// without materializing the m-sample slice.
	counts := oracle.DrawNCounts(o, m)
	defer counts.Release()

	// Thresholds on empirical mass: an element is heavy at 3/(4b); an
	// accumulating chunk closes at 3/(4b).
	heavyThr := 3.0 / (4 * b) * float64(m)
	chunkThr := 3.0 / (4 * b) * float64(m)

	// K <= ~7b/3 + #heavy + 2 (see the doc comment); pre-size so the chunk
	// walk appends without regrowing.
	estK := int(7*b/3) + 4
	ivs := make([]intervals.Interval, 0, estK)
	heavy := make([]bool, 0, estK)
	start := 0
	acc := 0.0
	closeChunk := func(end int) {
		if end > start {
			ivs = append(ivs, intervals.Interval{Lo: start, Hi: end})
			heavy = append(heavy, false)
		}
		start = end
		acc = 0
	}
	// Only sampled elements can be heavy or contribute mass; walk the
	// sampled elements in order and close chunks lazily so the cost is
	// O(m + K), not O(n).
	w := counts.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			i, ci := e.Elem, float64(e.Count)
			if ci >= heavyThr {
				closeChunk(i)
				ivs = append(ivs, intervals.Interval{Lo: i, Hi: i + 1})
				heavy = append(heavy, true)
				start = i + 1
				continue
			}
			acc += ci
			if acc >= chunkThr {
				closeChunk(i + 1)
			}
		}
	}
	closeChunk(n)
	if len(ivs) == 0 {
		// No samples at all (possible only for tiny m): single interval.
		ivs = append(ivs, intervals.Interval{Lo: 0, Hi: n})
		heavy = append(heavy, false)
	}
	p, err := intervals.NewPartition(n, ivs)
	if err != nil {
		return nil, fmt.Errorf("learn: internal partition error: %w", err)
	}
	return &PartResult{Partition: p, Heavy: heavy, SamplesUsed: m}, nil
}

// LaplaceEstimate computes the add-one estimator of Lemma 3.5 from counts
// tallied over the partition p: interval I_i receives mass
// (m_{I_i} + 1) / (m + ℓ), spread uniformly. The masses sum to one by
// construction.
func LaplaceEstimate(counts *oracle.Counts, p *intervals.Partition) *dist.PiecewiseConstant {
	ell := p.Count()
	m := counts.Total()
	masses := make([]float64, ell)
	for j := range masses {
		masses[j] = 1.0 / float64(m+ell)
	}
	j, hi := 0, p.Interval(0).Hi
	w := counts.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			for e.Elem >= hi {
				j++
				hi = p.Interval(j).Hi
			}
			masses[j] += float64(e.Count) / float64(m+ell)
		}
	}
	d, err := dist.FromWeights(p, masses)
	if err != nil {
		panic(err) // masses are positive and complete by construction
	}
	return d
}

// LearnSamples returns the sample budget ⌈c·ℓ/ε²⌉ used by Learn.
func LearnSamples(ell int, eps, c float64) int {
	return int(SampleCount(math.Ceil(c * float64(ell) / (eps * eps))))
}

// Learn draws O(ℓ/ε²) samples and returns the Laplace estimate over p.
// Guarantee (Lemma 3.5): if D ∈ H_k, then with probability >= 9/10 the
// output D̂ satisfies dχ²(D̃^J ‖ D̂) <= ε², where D̃^J is D flattened on
// every non-breakpoint interval of p. c scales the sample budget.
func Learn(o oracle.Oracle, r *rng.RNG, p *intervals.Partition, eps, c float64) (*dist.PiecewiseConstant, int) {
	est, m, _ := LearnContext(context.Background(), o, r, p, eps, c)
	return est, m
}

// LearnContext is Learn honoring ctx at batch-draw granularity: the
// context is checked before the sample batch is drawn, and ctx.Err() is
// returned on cancellation with nothing drawn. The pooled count buffer
// is released on every path, including a panicking estimator.
func LearnContext(ctx context.Context, o oracle.Oracle, r *rng.RNG, p *intervals.Partition, eps, c float64) (*dist.PiecewiseConstant, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	m := LearnSamples(p.Count(), eps, c)
	counts := oracle.DrawNCounts(o, m)
	defer counts.Release()
	return LaplaceEstimate(counts, p), m, nil
}

// EmpiricalFlattening returns the plain empirical flattening over p:
// interval I receives mass m_I/m. Used by the agnostic-TV baselines.
// It panics if counts is empty.
func EmpiricalFlattening(counts *oracle.Counts, p *intervals.Partition) *dist.PiecewiseConstant {
	m := counts.Total()
	if m == 0 {
		panic("learn: empirical flattening of zero samples")
	}
	masses := make([]float64, p.Count())
	j, hi := 0, p.Interval(0).Hi
	w := counts.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			for e.Elem >= hi {
				j++
				hi = p.Interval(j).Hi
			}
			masses[j] += float64(e.Count) / float64(m)
		}
	}
	d, err := dist.FromWeights(p, masses)
	if err != nil {
		panic(err)
	}
	return d
}

// BreakpointIntervals returns the indices of the intervals of p that
// contain a breakpoint of the piecewise-constant distribution d (an i with
// d(i) != d(i+1) strictly inside the interval). A k-histogram has at most
// k-1 breakpoints, hence at most k-1 breakpoint intervals (the paper's set
// J in Lemma 3.5). Used by tests and experiments that need the ground
// truth.
func BreakpointIntervals(d *dist.PiecewiseConstant, p *intervals.Partition) []int {
	if d.N() != p.N() {
		panic("learn: mismatched domains")
	}
	var out []int
	for _, cut := range d.Compact().Partition().Boundaries() {
		// The breakpoint is between elements cut-1 and cut; it is interior
		// to interval j iff j contains both.
		j := p.Find(cut)
		if p.Interval(j).Contains(cut - 1) {
			if len(out) == 0 || out[len(out)-1] != j {
				out = append(out, j)
			}
		}
	}
	return out
}
