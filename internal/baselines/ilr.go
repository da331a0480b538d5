package baselines

import (
	"context"
	"math"

	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// ILR12 is the Indyk–Levi–Rubinfeld style tester: split the domain into
// L = Θ(k/ε) intervals of (empirically) equal mass, then
//
//	(a) check by DP that the flattening of D over that partition is close
//	    to H_k, and
//	(b) test, inside every interval, that D is flat (conditionally
//	    uniform) via the collision statistic.
//
// A k-histogram makes (a) pass and leaves at most k−1 intervals non-flat
// (total mass O(k/L) = O(ε)); an ε-far distribution must push ≥ ε/2 of
// distance into (a) or into the within-interval non-flatness that (b)
// detects. The within-interval collision tests are what drive the
// Θ(√(kn)/poly(ε)) sample complexity with its worse ε-dependence — the
// behaviour experiment E3 compares against.
//
// Deviations from [ILR12]: their multi-level bucketing over log n weight
// scales is replaced by the single ApproxPart partition, and intervals
// receiving too few conditional samples are presumed flat (costing
// soundness slack covered by the constants). The scaling in n, k, ε is
// preserved.
type ILR12 struct {
	// LFactor sets the interval count L = LFactor·k/ε.
	LFactor float64
	// PartSampleC scales the partitioning budget.
	PartSampleC float64
	// MassSampleC scales the interval-mass estimation budget C·L/ε².
	MassSampleC float64
	// FlatC scales the collision-test budget C·√(kn)/ε⁴.
	FlatC float64
	// LocalEps is the per-interval flatness threshold, as a fraction of ε.
	LocalEps float64
	// BadMassFrac rejects when intervals flagged non-flat exceed this
	// fraction of ε in estimated mass.
	BadMassFrac float64
	// CheckTolDivisor accepts the flattening DP check at ε/CheckTolDivisor.
	CheckTolDivisor float64
}

// NewILR12 returns the baseline with calibrated constants.
func NewILR12() *ILR12 {
	return &ILR12{
		LFactor:         16,
		PartSampleC:     8,
		MassSampleC:     2,
		FlatC:           6,
		LocalEps:        0.5,
		BadMassFrac:     0.25,
		CheckTolDivisor: 4,
	}
}

// Name implements Tester.
func (t *ILR12) Name() string { return "ilr12-flatness" }

// Run implements Tester.
func (t *ILR12) Run(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64) (Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(o, func() (bool, error) {
		n := o.N()
		if k >= n {
			return true, nil
		}
		// Partition into ~L equal-mass intervals via ApproxPart with b = L.
		L := t.LFactor * float64(k) / eps
		if L < 1 {
			L = 1
		}
		part, err := learn.ApproxPartContext(ctx, o, r, L, t.PartSampleC)
		if err != nil {
			return false, err
		}
		p := part.Partition

		// Estimate interval masses and check the flattening against H_k.
		if err := ctx.Err(); err != nil {
			return false, err
		}
		mMass := int(math.Ceil(t.MassSampleC * float64(p.Count()) / (eps * eps)))
		massCounts := oracle.NewCounts(n, oracle.DrawN(o, mMass))
		flat := learn.LaplaceEstimate(massCounts, p)
		proj, err := histdp.ProjectTV(ctx, flat, k, intervals.FullDomain(n))
		if err != nil {
			return false, err
		}
		if proj.Relaxed > eps/t.CheckTolDivisor {
			return false, nil
		}

		// Within-interval flatness by collisions.
		if err := ctx.Err(); err != nil {
			return false, err
		}
		mFlat := int(math.Ceil(t.FlatC * math.Sqrt(float64(k)*float64(n)) / math.Pow(eps, 4)))
		flatCounts := oracle.NewCounts(n, oracle.DrawN(o, mFlat))
		// Conditional samples and collisions inside each interval, from
		// one walk with a forward interval cursor.
		cIs := make([]int, p.Count())
		colls := make([]int64, p.Count())
		j, hi := 0, p.Interval(0).Hi
		w := flatCounts.Walk()
		for blk := w.Next(); len(blk) > 0; blk = w.Next() {
			for _, e := range blk {
				for e.Elem >= hi {
					j++
					hi = p.Interval(j).Hi
				}
				cIs[j] += e.Count
				colls[j] += int64(e.Count) * int64(e.Count-1) / 2
			}
		}
		epsLoc := t.LocalEps * eps
		badMass := 0.0
		for j := 0; j < p.Count(); j++ {
			iv := p.Interval(j)
			if iv.Len() == 1 {
				continue // singletons are trivially flat
			}
			cI, coll := cIs[j], colls[j]
			// Need enough conditional samples to resolve ℓ2 within iv.
			need := math.Sqrt(float64(iv.Len())) / (epsLoc * epsLoc)
			if float64(cI) < need || cI < 2 {
				continue // presumed flat (see doc comment)
			}
			l2est := 2 * float64(coll) / (float64(cI) * float64(cI-1))
			if l2est > (1+2*epsLoc*epsLoc)/float64(iv.Len()) {
				badMass += flat.IntervalMass(iv)
			}
		}
		return badMass <= t.BadMassFrac*eps, nil
	})
}

// WithScale implements Tester.
func (t *ILR12) WithScale(s float64) Tester {
	out := *t
	out.PartSampleC *= s
	out.MassSampleC *= s
	out.FlatC *= s
	return &out
}

// Collision is the Paninski-style uniformity tester specialized to k = 1:
// m = C·√n/ε² samples, accept iff the pair-collision rate is below
// (1 + 2ε²)/n. Testing uniformity IS testing H_1 against the uniform
// distribution for center-symmetric instances like the paper's Q_ε family
// (Proposition 4.1); for general k = 1 instances it is only a one-sided
// baseline, which is how experiment E4 uses it.
type Collision struct {
	// C scales the sample budget m = C·√n/ε².
	C float64
}

// NewCollision returns the uniformity baseline with its calibrated
// constant.
func NewCollision() *Collision { return &Collision{C: 4} }

// Name implements Tester.
func (t *Collision) Name() string { return "paninski-collision" }

// Run implements Tester. k must be 1.
func (t *Collision) Run(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64) (Decision, error) {
	return run(o, func() (bool, error) {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		if k != 1 {
			return false, errNotUniformity
		}
		n := o.N()
		m := int(math.Ceil(t.C * math.Sqrt(float64(n)) / (eps * eps)))
		if m < 2 {
			m = 2
		}
		counts := oracle.NewCounts(n, oracle.DrawN(o, m))
		pairs := float64(m) * float64(m-1) / 2
		rate := float64(counts.PairCollisions()) / pairs
		return rate <= (1+2*eps*eps)/float64(n), nil
	})
}

// WithScale implements Tester.
func (t *Collision) WithScale(s float64) Tester { return &Collision{C: t.C * s} }

type uniformityErr struct{}

func (uniformityErr) Error() string { return "baselines: collision tester only supports k = 1" }

var errNotUniformity = uniformityErr{}
