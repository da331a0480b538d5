// Package baselines implements the prior algorithms the paper compares
// against analytically (Section 1.2), so the comparison can be run
// empirically:
//
//   - Naive: learn D outright with O(n/ε²) samples and compute the distance
//     to H_k offline — the approach testing is meant to beat.
//   - CDGR16: the learn-then-identity-test of Canonne–Diakonikolas–
//     Gouleakis–Rubinfeld (Θ(√(kn)/ε³·polylog) samples): learn the
//     flattening agnostically on a Θ(k/ε)-interval partition, check it
//     against H_k by DP, then identity-test D against it — i.e. the
//     paper's algorithm *without the sieve*. It doubles as the sieving
//     ablation (experiment E8).
//   - ILR12: the Indyk–Levi–Rubinfeld style per-interval flatness tester
//     (Θ(√(kn)/ε⁵·log n) samples): equal-mass partition, collision-based
//     conditional-uniformity test inside every interval, plus a DP check
//     of the flattening.
//   - Collision: Paninski-flavored collision uniformity tester for the
//     special case k = 1.
//   - Canonne: the paper's tester (internal/core) adapted to the common
//     interface.
//
// The reimplementations are faithful in structure and in how their sample
// complexity scales; constants are calibrated, and each tester exposes a
// Scale knob so the experiment harness can search its empirical sample
// complexity by shrinking/growing every stage budget together.
package baselines

import (
	"context"
	"math"

	"repro/internal/chisq"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// Decision is a tester verdict plus its sample usage.
type Decision struct {
	Accept  bool
	Samples int64
}

// Tester is the common interface the comparison harness drives.
type Tester interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// Run decides H_k membership vs ε-farness from samples of o. A
	// cancelled ctx aborts the run with ctx.Err() at batch-draw
	// granularity (testers never retain pooled buffers past an abort);
	// nil means context.Background().
	Run(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64) (Decision, error)
	// WithScale returns a copy whose sample budgets are multiplied by s.
	WithScale(s float64) Tester
}

// run wraps a body with sample accounting.
func run(o oracle.Oracle, body func() (bool, error)) (Decision, error) {
	start := o.Samples()
	accept, err := body()
	return Decision{Accept: accept, Samples: o.Samples() - start}, err
}

// ctxErr is ctx.Err() tolerating the nil context the Tester contract
// allows.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Canonne adapts the paper's tester (internal/core) to the Tester
// interface.
type Canonne struct {
	Config core.Config
}

// NewCanonne returns the paper's tester under the practical constants.
func NewCanonne() *Canonne { return &Canonne{Config: core.PracticalConfig()} }

// Name implements Tester.
func (c *Canonne) Name() string { return "canonne16" }

// Run implements Tester.
func (c *Canonne) Run(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64) (Decision, error) {
	return run(o, func() (bool, error) {
		res, err := core.TestContext(ctx, o, r, k, eps, c.Config)
		if err != nil {
			return false, err
		}
		return res.Accept, nil
	})
}

// WithScale implements Tester.
func (c *Canonne) WithScale(s float64) Tester {
	return &Canonne{Config: c.Config.Scale(s)}
}

// Naive learns the whole distribution empirically with O(n/ε²) samples and
// projects it onto H_k offline. Its sample complexity is linear in n —
// the yardstick every sublinear tester is measured against.
type Naive struct {
	// C scales the sample budget m = C·n/ε².
	C float64
	// MaxDP caps the projection DP size: for n above it, the empirical
	// distribution is flattened onto MaxDP equi-width buckets first
	// (negligible distortion while MaxDP >> k). Zero means 2048.
	MaxDP int
}

// NewNaive returns the naive tester with its calibrated constant.
func NewNaive() *Naive { return &Naive{C: 4, MaxDP: 2048} }

// Name implements Tester.
func (t *Naive) Name() string { return "naive-learn" }

// Run implements Tester.
func (t *Naive) Run(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64) (Decision, error) {
	return run(o, func() (bool, error) {
		if err := ctxErr(ctx); err != nil {
			return false, err
		}
		n := o.N()
		m := int(math.Ceil(t.C * float64(n) / (eps * eps)))
		counts := oracle.NewCounts(n, oracle.DrawN(o, m))
		emp := counts.Empirical()
		// Exact-on-empirical projection, coarsened to the DP budget when
		// the domain is large (negligible distortion while the bucket
		// count far exceeds k).
		maxDP := t.MaxDP
		if maxDP <= 0 {
			maxDP = 2048
		}
		var pc *dist.PiecewiseConstant
		if n <= maxDP {
			pc = emp.ToPiecewiseConstant()
		} else {
			pc = dist.Flatten(emp, intervals.EquiWidth(n, maxDP))
		}
		lower, _, err := histdp.DistanceToHk(pc, k, intervals.FullDomain(n))
		if err != nil {
			return false, err
		}
		return lower <= eps/2, nil
	})
}

// WithScale implements Tester.
func (t *Naive) WithScale(s float64) Tester { return &Naive{C: t.C * s, MaxDP: t.MaxDP} }

// CDGR16 is the learn-then-identity-test baseline: agnostically learn the
// flattening of D over a Θ(k/ε)-interval partition, verify it is close to
// H_k (DP), then run the [ADK15] identity test of D against it over the
// full domain — no sieving. When D's breakpoint intervals carry
// significant mass, the unsieved identity test wrongly rejects; that gap
// is exactly what experiment E8 measures.
type CDGR16 struct {
	// PartBFactor sets b = PartBFactor·k/ε for the partition.
	PartBFactor float64
	// PartSampleC scales ApproxPart's budget.
	PartSampleC float64
	// LearnEpsDivisor runs the learner at ε/LearnEpsDivisor.
	LearnEpsDivisor float64
	// LearnSampleC scales the learner budget.
	LearnSampleC float64
	// CheckTolDivisor accepts the DP check at ε/CheckTolDivisor.
	CheckTolDivisor float64
	// TestEpsFactor runs the identity test at ε' = TestEpsFactor·ε.
	TestEpsFactor float64
	// Chi are the identity-test constants.
	Chi chisq.Params
}

// NewCDGR16 returns the baseline with calibrated constants (aligned with
// core.PracticalConfig so the E8 ablation isolates the sieve).
func NewCDGR16() *CDGR16 {
	return &CDGR16{
		PartBFactor:     6,
		PartSampleC:     8,
		LearnEpsDivisor: 24,
		LearnSampleC:    1,
		CheckTolDivisor: 20,
		TestEpsFactor:   0.28,
		Chi:             chisq.Params{MFactor: 60, TruncFactor: 1.0 / 50, AcceptFactor: 1.0 / 10},
	}
}

// Name implements Tester.
func (t *CDGR16) Name() string { return "cdgr16-nosieve" }

// Run implements Tester.
func (t *CDGR16) Run(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64) (Decision, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return run(o, func() (bool, error) {
		n := o.N()
		if k >= n {
			return true, nil
		}
		b := t.PartBFactor * float64(k) * math.Log2(float64(k)+2) / eps
		if b < 1 {
			b = 1
		}
		part, err := learn.ApproxPartContext(ctx, o, r, b, t.PartSampleC)
		if err != nil {
			return false, err
		}
		dhat, _, err := learn.LearnContext(ctx, o, r, part.Partition, eps/t.LearnEpsDivisor, t.LearnSampleC)
		if err != nil {
			return false, err
		}
		full := intervals.FullDomain(n)
		proj, err := histdp.ProjectTV(ctx, dhat, k, full)
		if err != nil {
			return false, err
		}
		if proj.Relaxed > eps/t.CheckTolDivisor {
			return false, nil
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		res := chisq.Test(o, r, dhat, full, t.TestEpsFactor*eps, t.Chi)
		return res.Accept, nil
	})
}

// WithScale implements Tester.
func (t *CDGR16) WithScale(s float64) Tester {
	out := *t
	out.PartSampleC *= s
	out.LearnSampleC *= s
	out.Chi.MFactor *= s
	return &out
}
