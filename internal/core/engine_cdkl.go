package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chisq"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// cdklEngine is a practical embodiment of the CDKL'22 near-optimal
// histogram tester (Canonne–Diakonikolas–Kontonis–Liu, "Near-Optimal
// Bounds for Testing Histogram Distributions", arXiv 2207.06596). Where
// the ADK engine spends the bulk of its budget sieving untrustworthy
// intervals before a final test on the surviving sub-domain, CDKL'22
// observes that the sieve is unnecessary: a legal k-histogram can
// disagree with its partition flattening on at most k−1 "breakpoint"
// intervals, so a per-interval statistic that simply DISCOUNTS its k−1
// largest positive entries is already complete — and a far distribution
// cannot hide its distance in k−1 intervals whose individual mass the
// partition caps at ~1/b.
//
// The pipeline:
//
//  1. Partition — learn.ApproxPart exactly as the ADK engine (Prop 3.4),
//     so the two engines are compared on identical partition machinery.
//  2. Learn — the add-one estimator yields D̂, flat within intervals.
//  3. Check — histdp.ProjectTV verifies D̂ is within ε/FlatCheckTolDivisor
//     of H_k on the FULL domain. No sieving happened, so the tolerance is
//     looser than the ADK engine's: a legal k-histogram's learned
//     flattening legitimately carries ~(k−1)/b of breakpoint distance.
//  4. Trimmed flatness test — ONE fresh Poissonized batch at mean
//     m = Chi.MFactor·√n/ε_f² (ε_f = FlatEpsFactor·ε) scores every
//     interval with the same truncated-χ² statistic the ADK sieve uses
//     (chisq.ZPerIntervalInto against D̂); the k−1 largest positive Z_j
//     are dropped and the trimmed sum is compared against the standard
//     Chi.AcceptFactor·m·ε_f² cutoff.
//
// Soundness composes as in the ADK analysis: accept means D̂'s flattening
// is ε/FlatCheckTolDivisor-close to H_k (stage 3) AND D is ε_f-close to
// D̂ off the trimmed intervals (stage 4), whose total D̂-mass is at most
// (k−1)/b plus any heavy singletons the partition isolated exactly.
// Completeness needs no median amplification because there is only one
// accept/reject comparison per run — the single batch is its own
// decision, which is also why Workers is trivially a no-op here and the
// Trace is bit-identical at every worker count.
type cdklEngine struct{}

// Name implements Engine.
func (cdklEngine) Name() string { return "cdkl22" }

// ExpectedSamples implements Engine: partition + learn + one flatness
// batch. No sieve term is the engine's entire advantage — compare
// adkEngine.ExpectedSamples, whose sieve term multiplies a same-order
// batch by reps×(rounds+1).
func (cdklEngine) ExpectedSamples(n, k int, eps float64, cfg Config) int64 {
	b := cfg.PartB(k, eps)
	partM := learn.ApproxPartSamples(b, cfg.PartSampleC)
	K := int(partIntervals(b))
	learnM := learn.LearnSamples(K, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC)
	flatM := cfg.Chi.SampleMean(n, cfg.flatEpsFactor()*eps)
	return learn.TotalSamples(int64(partM), int64(learnM), learn.SampleCount(flatM))
}

// run implements Engine.
func (cdklEngine) run(ctx context.Context, a *Arena, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	n := o.N()
	tr := Trace{N: n}
	mark := o.Samples()
	took := func() int64 {
		d := o.Samples() - mark
		mark = o.Samples()
		return d
	}

	// Stage 1: partition (same machinery as the ADK engine).
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StagePartition})
	b := cfg.PartB(k, eps)
	tr.B = b
	part, err := learn.ApproxPartContext(ctx, o, r, b, cfg.PartSampleC)
	if err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	p := part.Partition
	K := p.Count()
	tr.K = K
	tr.PartitionSamples = took()
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StagePartition, Samples: tr.PartitionSamples})

	// Stage 2: learn.
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageLearn})
	dhat, _, err := learn.LearnContext(ctx, o, r, p, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC)
	if err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	tr.LearnSamples = took()
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageLearn, Samples: tr.LearnSamples})

	g := intervals.FullDomain(n)
	reject := func(stage, reason string) (*Result, error) {
		tr.RejectStage = stage
		tr.RejectReason = reason
		if a.ob != nil {
			a.emit(obs.Event{Kind: obs.KindRunEnd, Samples: tr.TotalSamples(), RejectStage: stage})
		}
		return &Result{Accept: false, Trace: tr, Learned: dhat, Domain: g}, nil
	}

	// Stage 3: check that some k-histogram is close to D̂ on the full
	// domain. Runs BEFORE the flatness batch: rejecting a structurally
	// hopeless D̂ costs zero extra samples.
	if err := ctx.Err(); err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	if !cfg.SkipCheck {
		reason, err := a.check(ctx, &tr, dhat, k, g, eps/cfg.flatCheckTolDivisor(), "the full domain")
		if err != nil {
			return a.fail(tr.TotalSamples(), err)
		}
		if reason != "" {
			return reject(StageCheck, reason)
		}
	}

	// Stage 4: the trimmed per-interval flatness test — one Poissonized
	// batch, no amplification, no fan-out.
	if err := ctx.Err(); err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageTest})
	epsF := cfg.flatEpsFactor() * eps
	m := cfg.Chi.SampleMean(n, epsF)
	tau := cfg.Chi.TruncFactor * epsF / float64(n)
	countStrat := oracle.EffectiveStrategy(o, cfg.CountStrategy)
	counts := oracle.DrawCountsWith(o, r, m, countStrat)
	a.grow(K, 1)
	zs := chisq.ZPerIntervalInto(a.med[0][:0], counts, dhat, p, g, m, tau)
	counts.Release()
	tr.TestSamples = took()

	total := 0.0
	for _, z := range zs {
		total += z
	}
	// Trim the k−1 largest positive statistics: a legal k-histogram has
	// at most k−1 breakpoint intervals, and only a positive Z_j can be
	// breakpoint signal worth forgiving. (Trimming negative entries
	// would RAISE the sum — never correct.)
	pos := a.zs[:0]
	for _, z := range zs {
		if z > 0 {
			pos = append(pos, z)
		}
	}
	sort.Float64s(pos)
	trim := k - 1
	if trim > len(pos) {
		trim = len(pos)
	}
	for i := 0; i < trim; i++ {
		total -= pos[len(pos)-1-i]
	}
	thr := cfg.Chi.AcceptFactor * m * epsF * epsF
	tr.FinalZ = total
	tr.FinalThresh = thr
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageTest, Samples: tr.TestSamples})
	if total > thr {
		return reject(StageTest, fmt.Sprintf("trimmed flatness statistic %.1f above threshold %.1f (forgave %d of %d intervals)", total, thr, trim, K))
	}
	if a.ob != nil {
		a.emit(obs.Event{Kind: obs.KindRunEnd, Accept: true, Samples: tr.TotalSamples()})
	}
	return &Result{Accept: true, Trace: tr, Learned: dhat, Domain: g}, nil
}
