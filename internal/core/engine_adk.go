package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/chisq"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stats"
)

// adkEngine is the source paper's Algorithm 1 — the default engine.
//
// Mapping to the paper's listing (line numbers from Algorithm 1):
//
//	Require (parameters k, ε; sample access)  →  the run arguments
//	1  b = 20k·log k/ε, ε0 = 13ε/30           →  cfg.PartB, cfg.TestEpsFactor·ε
//	2-3  Learning: ApproxPart(b) → I           →  learn.ApproxPart (Prop 3.4)
//	4  Learner(K, ε/60, I) → D̂                →  learn.Learn (Lemma 3.5)
//	6-7  Sieving: discard O(k log k) intervals →  stage 3a (heavy cutoff) +
//	     per §3.2.1                               stage 3b (halving rounds) on
//	                                              chisq.ZPerInterval medians
//	9-10 Checking: ∃D* ∈ H_k close to D̂ on G  →  histdp.ProjectTV (the
//	     by dynamic programming                   [CDGR16, Lemma 4.11] DP)
//	12-13 Testing: Tester(n, ε0, D̂) on G       →  chisq.Test (Theorem 3.2)
//	14 accept                                   →  the final return
//
// Each stage draws fresh samples; Trace records the per-stage accounting.
type adkEngine struct{}

// Name implements Engine.
func (adkEngine) Name() string { return "adk" }

// sieveBatch is the sieve's replicate body (oracle.Replicator): one
// Poissonized batch of mean m, scored per interval of p on the sieved
// domain g into med[t]. It lives on the Arena and goes to the driver as
// a pointer, so a sieve round allocates nothing for it.
type sieveBatch struct {
	m, tau  float64
	cs      oracle.CountStrategy
	dhat    *dist.PiecewiseConstant
	p       *intervals.Partition
	g       *intervals.Domain
	med     [][]float64
	tallies []obTally // one slot per goroutine; nil without an observer
}

// Replicate implements oracle.Replicator.
func (b *sieveBatch) Replicate(slot, t int, src []oracle.Stream) {
	counts := oracle.DrawCountsWith(src[0].O, src[0].R, b.m, b.cs)
	if b.tallies != nil {
		b.tallies[slot].batch(counts, b.cs)
	}
	b.med[t] = chisq.ZPerIntervalInto(b.med[t][:0], counts, b.dhat, b.p, b.g, b.m, b.tau)
	counts.Release()
}

// ExpectedSamples implements Engine: the Theorem 3.1 accounting —
// partition + learn + sieve reps×(rounds+1) batches + final test.
func (adkEngine) ExpectedSamples(n, k int, eps float64, cfg Config) int64 {
	b := cfg.PartB(k, eps)
	partM := learn.ApproxPartSamples(b, cfg.PartSampleC)
	// ApproxPart yields K <= ~7b/3 + #heavy + 2 intervals.
	K := int(partIntervals(b))
	learnM := learn.LearnSamples(K, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC)
	alpha := cfg.Alpha(eps)
	mSieve := cfg.SieveMFactor * math.Sqrt(float64(n)) / (alpha * alpha)
	sieveM := mSieve * float64(cfg.sieveReps(k)) * float64(cfg.SieveRounds(k)+1)
	testM := cfg.Chi.SampleMean(n, cfg.TestEpsFactor*eps)
	return learn.TotalSamples(int64(partM), int64(learnM), learn.SampleCount(sieveM), learn.SampleCount(testM))
}

// run implements Engine.
func (adkEngine) run(ctx context.Context, a *Arena, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	n := o.N()
	tr := Trace{N: n}
	mark := o.Samples()
	took := func() int64 {
		d := o.Samples() - mark
		mark = o.Samples()
		return d
	}

	// Stage 1: partition (Proposition 3.4).
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

	// Stage 2: learn (Lemma 3.5).
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageLearn})
	dhat, _, err := learn.LearnContext(ctx, o, r, p, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC)
	if err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	tr.LearnSamples = took()
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageLearn, Samples: tr.LearnSamples})

	// Stage 3: sieve (§3.2.1).
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageSieve})
	alpha := cfg.Alpha(eps)
	mSieve := cfg.SieveMFactor * math.Sqrt(float64(n)) / (alpha * alpha)
	tau := cfg.Chi.TruncFactor * eps / float64(n)
	reps := cfg.sieveReps(k)

	a.grow(K, reps)
	keep := a.keep
	for j := range keep {
		keep[j] = true
	}
	// The sieved sub-domain is a pure function of the keep mask; rebuilding
	// it costs O(K) and an allocation, so it is cached until a removal
	// invalidates it (most sieve rounds remove nothing).
	domainStale := true
	var cachedDomain *intervals.Domain
	domain := func() *intervals.Domain {
		if domainStale {
			cachedDomain = intervals.FromPartitionSubset(p, keep)
			domainStale = false
		}
		return cachedDomain
	}

	// The reps replicates per sieve decision are independent Poissonized
	// batches (the median-amplification trick of §3.2.1), run by
	// oracle.Fanout: bit-identical at every Workers value. The count-
	// synthesis strategy is resolved once against the parent oracle:
	// forks preserve the CountDrawer capability (a Sampler forks to a
	// Sampler), so the resolution holds for every replicate clone, and the
	// per-batch observability tallies can attribute without re-asserting.
	workers := cfg.workers()
	countStrat := oracle.EffectiveStrategy(o, cfg.CountStrategy)
	a.batch = sieveBatch{m: mSieve, tau: tau, cs: countStrat, dhat: dhat, p: p, med: a.med}
	if a.ob != nil {
		a.batch.tallies = a.obTallies
	}

	// computeZs draws fresh Poissonized samples reps times and returns the
	// per-interval medians (in a.zs, overwritten per call). The replicate
	// statistic rows, the median column, and the Poissonized count buffers
	// (via the oracle pool) are all recycled round over round.
	computeZs := func() ([]float64, error) {
		a.batch.g = domain()
		clear(a.batch.tallies)
		var err error
		a.obWorkers, err = a.fan.Run(ctx, r, reps, workers, &a.batch, o)
		if err != nil {
			return nil, err
		}
		med, zs, col := a.med, a.zs, a.col
		for j := 0; j < K; j++ {
			for t := 0; t < reps; t++ {
				col[t] = med[t][j]
			}
			zs[j] = stats.MedianInPlace(col)
		}
		return zs, nil
	}

	removable := func(j int) bool { return keep[j] && p.Interval(j).Len() > 1 }
	remove := func(j int) {
		keep[j] = false
		domainStale = true
		tr.RemovedMass += dhat.IntervalMass(p.Interval(j))
	}
	reject := func(stage, reason string) (*Result, error) {
		tr.RejectStage = stage
		tr.RejectReason = reason
		if a.ob != nil {
			a.emit(obs.Event{Kind: obs.KindRunEnd, Samples: tr.TotalSamples(), RejectStage: stage})
		}
		return &Result{Accept: false, Trace: tr, Learned: dhat, Domain: domain()}, nil
	}
	// sieveExit closes the sieve stage's sample accounting and event.
	sieveExit := func() {
		tr.SieveSamples = took()
		a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageSieve, Samples: tr.SieveSamples})
	}

	// Stage 3a: discard the heavy offenders. EVERY interval above the
	// cutoff counts toward the > k rejection budget — a far distribution
	// may concentrate its χ² excess on singleton intervals, which the
	// sieve has no right to remove but must still hold against the
	// k-interval allowance — while only removable (non-singleton)
	// intervals are actually discarded.
	var roundSamp int64
	var roundPool oracle.PoolStats
	if a.ob != nil {
		roundSamp, roundPool = o.Samples(), oracle.PoolStatsSnapshot()
	}
	zs, err := computeZs()
	if err != nil {
		sieveExit()
		return a.fail(tr.TotalSamples(), err)
	}
	heavyThr := cfg.SieveHeavyFactor * mSieve * alpha * alpha
	heavyTotal := 0
	heavyIdx := a.order[:0] // scratch; consumed before the 3b rounds reuse it
	for j := 0; j < K; j++ {
		if !keep[j] || zs[j] <= heavyThr {
			continue
		}
		heavyTotal++
		if removable(j) {
			heavyIdx = append(heavyIdx, j)
		}
	}
	tr.HeavySingletons = heavyTotal - len(heavyIdx)
	if heavyTotal > k {
		a.emitRound(o, 0, 0, reps, roundSamp, roundPool)
		sieveExit()
		return reject(StageSieveHeavy, fmt.Sprintf("%d intervals above the heavy cutoff (%d unremovable singletons), k = %d", heavyTotal, tr.HeavySingletons, k))
	}
	for _, j := range heavyIdx {
		remove(j)
	}
	tr.RemovedHeavy = len(heavyIdx)
	a.emitRound(o, 0, len(heavyIdx), reps, roundSamp, roundPool)
	if tr.RemovedMass > cfg.DiscardMassCap*eps {
		sieveExit()
		return reject(StageDiscardMass, fmt.Sprintf("discarded mass %.4f exceeds cap %.4f", tr.RemovedMass, cfg.DiscardMassCap*eps))
	}

	// Stage 3b: iterative halving rounds.
	acceptThr := cfg.SieveAcceptFactor * mSieve * alpha * alpha
	residualThr := cfg.SieveResidualFactor * mSieve * alpha * alpha
	rounds := cfg.SieveRounds(k)
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			sieveExit()
			return a.fail(tr.TotalSamples(), err)
		}
		tr.SieveRoundsRun = round + 1
		if a.ob != nil {
			roundSamp, roundPool = o.Samples(), oracle.PoolStatsSnapshot()
		}
		zs, err = computeZs()
		if err != nil {
			sieveExit()
			return a.fail(tr.TotalSamples(), err)
		}
		removedBefore := tr.RemovedRounds
		total := 0.0
		for j := 0; j < K; j++ {
			if keep[j] {
				total += zs[j]
			}
		}
		if total < acceptThr {
			a.emitRound(o, round+1, 0, reps, roundSamp, roundPool)
			break
		}
		// Remove the largest Z_j (non-singletons only) until the survivors
		// sum below the residual target.
		order := a.order[:0]
		for j := 0; j < K; j++ {
			if removable(j) {
				order = append(order, j)
			}
		}
		sort.Slice(order, func(a, b int) bool { return zs[order[a]] > zs[order[b]] })
		for _, j := range order {
			if total <= residualThr {
				break
			}
			total -= zs[j]
			remove(j)
			tr.RemovedRounds++
			if tr.RemovedMass > cfg.DiscardMassCap*eps {
				a.emitRound(o, round+1, tr.RemovedRounds-removedBefore, reps, roundSamp, roundPool)
				sieveExit()
				return reject(StageDiscardMass, fmt.Sprintf("discarded mass %.4f exceeds cap %.4f", tr.RemovedMass, cfg.DiscardMassCap*eps))
			}
		}
		a.emitRound(o, round+1, tr.RemovedRounds-removedBefore, reps, roundSamp, roundPool)
		if total > residualThr {
			sieveExit()
			return reject(StageSieveStuck, "residual statistic cannot be brought below target by removals")
		}
	}
	sieveExit()
	g := domain()

	// Stage 4: check that some k-histogram is close to D̂ on G (Step 10 of
	// Algorithm 1, via the DP of histdp).
	if err := ctx.Err(); err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	if !cfg.SkipCheck {
		reason, err := a.check(ctx, &tr, dhat, k, g, eps/cfg.CheckTolDivisor, "G")
		if err != nil {
			return a.fail(tr.TotalSamples(), err)
		}
		if reason != "" {
			return reject(StageCheck, reason)
		}
	}

	// Stage 5: final χ²-vs-TV test of D against D̂ on G with fresh samples.
	if err := ctx.Err(); err != nil {
		return a.fail(tr.TotalSamples(), err)
	}
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageTest})
	res := chisq.TestWith(o, r, dhat, g, cfg.TestEpsFactor*eps, cfg.Chi, countStrat)
	tr.TestSamples = took()
	tr.FinalZ = res.Z
	tr.FinalThresh = res.Threshold
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageTest, Samples: tr.TestSamples})
	if !res.Accept {
		return reject(StageTest, fmt.Sprintf("final statistic %.1f above threshold %.1f", res.Z, res.Threshold))
	}
	if a.ob != nil {
		a.emit(obs.Event{Kind: obs.KindRunEnd, Accept: true, Samples: tr.TotalSamples()})
	}
	return &Result{Accept: true, Trace: tr, Learned: dhat, Domain: g}, nil
}
