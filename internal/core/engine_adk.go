package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/chisq"
	"repro/internal/histdp"
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

// ExpectedSamples implements Engine: the Theorem 3.1 accounting —
// partition + learn + sieve reps×(rounds+1) batches + final test.
func (adkEngine) ExpectedSamples(n, k int, eps float64, cfg Config) int64 {
	b := cfg.PartB(k, eps)
	partM := learn.ApproxPartSamples(b, cfg.PartSampleC)
	// ApproxPart yields K <= ~7b/3 + #heavy + 2 intervals.
	K := int(learn.TotalSamples(learn.SampleCount(7*b/3), 2))
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
	// batches (the median-amplification trick of §3.2.1), so they fan out
	// across workers when the oracle supports cloning. Replay and
	// Source-backed oracles cannot be cloned (their streams are inherently
	// serial) and keep the exact legacy draw order. Determinism contract:
	// each replicate's randomness is a sequential Split of r taken BEFORE
	// any goroutine launches, so the decision and Trace are bit-identical
	// for every Workers value.
	workers := cfg.workers()
	var forker oracle.Forker
	if f, ok := o.(oracle.Forker); ok && reps > 1 && f.CanFork() {
		forker = f
	}

	// Resolve the count-synthesis strategy once against the parent oracle:
	// forks preserve the CountDrawer capability (a Sampler forks to a
	// Sampler), so the resolution holds for every replicate clone, and the
	// per-batch observability tallies can attribute without re-asserting.
	countStrat := oracle.EffectiveStrategy(o, cfg.CountStrategy)

	// computeZs draws fresh Poissonized samples reps times and returns the
	// per-interval medians (in a.zs, overwritten per call). The replicate
	// statistic rows, the median column, and the Poissonized count buffers
	// (via the oracle pool) are all recycled round over round. The context
	// is checked before every batch draw; batches already in flight finish
	// and release their pooled buffers before the cancellation error
	// surfaces, and clone draws are always folded back into o's counter.
	computeZs := func() ([]float64, error) {
		g := domain()
		med := a.med
		if a.ob != nil {
			a.obDense, a.obSparse = 0, 0
			a.obExact, a.obClosedForm = 0, 0
		}
		a.obWorkers = 1
		if forker != nil {
			jobs := a.jobs
			for t := range jobs {
				// Re-split into the scratch RNG structs: stream-identical to
				// a fresh Split, without the per-round allocations.
				rt := &a.reprng[t]
				r.SplitInto(rt)
				jobs[t] = replicate{o: forker.Fork(rt), r: rt}
			}
			// tally is nil on the serial path (obBatch bumps the Arena
			// fields directly) and a worker-private padded slot on the
			// parallel path.
			run := func(t int, tally *obTally) {
				counts := oracle.DrawCountsWith(jobs[t].o, jobs[t].r, mSieve, countStrat)
				if tally != nil {
					tally.batch(counts, countStrat)
				} else if a.ob != nil {
					a.obBatch(counts, countStrat)
				}
				med[t] = chisq.ZPerIntervalInto(med[t][:0], counts, dhat, p, g, mSieve, tau)
				counts.Release()
			}
			var runErr error
			if w := min(workers, reps); w <= 1 {
				for t := range jobs {
					if runErr = ctx.Err(); runErr != nil {
						break
					}
					run(t, nil)
				}
			} else {
				// Deterministic chunked assignment: worker i owns the
				// contiguous replicate range [i·chunk, (i+1)·chunk). The old
				// shared atomic claim counter cost one contended CAS per
				// replicate and bounced its cache line across every worker;
				// chunking removes the shared word entirely. Claim order was
				// never what made the sieve deterministic — each replicate's
				// RNG stream is split from r sequentially before any
				// goroutine launches — so assignment shape is free to choose
				// for locality: adjacent replicates (adjacent med rows) stay
				// on the same worker.
				//
				// With reps not a multiple of w the trailing chunk(s) are
				// empty (e.g. reps=5, w=4 → chunk=2 covers everything in 3
				// chunks), so nw — the goroutines actually launched — can be
				// smaller than w; it is what the observer round event reports.
				chunk := (reps + w - 1) / w
				nw := (reps + chunk - 1) / chunk
				a.obWorkers = nw
				var tallies []obTally
				if a.ob != nil {
					if cap(a.obTallies) < nw {
						a.obTallies = make([]obTally, nw)
					}
					tallies = a.obTallies[:nw]
					for i := range tallies {
						tallies[i] = obTally{}
					}
				}
				var wg sync.WaitGroup
				for i := 0; i < nw; i++ {
					lo := i * chunk
					hi := min(lo+chunk, reps)
					var tally *obTally
					if tallies != nil {
						tally = &tallies[i]
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for t := lo; t < hi; t++ {
							if ctx.Err() != nil {
								return
							}
							run(t, tally)
						}
					}()
				}
				wg.Wait()
				runErr = ctx.Err()
				for i := range tallies {
					a.obDense += tallies[i].dense
					a.obSparse += tallies[i].sparse
					a.obExact += tallies[i].exact
					a.obClosedForm += tallies[i].closedForm
				}
			}
			// Fold the per-replicate draw counters back into the parent so
			// Trace accounting stays exact — on the cancellation path too.
			var drawn int64
			for t := range jobs {
				drawn += jobs[t].o.Samples()
			}
			forker.Absorb(drawn)
			if runErr != nil {
				return nil, runErr
			}
		} else {
			for t := 0; t < reps; t++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				counts := oracle.DrawCountsWith(o, r, mSieve, countStrat)
				if a.ob != nil {
					a.obBatch(counts, countStrat)
				}
				med[t] = chisq.ZPerIntervalInto(med[t][:0], counts, dhat, p, g, mSieve, tau)
				counts.Release()
			}
		}
		zs := a.zs
		col := a.col
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
		a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageCheck})
		proj, err := histdp.ProjectTV(dhat, k, g)
		if err != nil {
			return a.fail(tr.TotalSamples(), fmt.Errorf("core: check DP failed: %w", err))
		}
		tr.CheckRelaxed = proj.Relaxed
		a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageCheck})
		tol := eps / cfg.CheckTolDivisor
		if proj.Relaxed > tol {
			return reject(StageCheck, fmt.Sprintf("distance of D̂ to H_k on G is %.5f > tolerance %.5f", proj.Relaxed, tol))
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
