package exper

import (
	"context"
	"fmt"
	"math"

	"repro/internal/closeness"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// --- E15: two-sample closeness — DKN'17 reduction vs naive full-domain CDVV14 ---

// pairInstance draws one two-sample workload: a pair of distributions
// over the same domain (equal for Yes pairs, ε-far for No pairs).
type pairInstance func(r *rng.RNG) (dist.Distribution, dist.Distribution)

// equalPair yields twin k-histograms: both sides sample the SAME random
// k-histogram (through independent sampler streams).
func equalPair(n, k int) pairInstance {
	return func(r *rng.RNG) (dist.Distribution, dist.Distribution) {
		d := gen.KHistogram(r, n, k)
		return d, d
	}
}

// farPair yields a random k-histogram against a block-comb perturbation
// of it at verified TV distance >= eps (gen.BlockComb reports the
// achieved distance; the perturbation is grown until it clears eps). The
// occasional draw so skewed that no comb reaches eps — BlockComb shifts
// are capped by per-block mass — is redrawn.
func farPair(n, k int, eps float64) pairInstance {
	return func(r *rng.RNG) (dist.Distribution, dist.Distribution) {
		for attempt := 0; attempt < 64; attempt++ {
			d := gen.KHistogram(r, n, k)
			for delta := eps; ; delta *= 1.25 {
				if delta > 1 {
					delta = 1
				}
				far, got := gen.BlockComb(d, 64, delta)
				if got >= eps {
					return d, far
				}
				if delta == 1 {
					break // this base can't support the distance; redraw
				}
			}
		}
		panic(fmt.Sprintf("farPair: no block comb reaches distance %v at n=%d k=%d", eps, n, k))
	}
}

// twoSampleMethod is one closeness-decision procedure under a budget
// multiplier: fresh oracles in, verdict and realized draw count out.
type twoSampleMethod struct {
	name string
	run  func(ctx context.Context, px, py oracle.Oracle, r *rng.RNG, k int, eps, scale float64) (accept bool, samples int64, err error)
}

// dknMethod wraps the DKN'17 reduction tester (internal/closeness
// TwoSample) with the RunConfig's count strategy attached.
func (rc RunConfig) dknMethod() twoSampleMethod {
	cs := rc.CountStrategy
	return twoSampleMethod{
		name: "dkn17",
		run: func(ctx context.Context, px, py oracle.Oracle, r *rng.RNG, k int, eps, scale float64) (bool, int64, error) {
			cfg := closeness.DefaultConfig()
			cfg.CountStrategy = cs
			if scale != 1 {
				cfg = cfg.Scale(scale)
			}
			res, err := closeness.TestTwoSample(ctx, px, py, r, k, eps, cfg)
			if err != nil {
				return false, 0, err
			}
			return res.Accept, res.SamplesX + res.SamplesY, nil
		},
	}
}

// naiveMethod is the full-domain CDVV14 tester: no reduction, the χ²
// statistic straight on [n], majority-amplified with the same replicate
// count as the DKN default so the comparison isolates the reduction.
func naiveMethod() twoSampleMethod {
	return twoSampleMethod{
		name: "naive-cdvv14",
		run: func(ctx context.Context, px, py oracle.Oracle, r *rng.RNG, _ int, eps, scale float64) (bool, int64, error) {
			params := closeness.DefaultParams()
			params.MFactor *= scale
			reps := closeness.DefaultConfig().Reps
			accepts := 0
			var samples int64
			for i := 0; i < reps; i++ {
				if err := ctx.Err(); err != nil {
					return false, samples, err
				}
				res := closeness.Test(px, py, r, eps, params)
				if res.Accept {
					accepts++
				}
				samples += int64(res.DrawnX + res.DrawnY)
			}
			return 2*accepts > reps, samples, nil
		},
	}
}

// pairRate estimates a method's accept rate on a two-sample workload:
// trials fan out across GOMAXPROCS workers with every trial's randomness
// (instance, two sampler streams, tester stream) pre-split from r, so the
// estimate is deterministic per seed at any core count. It shares
// trialRate with AcceptRate.
func pairRate(ctx context.Context, m twoSampleMethod, inst pairInstance, k int, eps float64, trials int, scale float64, r *rng.RNG) (RateResult, error) {
	type trial struct {
		dx, dy dist.Distribution
		rx, ry *rng.RNG
		tester *rng.RNG
	}
	jobs := make([]trial, trials)
	for i := range jobs {
		dx, dy := inst(r)
		jobs[i] = trial{dx: dx, dy: dy, rx: r.Split(), ry: r.Split(), tester: r.Split()}
	}
	return trialRate(ctx, trials, func(ctx context.Context, i int) (bool, int64, error) {
		px := samplerFor(jobs[i].dx, jobs[i].rx)
		py := samplerFor(jobs[i].dy, jobs[i].ry)
		return m.run(ctx, px, py, jobs[i].tester, k, eps, scale)
	})
}

// minimalPairScale is MinimalScale for two-sample methods: the smallest
// budget multiplier on the geometric grid (one √2 refinement) at which
// the method distinguishes equal pairs from ε-far pairs.
func minimalPairScale(ctx context.Context, m twoSampleMethod, yes, no pairInstance, k int, eps float64, trials int, minScale float64, r *rng.RNG) (*ScaleSearch, error) {
	const maxScale = 64.0
	eval := func(s float64) (y, n RateResult, pass bool, err error) {
		y, err = pairRate(ctx, m, yes, k, eps, trials, s, r)
		if err != nil || y.Rate < 0.65 {
			return
		}
		n, err = pairRate(ctx, m, no, k, eps, trials, s, r)
		if err != nil {
			return
		}
		pass = n.Rate <= 0.35
		return
	}
	evals := 0
	for s := minScale; s <= maxScale; s *= 2 {
		y, n, pass, err := eval(s)
		evals += 2
		if err != nil {
			return nil, err
		}
		if !pass {
			continue
		}
		best := &ScaleSearch{Scale: s, Samples: (y.AvgSamples + n.AvgSamples) / 2, YesRate: y.Rate, NoRate: n.Rate}
		if s > minScale {
			mid := s / math.Sqrt2
			my, mn, mpass, err := eval(mid)
			evals += 2
			if err != nil {
				return nil, err
			}
			if mpass {
				best = &ScaleSearch{Scale: mid, Samples: (my.AvgSamples + mn.AvgSamples) / 2, YesRate: my.Rate, NoRate: mn.Rate}
			}
		}
		best.Evaluations = evals
		return best, nil
	}
	return nil, fmt.Errorf("%w (limit %v, method %s)", ErrNoPassingScale, maxScale, m.name)
}

func e15() Experiment {
	return Experiment{
		ID:    "E15",
		Title: "Two-sample closeness: the DKN'17 histogram reduction vs naive full-domain CDVV14",
		Claim: "DKN'17 (arXiv 1703.01913): reducing both samples to the common refinement of their learned flattenings makes two-sample closeness Θ(poly(k/ε))-sample — independent of n — while the naive CDVV14 tester pays Ω(n^{2/3}); the reduction's fixed partition overhead means naive wins at small n, with the crossover in n growing with k",
		Run: func(rc RunConfig) ([]*Table, error) {
			r := rc.rng()
			ctx := rc.ctx()
			methods := []twoSampleMethod{rc.dknMethod(), naiveMethod()}
			trials := rc.pick(8, 16)

			// Table 1: operating characteristics at nominal budget — equal
			// pairs at δ=0, block-comb pairs of growing distance δ. Both
			// methods must hug accept at δ=0 and reject once δ clears ε.
			n, k, eps := 2048, 4, 0.4
			oc := &Table{
				Title:  fmt.Sprintf("E15a: accept rate vs pair distance δ (n=%d, k=%d, ε=%.1f, nominal budget)", n, k, eps),
				Header: []string{"δ", "dkn17 accept", "naive accept", "dkn17 samples", "naive samples"},
			}
			for _, delta := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
				inst := equalPair(n, k)
				if delta > 0 {
					d := delta
					inst = func(r *rng.RNG) (dist.Distribution, dist.Distribution) {
						p := gen.KHistogram(r, n, k)
						q, _ := gen.BlockComb(p, 64, d)
						return p, q
					}
				}
				row := []string{fmt.Sprintf("%.1f", delta)}
				var samples []string
				for _, m := range methods {
					rate, err := pairRate(ctx, m, inst, k, eps, trials, 1, r)
					if err != nil {
						return nil, fmt.Errorf("E15a %s δ=%.1f: %w", m.name, delta, err)
					}
					row = append(row, rate.String())
					samples = append(samples, fmtCount(rate.AvgSamples))
				}
				oc.AddRow(append(row, samples...)...)
				rc.progress("E15a: δ=%.1f done", delta)
			}
			oc.Note("completeness head-to-head at δ=0; soundness once δ clears ε=%.1f — same workload shape as the one-sample E6/E14 pins", eps)
			oc.Note("δ is the block-comb construction parameter; the achieved TV distance is within a few percent of it on these instances")

			// Table 2: samples-to-decision vs n at fixed k — the crossover
			// table. The DKN column is flat in n (the reduced domain depends
			// only on k and ε) while naive grows as n^{2/3}; the ratio
			// crosses 1 where naive's full-domain budget overtakes the
			// reduction's fixed partition overhead.
			ns := []int{1 << 10, 1 << 12, 1 << 14}
			if !rc.Quick {
				ns = append(ns, 1<<16)
			}
			const minScale = 1.0 / 256
			vsN := &Table{
				Title:  fmt.Sprintf("E15b: minimal samples-to-decision m* vs n (k=%d, ε=%.1f)", k, eps),
				Header: []string{"n", "dkn17 m* (scale*)", "naive m* (scale*)", "naive/dkn17"},
			}
			var prevRatio float64
			crossover := "none observed"
			for _, nn := range ns {
				yes, no := equalPair(nn, k), farPair(nn, k, eps)
				var ms []float64
				row := []string{fmt.Sprintf("%d", nn)}
				for _, m := range methods {
					search, err := minimalPairScale(ctx, m, yes, no, k, eps, trials, minScale, r)
					if err != nil {
						return nil, fmt.Errorf("E15b %s n=%d: %w", m.name, nn, err)
					}
					ms = append(ms, search.Samples)
					row = append(row, fmtScaled(search, minScale))
				}
				ratio := ms[1] / ms[0]
				vsN.AddRow(append(row, fmt.Sprintf("%.2f×", ratio))...)
				if prevRatio != 0 && prevRatio < 1 && ratio >= 1 {
					crossover = fmt.Sprintf("between n=%d and n=%d", nn/4, nn)
				}
				prevRatio = ratio
				rc.progress("E15b: n=%d done (naive/dkn %.2f×)", nn, ratio)
			}
			vsN.Note("ratio > 1 means the DKN'17 reduction needs fewer samples; crossover %s", crossover)
			vsN.Note("a scale* of ≤%.4f hit the search grid's floor: that m* is an upper bound", minScale)

			// Table 3: samples-to-decision vs k at fixed n. The reduction's
			// partition overhead and reduced-domain budget both grow with k
			// (b ∝ k·log k/ε) while naive ignores k entirely, so the ratio
			// shrinks as k grows — the crossover moves to larger n.
			nFixed := 1 << 14
			ks := []int{2, 4}
			if !rc.Quick {
				ks = append(ks, 8)
			}
			vsK := &Table{
				Title:  fmt.Sprintf("E15c: minimal samples-to-decision m* vs k (n=%d, ε=%.1f)", nFixed, eps),
				Header: []string{"k", "dkn17 m* (scale*)", "naive m* (scale*)", "naive/dkn17"},
			}
			for _, kk := range ks {
				yes, no := equalPair(nFixed, kk), farPair(nFixed, kk, eps)
				var ms []float64
				row := []string{fmt.Sprintf("%d", kk)}
				for _, m := range methods {
					search, err := minimalPairScale(ctx, m, yes, no, kk, eps, trials, minScale, r)
					if err != nil {
						return nil, fmt.Errorf("E15c %s k=%d: %w", m.name, kk, err)
					}
					ms = append(ms, search.Samples)
					row = append(row, fmtScaled(search, minScale))
				}
				vsK.AddRow(append(row, fmt.Sprintf("%.2f×", ms[1]/ms[0]))...)
				rc.progress("E15c: k=%d done (naive/dkn %.2f×)", kk, ms[1]/ms[0])
			}
			vsK.Note("the naive column is flat in k (full-domain CDVV14 never looks at the promise); the dkn17 column grows with k through the reduction parameter b ∝ k·log k/ε")
			return []*Table{oc, vsN, vsK}, nil
		},
	}
}
