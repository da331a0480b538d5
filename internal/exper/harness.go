package exper

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/baselines"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ErrNoPassingScale reports that no budget up to the search limit lets a
// tester distinguish a workload — either the workload is impossible for
// it, or (as for the no-sieve baseline on histograms with heavy
// breakpoints) the tester fails completeness structurally, independent of
// budget.
var ErrNoPassingScale = errors.New("exper: no scale distinguishes the workload")

// Instance draws a fresh workload distribution (possibly random per
// trial).
type Instance func(r *rng.RNG) dist.Distribution

// Fixed wraps a single distribution as an Instance.
func Fixed(d dist.Distribution) Instance {
	return func(*rng.RNG) dist.Distribution { return d }
}

// RateResult is an accept-rate estimate with a Wilson 95% interval and the
// average per-trial sample consumption.
type RateResult struct {
	Rate, Lo, Hi float64
	Trials       int
	AvgSamples   float64
}

// String formats the estimate compactly for table cells.
func (rr RateResult) String() string {
	return fmt.Sprintf("%.2f [%.2f,%.2f]", rr.Rate, rr.Lo, rr.Hi)
}

// AcceptRate runs tester on fresh samplers of inst trials times. Trials
// run in parallel across GOMAXPROCS workers; determinism is preserved by
// deriving every trial's randomness (instance, sampler, and tester
// streams) from sequential Splits of r BEFORE the parallel phase. Tester
// values must be stateless across Run calls (all implementations in
// baselines are). A cancelled ctx stops claiming new trials, aborts
// in-flight ones at their testers' next context check, and returns
// ctx.Err(); nil means context.Background().
func AcceptRate(ctx context.Context, tester baselines.Tester, inst Instance, k int, eps float64, trials int, r *rng.RNG) (RateResult, error) {
	type trial struct {
		d         dist.Distribution
		sampleRNG *rng.RNG
		testerRNG *rng.RNG
	}
	jobs := make([]trial, trials)
	for i := range jobs {
		jobs[i] = trial{d: inst(r), sampleRNG: r.Split(), testerRNG: r.Split()}
	}
	return trialRate(ctx, trials, func(ctx context.Context, i int) (bool, int64, error) {
		dec, err := tester.Run(ctx, samplerFor(jobs[i].d, jobs[i].sampleRNG), jobs[i].testerRNG, k, eps)
		return dec.Accept, dec.Samples, err
	})
}

// trialRate runs trial(ctx, i) for every i in [0, trials) across
// GOMAXPROCS workers and folds the outcomes into a RateResult. Workers
// claim trials from a shared counter; callers pre-split every trial's
// randomness, so the claim order cannot change the estimate. A cancelled
// ctx stops claiming new trials and returns ctx.Err(); otherwise the
// first failed trial in index order returns its error. A nil ctx means
// context.Background().
func trialRate(ctx context.Context, trials int, trial func(ctx context.Context, i int) (accept bool, samples int64, err error)) (RateResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	accepts := make([]bool, trials)
	samples := make([]int64, trials)
	errs := make([]error, trials)
	var wg sync.WaitGroup
	var next atomic.Int64
	for range min(runtime.GOMAXPROCS(0), trials) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= trials || ctx.Err() != nil {
					return
				}
				accepts[i], samples[i], errs[i] = trial(ctx, i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return RateResult{}, err
	}

	acceptCount := 0
	var totalSamples int64
	for i := 0; i < trials; i++ {
		if errs[i] != nil {
			return RateResult{}, errs[i]
		}
		if accepts[i] {
			acceptCount++
		}
		totalSamples += samples[i]
	}
	lo, hi := stats.Wilson(acceptCount, trials, 1.96)
	return RateResult{
		Rate:       float64(acceptCount) / float64(trials),
		Lo:         lo,
		Hi:         hi,
		Trials:     trials,
		AvgSamples: float64(totalSamples) / float64(trials),
	}, nil
}

// Workload is a yes/no instance pair for sample-complexity searches: Yes
// draws k-histograms, No draws distributions ε-far from H_k.
type Workload struct {
	Yes, No Instance
	K       int
	Eps     float64
}

// ScaleSearch is the result of a MinimalScale search.
type ScaleSearch struct {
	// Scale is the smallest passing budget multiplier.
	Scale float64
	// Samples is the average per-trial sample consumption at that scale
	// (averaged over the yes and no sides).
	Samples float64
	// YesRate and NoRate are the rates observed at the final scale.
	YesRate, NoRate float64
	// Evaluations counts how many (scale, side) rate estimates were run.
	Evaluations int
}

// MinimalScale finds the smallest budget multiplier s (on a geometric
// grid from minScale upward, refined by one half-step) at which the
// tester distinguishes the workload: accept rate >= 0.65 on Yes and
// <= 0.35 on No. The tester's empirical sample complexity on the workload
// is the Samples field of the result.
func MinimalScale(ctx context.Context, tester baselines.Tester, w Workload, trials int, minScale float64, r *rng.RNG) (*ScaleSearch, error) {
	return scaleSearch(tester.Name(), minScale, func(s float64, yesSide bool) (RateResult, error) {
		inst := w.No
		if yesSide {
			inst = w.Yes
		}
		return AcceptRate(ctx, tester.WithScale(s), inst, w.K, w.Eps, trials, r)
	})
}

// scaleSearch is the search behind MinimalScale and its two-sample twin
// minimalPairScale: rate(s, yesSide) is the accept rate of the tester
// named name at budget multiplier s on the Yes or the No side.
func scaleSearch(name string, minScale float64, rate func(s float64, yesSide bool) (RateResult, error)) (*ScaleSearch, error) {
	if minScale <= 0 {
		minScale = 1.0 / 256
	}
	const maxScale = 64.0
	eval := func(s float64) (yes, no RateResult, pass bool, err error) {
		yes, err = rate(s, true)
		if err != nil || yes.Rate < 0.65 {
			return // completeness already failed; skip the no side
		}
		no, err = rate(s, false)
		if err != nil {
			return
		}
		pass = no.Rate <= 0.35
		return
	}
	evals := 0
	lowYesStreak := 0
	for s := minScale; s <= maxScale; s *= 2 {
		yes, no, pass, err := eval(s)
		evals += 2
		if err != nil {
			return nil, err
		}
		if !pass {
			// A tester whose accept rate on legal instances stays LOW as
			// the budget grows past nominal is failing completeness
			// structurally — more samples only sharpen the wrong verdict.
			if s >= 1 && yes.Rate <= 0.25 {
				lowYesStreak++
				if lowYesStreak >= 2 {
					return nil, fmt.Errorf("%w (completeness fails at scale >= 1, tester %s)", ErrNoPassingScale, name)
				}
			}
			continue
		}
		best := &ScaleSearch{
			Scale:   s,
			Samples: (yes.AvgSamples + no.AvgSamples) / 2,
			YesRate: yes.Rate, NoRate: no.Rate,
		}
		// One geometric refinement step: try s/√2.
		if s > minScale {
			mid := s / math.Sqrt2
			my, mn, mpass, err := eval(mid)
			evals += 2
			if err != nil {
				return nil, err
			}
			if mpass {
				best = &ScaleSearch{
					Scale:   mid,
					Samples: (my.AvgSamples + mn.AvgSamples) / 2,
					YesRate: my.Rate, NoRate: mn.Rate,
				}
			}
		}
		best.Evaluations = evals
		return best, nil
	}
	return nil, fmt.Errorf("%w (limit %v, tester %s)", ErrNoPassingScale, maxScale, name)
}

// fmtCount renders a sample count human-readably.
func fmtCount(v float64) string {
	switch {
	case v >= 1e15:
		return fmt.Sprintf("%.2fP", v/1e15)
	case v >= 1e12:
		return fmt.Sprintf("%.2fT", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
