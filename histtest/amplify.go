package histtest

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// TestSourceWithConfidence runs the tester enough independent times (with
// fresh samples each run) and takes the majority verdict, so that the
// resulting decision errs with probability at most delta instead of the
// base 1/3 — the standard amplification the paper invokes in §3.2.1.
// delta must lie in (0, 1/2); the sample cost multiplies by
// Θ(log(1/delta)).
func TestSourceWithConfidence(src Source, n, k int, eps, delta float64, opt Options) (Verdict, error) {
	if delta <= 0 || delta >= 0.5 {
		return Verdict{}, fmt.Errorf("histtest: confidence delta %v must be in (0, 0.5)", delta)
	}
	reps := stats.RepsForConfidence(delta)
	accepts := 0
	var total int64
	var lastReject Verdict
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	for i := 0; i < reps; i++ {
		o := opt
		o.Seed = seed
		seed++
		v, err := TestSource(src, n, k, eps, o)
		if err != nil {
			return Verdict{}, err
		}
		total += v.SamplesUsed
		if v.IsKHistogram {
			accepts++
		} else {
			lastReject = v
		}
	}
	out := Verdict{IsKHistogram: 2*accepts > reps, SamplesUsed: total}
	if !out.IsKHistogram {
		out.Stage = lastReject.Stage
		out.Detail = fmt.Sprintf("majority of %d runs rejected (last: %s)", reps, lastReject.Detail)
	}
	return out, nil
}

// RequiredSamplesWithConfidence returns the nominal total budget of
// TestSourceWithConfidence, saturating at math.MaxInt64 like
// RequiredSamples instead of wrapping.
func RequiredSamplesWithConfidence(n, k int, eps, delta float64, opt Options) int64 {
	base, reps := RequiredSamples(n, k, eps, opt), int64(stats.RepsForConfidence(delta))
	if base > math.MaxInt64/reps {
		return math.MaxInt64
	}
	return base * reps
}
