// Package core implements the paper's main contribution: the k-histogram
// tester of Theorem 3.1 (Algorithm 1). Given sample access to an unknown
// distribution D over [n], it distinguishes D ∈ H_k (accept w.p. >= 2/3)
// from dTV(D, H_k) >= ε (reject w.p. >= 2/3), using
// O(√n/ε²·log k + poly(k, 1/ε)) samples.
//
// The pipeline has four stages, each with fresh samples:
//
//  1. Partition — learn.ApproxPart with b = Θ(k log k / ε) isolates heavy
//     elements and caps every other interval's mass (Prop. 3.4).
//  2. Learn — the add-one estimator over the partition yields D̂, close to
//     D in χ² off D's breakpoint intervals (Lemma 3.5).
//  3. Sieve — per-interval χ² statistics Z_j (Prop. 3.3) identify and
//     remove the few intervals where the learned D̂ cannot be trusted:
//     first every non-singleton interval with Z_j above the heavy cutoff
//     (at most k may go), then O(log k) halving rounds (§3.2.1).
//  4. Check + Test — a DP (histdp.ProjectTV) verifies D̂ is close to H_k on
//     the sieved domain G, then the [ADK15] tester compares D against D̂
//     on G with fresh samples.
package core

import (
	"math"
	"runtime"

	"repro/internal/chisq"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// Config carries every constant of Algorithm 1. The paper fixes these in
// the proofs; the corrigendum to the paper revised parts of that analysis,
// which is why this implementation keeps them tunable and validates the
// operating characteristics empirically (see EXPERIMENTS.md).
type Config struct {
	// Engine selects the tester implementation by registry name: "" or
	// "adk" runs the source paper's Algorithm 1 (the four-stage
	// partition → learn → sieve → check → test pipeline); "cdkl22" runs
	// the CDKL'22 near-optimal tester (see engine_cdkl.go). Unknown
	// names fail the run with an error — never a silent fallback — and
	// serving layers reject them with a 400 at admission time. See
	// Engines() for the registered names.
	Engine string

	// PartBFactor sets the ApproxPart parameter b = PartBFactor·k·log2(k+2)/ε
	// (paper: 20).
	PartBFactor float64
	// PartSampleC scales ApproxPart's O(b log b) sample budget.
	PartSampleC float64

	// LearnEpsDivisor runs the learner at accuracy ε/LearnEpsDivisor
	// (paper: 60).
	LearnEpsDivisor float64
	// LearnSampleC scales the learner's O(K/ε²) sample budget.
	LearnSampleC float64

	// AlphaDivisor sets the sieve scale α = ε/AlphaDivisor (the paper's
	// "α = ε/C for a big enough constant C").
	AlphaDivisor float64
	// SieveMFactor sets the per-round sieve sample mean m = SieveMFactor·√n/α².
	SieveMFactor float64
	// SieveHeavyFactor: stage 1 removes intervals with Z_j > SieveHeavyFactor·m·α²
	// (paper: 10).
	SieveHeavyFactor float64
	// SieveAcceptFactor: a sieve round accepts when Z < SieveAcceptFactor·m·α²
	// (paper: 10).
	SieveAcceptFactor float64
	// SieveResidualFactor: a removal round keeps the surviving Z_j sum below
	// SieveResidualFactor·m·α² (paper: 2).
	SieveResidualFactor float64
	// SieveReps computed statistics per decision (median amplification);
	// <= 0 means derive from k as Θ(log log k) like the paper.
	SieveReps int
	// DiscardMassCap rejects when the sieve discards more than
	// DiscardMassCap·ε of estimated probability mass (the paper bounds this
	// by ε/10 via counting; an explicit mass cap is tighter in practice).
	DiscardMassCap float64

	// CheckTolDivisor accepts the DP check at distance ε/CheckTolDivisor
	// (paper: 60).
	CheckTolDivisor float64

	// FlatEpsFactor (cdkl22 engine only) runs the trimmed flatness test
	// at ε_f = FlatEpsFactor·ε. Zero means the calibrated default 0.5.
	FlatEpsFactor float64
	// FlatCheckTolDivisor (cdkl22 engine only) accepts that engine's DP
	// structure check at distance ε/FlatCheckTolDivisor. It is looser
	// than CheckTolDivisor because the cdkl22 check runs on the FULL
	// domain: the ≤ k−1 breakpoint intervals are never sieved away, so a
	// legal k-histogram's learned flattening legitimately sits up to
	// ~(k−1)/b ≈ ε/(PartBFactor·log₂(k+2)) away from H_k. Zero means
	// the calibrated default 6.
	FlatCheckTolDivisor float64

	// TestEpsFactor runs the final [ADK15] test at ε' = TestEpsFactor·ε
	// (paper: 13/30).
	TestEpsFactor float64
	// Chi are the final test's statistic constants.
	Chi chisq.Params
	// MaxSamples guards against accidentally astronomical budgets (the
	// paper constants on even tiny domains imply >10¹¹ draws): Test
	// returns an error instead of attempting a run whose nominal budget
	// exceeds it. Zero means 2³¹.
	MaxSamples int64

	// Workers bounds the goroutines used for the sieve's independent
	// replicate draws: 0 means GOMAXPROCS, 1 forces serial execution, and
	// higher values cap the fan-out. The decision and the Trace are
	// identical for every value — each replicate's randomness is a
	// sequential Split of the tester RNG taken before any goroutine
	// launches — so Workers is purely a throughput knob. Parallelism
	// requires an oracle that supports cloning (oracle.Forker, e.g. the
	// alias-table Sampler); Replay and Source-backed oracles always run
	// the serial path.
	Workers int

	// CountStrategy selects how the tester's Poissonized count vectors
	// (the sieve replicates and the final test batch) are synthesized.
	// The zero value, oracle.CountExact, draws every sample individually
	// and keeps the randomness stream bit-identical to always — every
	// replay oracle, regression pin, and determinism test is untouched.
	// oracle.CountClosedForm asks a known sampler (oracle.CountDrawer)
	// for the count vector directly in O(k + occupied) RNG calls per
	// batch instead of O(m) draws — the fast path for spec/registered-
	// sampler workloads; counts are distributionally identical, and
	// per-seed decisions differ while operating characteristics agree
	// (see DESIGN.md "Count generation"). Oracles without the capability
	// (Replay, Source adapters, the Permuted wrapper) always fall back
	// to the exact per-draw path.
	CountStrategy oracle.CountStrategy

	// SkipCheck disables the Step-10 DP check (the "Checking" stage of
	// Algorithm 1). ABLATION ONLY: without it the tester loses soundness
	// against distributions that match their own partition flattening —
	// experiment E12 demonstrates the resulting false accepts.
	SkipCheck bool

	// Observer, when non-nil, receives the run's structured stage events
	// (stage enter/exit with per-stage draw counts, per-sieve-round
	// removals and fan-out, pool and counting-path statistics — see
	// internal/obs for the schema). nil is the zero-overhead fast path:
	// no events, no clock reads, no allocations. Attaching an observer
	// never consumes randomness, so the decision and the Trace are
	// bit-identical with and without one.
	Observer obs.Observer
}

// workers resolves the Workers knob: 0 means GOMAXPROCS.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// maxSamples returns the effective budget guard.
func (c Config) maxSamples() int64 {
	if c.MaxSamples > 0 {
		return c.MaxSamples
	}
	return 1 << 31
}

// PaperConfig returns the literal constants of the paper's analysis.
// They are safe but astronomically sample-hungry (the leading constant on
// √n/ε² is in the tens of thousands); use PracticalConfig for experiments.
func PaperConfig() Config {
	return Config{
		PartBFactor:         20,
		PartSampleC:         20,
		LearnEpsDivisor:     60,
		LearnSampleC:        20,
		AlphaDivisor:        500,
		SieveMFactor:        20000,
		SieveHeavyFactor:    10,
		SieveAcceptFactor:   10,
		SieveResidualFactor: 2,
		SieveReps:           0, // derived from k
		DiscardMassCap:      0.1,
		CheckTolDivisor:     60,
		TestEpsFactor:       13.0 / 30,
		Chi:                 chisq.PaperParams(),
	}
}

// PracticalConfig returns constants calibrated so that the stages'
// guarantees compose at laptop-scale sample sizes. The derivation (see
// EXPERIMENTS.md for the empirical validation):
//
//   - final test at ε' = 0.28ε with accept cutoff 0.1·m·ε'²: tolerates a
//     residual χ² of ~0.008ε² on the sieved domain;
//   - learner (at ε/24, budget constant 2) and sieve at α = ε/24:
//     post-sieve residual <= 1.5α² ≈ 0.0026ε², a third of the cutoff;
//   - discard mass cap 0.3ε: a far distribution stays >= (ε−0.3ε)/2 = 0.35ε
//     far on the sieved domain, and 0.35ε − ε/20 (check tolerance) >= ε'.
func PracticalConfig() Config {
	return Config{
		PartBFactor:         6,
		PartSampleC:         8,
		LearnEpsDivisor:     24,
		LearnSampleC:        2,
		AlphaDivisor:        24,
		SieveMFactor:        8,
		SieveHeavyFactor:    10,
		SieveAcceptFactor:   1.5,
		SieveResidualFactor: 1.5,
		SieveReps:           1,
		DiscardMassCap:      0.3,
		CheckTolDivisor:     20,
		TestEpsFactor:       0.28,
		Chi: chisq.Params{
			MFactor:      80,
			TruncFactor:  1.0 / 50,
			AcceptFactor: 1.0 / 10,
		},
	}
}

// Scale returns a copy of c with every stage's sample budget multiplied by
// s (thresholds are relative to the realized budgets, so the decision
// structure is unchanged). The empirical sample-complexity searches sweep
// this single knob.
func (c Config) Scale(s float64) Config {
	out := c
	out.PartSampleC *= s
	out.LearnSampleC *= s
	out.SieveMFactor *= s
	out.Chi.MFactor *= s
	return out
}

// PartB returns the ApproxPart parameter b for given k and ε (at least 1).
func (c Config) PartB(k int, eps float64) float64 {
	b := c.PartBFactor * float64(k) * math.Log2(float64(k)+2) / eps
	if b < 1 {
		b = 1
	}
	return b
}

// Alpha returns the sieve scale α = ε/AlphaDivisor.
func (c Config) Alpha(eps float64) float64 { return eps / c.AlphaDivisor }

// SieveRounds returns the number of stage-2 halving rounds, ⌈log2(k+1)⌉+1.
func (c Config) SieveRounds(k int) int {
	return int(math.Ceil(math.Log2(float64(k)+1))) + 1
}

// flatEpsFactor resolves FlatEpsFactor: 0 means 0.5.
func (c Config) flatEpsFactor() float64 {
	if c.FlatEpsFactor > 0 {
		return c.FlatEpsFactor
	}
	return 0.5
}

// flatCheckTolDivisor resolves FlatCheckTolDivisor: 0 means 6.
func (c Config) flatCheckTolDivisor() float64 {
	if c.FlatCheckTolDivisor > 0 {
		return c.FlatCheckTolDivisor
	}
	return 6
}

// sieveReps returns the amplification repetitions per sieve statistic.
func (c Config) sieveReps(k int) int {
	if c.SieveReps > 0 {
		return c.SieveReps
	}
	// δ = 1/(10(k+1)) as in §3.2.1; majority of Θ(log 1/δ) suffices, and
	// log log k of the paper is absorbed into the constant here.
	reps := int(math.Ceil(math.Log2(10 * (float64(k) + 1))))
	if reps%2 == 0 {
		reps++
	}
	return reps
}
