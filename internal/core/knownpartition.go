package core

import (
	"fmt"
	"math"

	"repro/internal/chisq"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// KnownPartitionParams tune TestKnownPartition.
type KnownPartitionParams struct {
	// LearnEpsDivisor runs the learner at ε/LearnEpsDivisor.
	LearnEpsDivisor float64
	// LearnSampleC scales the learner budget O(K/ε²).
	LearnSampleC float64
	// TestEpsFactor runs the identity test at ε' = TestEpsFactor·ε.
	TestEpsFactor float64
	// Chi are the identity-test constants.
	Chi chisq.Params
}

// PracticalKnownPartition returns calibrated constants: learner χ² error
// (ε/16)²/2 sits well under the identity test's acceptance budget
// 0.1·(0.5ε)².
func PracticalKnownPartition() KnownPartitionParams {
	return KnownPartitionParams{
		LearnEpsDivisor: 16,
		LearnSampleC:    2,
		TestEpsFactor:   0.5,
		Chi:             chisq.Params{MFactor: 60, TruncFactor: 1.0 / 50, AcceptFactor: 1.0 / 10},
	}
}

// KnownPartitionResult reports one TestKnownPartition invocation.
type KnownPartitionResult struct {
	Accept  bool
	Samples int64
	// Z and Threshold are the deciding identity-test statistics.
	Z, Threshold float64
}

// TestKnownPartition decides the EASIER variant the paper contrasts with
// in Section 1.2 (studied by [DK16]): given an EXPLICIT partition Π of
// [0, n), is D piecewise constant on Π's intervals, or ε-far from every
// distribution that is?
//
// Because the breakpoints are known, no sieve and no projection DP are
// needed: D ∈ Hist(Π) if and only if D equals its own Π-flattening, so
// learning the flattening and running the Theorem 3.2 identity test
// suffices — at O(√n/ε² + |Π|/ε²) samples, matching the [DK16] rate and
// strictly cheaper than the unknown-partition problem (experiment E13
// measures the gap).
func TestKnownPartition(o oracle.Oracle, r *rng.RNG, part *intervals.Partition, eps float64, p KnownPartitionParams) (*KnownPartitionResult, error) {
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps = %v must be in (0, 1]", eps)
	}
	n := o.N()
	if part.N() != n {
		return nil, fmt.Errorf("core: partition over [0,%d), oracle over [0,%d)", part.N(), n)
	}
	start := o.Samples()
	// Learn the flattening of D over Π. If D ∈ Hist(Π), the flattening IS
	// D and the add-one estimator is χ²-consistent for it (Lemma 3.5 with
	// no breakpoint intervals to excuse: every interval of Π is flat).
	dhat, _ := learn.Learn(o, r, part, eps/p.LearnEpsDivisor, p.LearnSampleC)
	// Identity test D against the learned flattening.
	res := chisq.Test(o, r, dhat, intervals.FullDomain(n), p.TestEpsFactor*eps, p.Chi)
	return &KnownPartitionResult{
		Accept:  res.Accept,
		Samples: o.Samples() - start,
		Z:       res.Z, Threshold: res.Threshold,
	}, nil
}

// KnownPartitionExpectedSamples returns the nominal budget of one
// TestKnownPartition call.
func KnownPartitionExpectedSamples(n, numIntervals int, eps float64, p KnownPartitionParams) int64 {
	learnM := learn.LearnSamples(numIntervals, eps/p.LearnEpsDivisor, p.LearnSampleC)
	testM := p.Chi.SampleMean(n, p.TestEpsFactor*eps)
	return learn.TotalSamples(int64(learnM), learn.SampleCount(math.Ceil(testM)))
}
