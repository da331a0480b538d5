// Two-sample closeness testing of HISTOGRAM distributions, following
// Diakonikolas, Kane, and Nikishkin [DKN17] ("Near-Optimal Closeness
// Testing of Discrete Histogram Distributions", arXiv 1703.01913): when
// both unknown distributions are promised (close to) k-histograms, the
// closeness question over [n] reduces to a closeness question over a
// domain of size O(b) = O(k·log k/ε) that is independent of n.
//
// The reduction implemented here:
//
//  1. Partition — run learn.ApproxPart on EACH sample source with the
//     same parameter b (heavy elements isolated as singletons, every
//     other interval of empirical mass <= 2/b), then take the common
//     refinement of the two partitions (intervals.Partition.Refine).
//     Flattening a pair of k-histograms on such a refinement moves their
//     TV distance by at most the mass of the <= 2(k−1) breakpoint
//     intervals, i.e. O(k/b) = O(ε/log k) — far pairs stay Ω(ε)-far,
//     equal pairs stay equal.
//  2. Reduce + test — draw one Poissonized batch per side with mean
//     m = MFactor·max(K^{2/3}/ε^{4/3}, √K/ε²) (the [CDVV14] complexity
//     over the REDUCED domain of K intervals), fold each count vector
//     onto the refinement (interval j of the partition becomes element j
//     of a K-element domain), and threshold the [CDVV14] χ² statistic Z
//     on the reduced vectors — over K elements instead of n.
//  3. Amplify — repeat stage 2 on fresh batches and take the majority
//     verdict. The replicates run through oracle.Fanout, the driver the
//     one-sample sieve uses: they fan out across Config.Workers when
//     Reps > 1 and both oracles can fork, and every replicate's
//     randomness is fixed before any goroutine starts, so the verdict
//     and all reported statistics are bit-identical at every worker
//     count.
//
// Per the corrigendum's "don't trust the constants" discipline, the
// constants here are calibrated empirically (the seed-pinned operating-
// characteristic regression in this package, E15 in the experiment
// suite) rather than copied from the analysis.
package closeness

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Config tunes the two-sample tester. The zero value is NOT usable; start
// from DefaultConfig.
type Config struct {
	// Chi holds the [CDVV14] statistic constants, applied on the reduced
	// domain (on the full domain when the reduction is off).
	Chi Params
	// PartBFactor sets the reduction parameter
	// b = PartBFactor·k·log2(k+2)/ε — the same shape as the one-sample
	// tester's partition parameter, so the two pipelines are comparable.
	PartBFactor float64
	// PartSampleC scales the per-side ApproxPart sample budget.
	PartSampleC float64
	// Reps is the majority-amplification replicate count (>= 1; odd
	// values avoid ties — a tie rejects).
	Reps int
	// Workers bounds the replicate fan-out. It is a pure throughput
	// knob: the verdict and statistics are bit-identical for every
	// value. <= 1 means serial.
	Workers int
	// CountStrategy selects how the Poissonized per-replicate batches
	// are synthesized (see oracle.CountStrategy); it is resolved against
	// each oracle's capability once per run, so replay-backed sides fall
	// back to the exact path independently.
	CountStrategy oracle.CountStrategy
	// MaxSamples guards against accidentally astronomical budgets: a run
	// whose nominal ExpectedSamples exceeds it fails before drawing. 0
	// means 2³¹.
	MaxSamples int64
}

// DefaultConfig returns the calibrated practical constants (validated by
// the operating-characteristic tests and E15). The χ² MFactor is one
// notch above the full-domain DefaultParams: on the reduced domain the
// refinement packs whole intervals into single elements, so the far
// pairs' signal concentrates on fewer, heavier cells and a marginal
// batch size flips individual replicates near the boundary.
func DefaultConfig() Config {
	return Config{
		Chi:         Params{MFactor: 3, ThresholdFactor: 3},
		PartBFactor: 6,
		PartSampleC: 8,
		Reps:        5,
	}
}

// Scale returns a copy of c with every stage's sample budget multiplied
// by s. Thresholds are relative to the realized budgets, so the decision
// structure is unchanged — the E15 sample-complexity searches sweep this
// single knob, mirroring core.Config.Scale.
func (c Config) Scale(s float64) Config {
	out := c
	out.PartSampleC *= s
	out.Chi.MFactor *= s
	return out
}

// PartB returns the reduction parameter b for given k and ε (at least 1).
func (c Config) PartB(k int, eps float64) float64 {
	b := c.PartBFactor * float64(k) * math.Log2(float64(k)+2) / eps
	if b < 1 {
		b = 1
	}
	return b
}

// maxSamples resolves the budget guard.
func (c Config) maxSamples() int64 {
	if c.MaxSamples > 0 {
		return c.MaxSamples
	}
	return 1 << 31
}

// reps resolves the replicate count.
func (c Config) reps() int {
	if c.Reps < 1 {
		return 1
	}
	return c.Reps
}

// reduced reports whether the reduction applies at all: when b (the
// reduced domain's scale) is no smaller than the raw domain, flattening
// cannot shrink anything and the tester runs the plain full-domain
// [CDVV14] test with zero partition samples — which is also the exact
// behavior for k >= n, where every distribution is a k-histogram.
func (c Config) reduced(n, k int, eps float64) bool {
	return k < n && 2*c.PartB(k, eps) < float64(n)
}

// ExpectedSamples is the run's nominal total budget across both sides:
// two partition batches plus Reps Poissonized pairs on the reduced
// domain. The reduced-domain size is estimated as the ApproxPart
// worst-case interval count for each side, refined (the estimate the
// budget guard and the serving layer's admission sizing use).
func (c Config) ExpectedSamples(n, k int, eps float64) int64 {
	if !c.reduced(n, k, eps) {
		m := c.Chi.SampleMean(n, eps)
		return learn.SampleCount(float64(2*c.reps()) * math.Ceil(m))
	}
	b := c.PartB(k, eps)
	partM := learn.ApproxPartSamples(b, c.PartSampleC)
	K := n // two refined worst-case ApproxPart outputs, at most n
	if pieces := learn.SampleCount(7 * b / 3); pieces < int64(n) {
		K = min(2*(int(pieces)+4), n)
	}
	m := c.Chi.SampleMean(K, eps)
	return learn.SampleCount(2*float64(partM) + float64(2*c.reps())*math.Ceil(m))
}

// CheckBudget is Run's budget guard: it errs exactly when Run over a
// domain of size n at (k, eps) would refuse to start because the
// nominal budget exceeds MaxSamples.
func (c Config) CheckBudget(n, k int, eps float64) error {
	if want := c.ExpectedSamples(n, k, eps); want > c.maxSamples() {
		return fmt.Errorf("closeness: nominal budget %d exceeds MaxSamples %d", want, c.maxSamples())
	}
	return nil
}

// TwoSampleResult reports one two-sample closeness run.
type TwoSampleResult struct {
	// Accept is the majority verdict: true means the samples are
	// consistent with p = q.
	Accept bool
	// N is the raw domain size; Intervals the reduced domain size K (== N
	// when the reduction did not apply).
	N, Intervals int
	// B is the reduction parameter (0 when the reduction did not apply).
	B float64
	// M is the per-side Poisson mean of each replicate batch.
	M float64
	// Reps and Accepts give the majority tally.
	Reps, Accepts int
	// Z and Threshold are the MEDIAN replicate's statistic and cutoff —
	// the representative decision the verdict summarizes.
	Z, Threshold float64
	// PartitionSamples and TestSamples account both sides' draws by
	// stage; SamplesX/SamplesY split the same total by side.
	PartitionSamples, TestSamples int64
	SamplesX, SamplesY            int64
}

// Tester holds the reusable scratch of Run: per-replicate statistic and
// threshold slots and the replicate driver's RNG structs. Like core.Arena
// it is not safe for concurrent use (the parallel replicates inside one
// Run are fine: slots are disjoint), and reuse cannot change behavior —
// every buffer is fully re-initialized per run and scratch management
// consumes no randomness.
type Tester struct {
	zs    []float64
	thrs  []float64
	col   []float64
	fan   oracle.Fanout
	batch pairBatch // the replicate body, handed to fan by pointer
}

// pairBatch is the replicate body (oracle.Replicator): one Poissonized
// batch of mean m per side, folded onto the refinement p (nil when the
// reduction is off) and scored with the [CDVV14] statistic into zs[i]
// and thrs[i]. It lives on the Tester and goes to the driver as a
// pointer, so a run allocates nothing for it. The slots are written once
// per replicate — two stores next to kilosample batch draws, so (unlike
// the sieve's statistic rows) they need no cache-line padding.
type pairBatch struct {
	m        float64
	csX, csY oracle.CountStrategy
	p        *intervals.Partition
	chi      Params
	zs, thrs []float64
}

// Replicate implements oracle.Replicator.
func (b *pairBatch) Replicate(_, i int, src []oracle.Stream) {
	cx := oracle.DrawCountsWith(src[0].O, src[0].R, b.m, b.csX)
	cy := oracle.DrawCountsWith(src[1].O, src[1].R, b.m, b.csY)
	b.zs[i], b.thrs[i] = reducedDecision(cx, cy, b.p, b.chi)
	cy.Release()
	cx.Release()
}

// NewTester returns an empty Tester ready to thread through Run calls.
func NewTester() *Tester { return &Tester{} }

// grow sizes the scratch for reps replicates.
func (t *Tester) grow(reps int) {
	if cap(t.zs) < reps {
		t.zs = make([]float64, reps)
		t.thrs = make([]float64, reps)
		t.col = make([]float64, reps)
	}
	t.zs, t.thrs, t.col = t.zs[:reps], t.thrs[:reps], t.col[:reps]
}

// TestTwoSample runs the DKN'17 two-sample tester on a fresh Tester. See
// Tester.Run for the contract.
func TestTwoSample(ctx context.Context, px, py oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*TwoSampleResult, error) {
	return NewTester().Run(ctx, px, py, r, k, eps, cfg)
}

// Run decides whether the two sample sources serve the same distribution
// (accept) or distributions ε-far in total variation (reject), under the
// promise that both are (close to) k-histograms. The verdict is a pure
// function of (the oracles' streams, r's seed, k, eps, cfg) with
// cfg.Workers excluded: the replicates run through oracle.Fanout, so
// every worker count yields the bit-identical result. Cancellation is
// honored between batches; every pooled Counts is released on every
// path.
func (t *Tester) Run(ctx context.Context, px, py oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*TwoSampleResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := px.N()
	if py.N() != n {
		return nil, fmt.Errorf("closeness: oracles over different domains (%d vs %d)", n, py.N())
	}
	if n < 1 {
		return nil, errors.New("closeness: empty domain")
	}
	if k < 1 {
		return nil, fmt.Errorf("closeness: k = %d must be positive", k)
	}
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("closeness: eps = %v must be in (0, 1]", eps)
	}
	if err := cfg.CheckBudget(n, k, eps); err != nil {
		return nil, err
	}

	res := &TwoSampleResult{N: n, Reps: cfg.reps()}
	markX, markY := px.Samples(), py.Samples()

	// Stage 1: per-side partitions and their common refinement. Skipped
	// when the reduction cannot shrink the domain (small n or k >= n);
	// the tester then degenerates to the full-domain [CDVV14] test on the
	// raw counts, with no partition.
	var p *intervals.Partition
	K := n
	if cfg.reduced(n, k, eps) {
		b := cfg.PartB(k, eps)
		res.B = b
		partX, err := learn.ApproxPartContext(ctx, px, r, b, cfg.PartSampleC)
		if err != nil {
			return nil, err
		}
		partY, err := learn.ApproxPartContext(ctx, py, r, b, cfg.PartSampleC)
		if err != nil {
			return nil, err
		}
		p, err = partX.Partition.Refine(partY.Partition)
		if err != nil {
			return nil, fmt.Errorf("closeness: refining partitions: %w", err)
		}
		K = p.Count()
	}
	res.Intervals = K
	res.PartitionSamples = (px.Samples() - markX) + (py.Samples() - markY)

	// Stage 2+3: Reps replicate [CDVV14] tests on the reduced domain,
	// majority vote. The per-replicate Poisson mean uses the REDUCED
	// domain size — the entire point of the reduction.
	m := cfg.Chi.SampleMean(K, eps)
	res.M = m
	reps := cfg.reps()
	t.grow(reps)
	t.batch = pairBatch{m: m, p: p, chi: cfg.Chi, zs: t.zs, thrs: t.thrs,
		csX: oracle.EffectiveStrategy(px, cfg.CountStrategy),
		csY: oracle.EffectiveStrategy(py, cfg.CountStrategy)}
	if _, err := t.fan.Run(ctx, r, reps, cfg.Workers, &t.batch, px, py); err != nil {
		return nil, err
	}

	accepts := 0
	for i := 0; i < reps; i++ {
		if t.zs[i] <= t.thrs[i] {
			accepts++
		}
	}
	res.Accepts = accepts
	res.Accept = 2*accepts > reps
	// Report the median replicate's statistic and cutoff as the
	// representative decision (medians over replicate order, so the
	// report is as worker-count independent as the verdict).
	copy(t.col, t.zs)
	res.Z = stats.MedianInPlace(t.col)
	copy(t.col, t.thrs)
	res.Threshold = stats.MedianInPlace(t.col)

	res.SamplesX = px.Samples() - markX
	res.SamplesY = py.Samples() - markY
	res.TestSamples = res.SamplesX + res.SamplesY - res.PartitionSamples
	return res, nil
}

// reducedDecision folds the two full-domain count vectors onto the
// partition (interval j becomes element j of a K-element domain) and
// scores them with the [CDVV14] statistic. The fold is skipped when there
// is no partition (the reduction is off) or it is the singleton partition
// — the reduced vectors would be the inputs themselves. Pooled reduced
// vectors are released before returning.
func reducedDecision(cx, cy *oracle.Counts, p *intervals.Partition, chi Params) (z, thr float64) {
	if p == nil || p.Count() == p.N() {
		return decide(cx, cy, chi)
	}
	K := p.Count()
	rx := oracle.AcquireCounts(K, cx.Total())
	ry := oracle.AcquireCounts(K, cy.Total())
	fold(cx, p, rx)
	fold(cy, p, ry)
	z, thr = decide(rx, ry, chi)
	ry.Release()
	rx.Release()
	return z, thr
}

// fold tallies the counts of c per interval of p into out (a Counts over
// the domain [p.Count())).
func fold(c *oracle.Counts, p *intervals.Partition, out *oracle.Counts) {
	j, hi := 0, p.Interval(0).Hi
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			for e.Elem >= hi {
				j++
				hi = p.Interval(j).Hi
			}
			out.AddN(j, e.Count)
		}
	}
}

// decide scores one count-vector pair: the [CDVV14] statistic against
// its occupied-scale threshold. Under the null each element with both
// counts zero contributes nothing and each occupied element O(1)
// variance, so the scale is √(#occupied) <= √(total counts).
func decide(x, y *oracle.Counts, chi Params) (z, thr float64) {
	z = Statistic(x, y)
	occupied := float64(x.Distinct() + y.Distinct())
	thr = chi.ThresholdFactor * math.Sqrt(math.Max(occupied, 1))
	return z, thr
}
