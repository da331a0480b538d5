// Package chisq implements the χ²-vs-TV identity-testing machinery of
// Acharya, Daskalakis, and Kamath [ADK15] that the paper builds on
// (Theorem 3.2 and Proposition 3.3): the truncated, Poissonized χ²
// statistic
//
//	Z = Σ_{i ∈ A ∩ G} ((N_i − m·D*(i))² − N_i) / (m·D*(i)),
//
// where A = {i : D*(i) ≥ τ} is the truncation set (the paper's A_ε with
// τ = ε/(50n)), G is a sub-domain, and N_i ~ Poisson(m·D(i)) are the
// sample counts. Under Poissonization the Z_j computed on disjoint
// intervals are independent — exactly what the sieve of Section 3.2.1
// exploits.
//
// The computation runs in O(#samples + #pieces of D*) time: unsampled
// elements of A contribute (m·D*(i))²/(m·D*(i)) = m·D*(i) each, so their
// total contribution is m times the unsampled truncated mass, which is
// available in closed form from the piece structure.
package chisq

import (
	"math"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// Params are the tunable constants of the ADK tester. The paper's values
// are astronomically conservative; see core.Config for the calibrated
// preset used by the experiments.
type Params struct {
	// MFactor sets the Poisson sample mean m = MFactor·√n/ε².
	// Proposition 3.3 requires MFactor >= 20000 for its stated constants.
	MFactor float64
	// TruncFactor sets the truncation threshold τ = TruncFactor·ε/n.
	// The paper uses 1/50.
	TruncFactor float64
	// AcceptFactor sets the accept threshold Z <= AcceptFactor·m·ε².
	// The analysis places completeness at EZ <= m·ε²/500 and soundness at
	// EZ >= m·ε²/5; 1/10 sits between them with slack on both sides.
	AcceptFactor float64
}

// PaperParams returns the literal constants from [ADK15] / the paper.
func PaperParams() Params {
	return Params{MFactor: 20000, TruncFactor: 1.0 / 50, AcceptFactor: 1.0 / 10}
}

// PracticalParams returns constants calibrated for laptop-scale
// experiments (see EXPERIMENTS.md): the same statistic and threshold
// structure, with the sample-mean constant reduced from 20000 to the
// smallest value that still separates the null from the alternative.
// Under the null Z has mean 0 and standard deviation ≈ √(2n), so the
// accept cutoff AcceptFactor·m·ε² = (MFactor/10)·√n must exceed a few
// √(2n): MFactor = 40 puts the cutoff at ~2.8 standard deviations.
func PracticalParams() Params {
	return Params{MFactor: 40, TruncFactor: 1.0 / 50, AcceptFactor: 1.0 / 10}
}

// SampleMean returns the Poisson mean m = MFactor·√n/ε² the tester uses.
func (p Params) SampleMean(n int, eps float64) float64 {
	return p.MFactor * math.Sqrt(float64(n)) / (eps * eps)
}

// Threshold returns the truncation threshold τ = TruncFactor·ε/n.
func (p Params) Threshold(n int, eps float64) float64 {
	return p.TruncFactor * eps / float64(n)
}

// truncatedMass returns Σ_{i ∈ [lo,hi) : dstar(i) >= tau} dstar(i),
// walking dstar's constant runs.
func truncatedMass(dstar dist.Distribution, lo, hi int, tau float64) float64 {
	total := 0.0
	for i := lo; i < hi; {
		end := dstar.RunEnd(i)
		if end > hi {
			end = hi
		}
		if p := dstar.Prob(i); p >= tau {
			total += p * float64(end-i)
		}
		i = end
	}
	return total
}

// runCursor reads D*(i) for ascending i, the order ForEach visits
// sampled elements in: it looks up the constant run holding i only once
// i passes the end of the run it holds, so a walk searches D* once per
// occupied run instead of once per sampled element. D* is constant on
// each run, so every read equals dstar.Prob(i) bit for bit.
type runCursor struct {
	dstar dist.Distribution
	end   int
	p     float64
}

func (rc *runCursor) prob(i int) float64 {
	if i >= rc.end {
		rc.p, rc.end = rc.dstar.Prob(i), rc.dstar.RunEnd(i)
	}
	return rc.p
}

// sampledCorrection returns the adjustment a sampled element contributes
// relative to the unsampled closed form: the element was pre-credited with
// m·D*(i), its true term is ((N_i−m·D*(i))²−N_i)/(m·D*(i)).
func sampledCorrection(ni int, mpi float64) float64 {
	d := float64(ni) - mpi
	return (d*d-float64(ni))/mpi - mpi
}

// ZDomain computes the statistic over a sub-domain G in a single pass over
// the samples: O(#samples + #pieces of D* + #pieces of G). Domain
// membership and D*(i) are resolved by rolling cursors, since ForEach
// ascends.
func ZDomain(counts *oracle.Counts, dstar dist.Distribution, g *intervals.Domain, m, tau float64) float64 {
	gIvs := g.Intervals()
	z := 0.0
	for _, iv := range gIvs {
		z += m * truncatedMass(dstar, iv.Lo, iv.Hi, tau)
	}
	gi := 0
	rc := runCursor{dstar: dstar}
	counts.ForEach(func(i, ni int) {
		for gi < len(gIvs) && gIvs[gi].Hi <= i {
			gi++
		}
		if gi >= len(gIvs) || i < gIvs[gi].Lo {
			return
		}
		pi := rc.prob(i)
		if pi < tau {
			return
		}
		z += sampledCorrection(ni, m*pi)
	})
	return z
}

// ZPerInterval computes the per-interval statistics Z_j for every interval
// of the partition p, each restricted to the sub-domain g. Intervals
// disjoint from g get Z_j = 0. This is the refinement of [ADK15] that
// the sieve consumes (independent Z_j under Poissonization). The cost is a
// single pass over the samples plus an O(K + #pieces of G) merge walk:
// both the partition intervals and the domain pieces are sorted, so their
// intersections — and, since ForEach ascends, the per-sample domain and
// partition and D* lookups — come from linear cursors rather than nested
// loops or binary searches.
func ZPerInterval(counts *oracle.Counts, dstar dist.Distribution, p *intervals.Partition, g *intervals.Domain, m, tau float64) []float64 {
	return ZPerIntervalInto(nil, counts, dstar, p, g, m, tau)
}

// ZPerIntervalInto is ZPerInterval with an append-style destination: the
// K = p.Count() statistics are appended to dst (which may be nil) and the
// extended slice is returned. Callers on the sieve hot path pass a
// recycled dst[:0] so the per-round result slice is allocation-free in
// steady state.
func ZPerIntervalInto(dst []float64, counts *oracle.Counts, dstar dist.Distribution, p *intervals.Partition, g *intervals.Domain, m, tau float64) []float64 {
	base := len(dst)
	for i, K := 0, p.Count(); i < K; i++ {
		dst = append(dst, 0)
	}
	zs := dst[base:]
	gIvs := g.Intervals()
	for j, gi := 0, 0; j < len(zs) && gi < len(gIvs); {
		pIv := p.Interval(j)
		iv := pIv.Intersect(gIvs[gi])
		if !iv.Empty() {
			zs[j] += m * truncatedMass(dstar, iv.Lo, iv.Hi, tau)
		}
		if pIv.Hi <= gIvs[gi].Hi {
			j++
		} else {
			gi++
		}
	}
	gi := 0
	rc := runCursor{dstar: dstar}
	counts.ForEachIn(p, func(j, i, ni int) {
		for gi < len(gIvs) && gIvs[gi].Hi <= i {
			gi++
		}
		if gi >= len(gIvs) || i < gIvs[gi].Lo {
			return
		}
		pi := rc.prob(i)
		if pi < tau {
			return
		}
		zs[j] += sampledCorrection(ni, m*pi)
	})
	return dst
}

// ExpectedZ returns E[Z] = m·Σ_{i ∈ A ∩ G} (D(i)−D*(i))²/D*(i) for known
// D — the quantity Proposition 3.3 reasons about. Used by tests and the
// experiment harness to verify the statistic's calibration.
func ExpectedZ(d, dstar dist.Distribution, g *intervals.Domain, m, tau float64) float64 {
	total := 0.0
	for _, iv := range g.Intervals() {
		for i := iv.Lo; i < iv.Hi; {
			endA := d.RunEnd(i)
			endB := dstar.RunEnd(i)
			end := endA
			if endB < end {
				end = endB
			}
			if end > iv.Hi {
				end = iv.Hi
			}
			ps := dstar.Prob(i)
			if ps >= tau {
				delta := d.Prob(i) - ps
				total += float64(end-i) * delta * delta / ps
			}
			i = end
		}
	}
	return m * total
}

// Result reports one identity-test invocation.
type Result struct {
	Accept bool
	// Z is the observed statistic; Threshold the accept cutoff.
	Z, Threshold float64
	// M is the nominal Poisson mean, Drawn the realized sample count.
	M     float64
	Drawn int
}

// Test runs the [ADK15] identity tester restricted to the sub-domain g:
// draw Poisson(m) samples from o, accept iff Z <= AcceptFactor·m·ε².
//
// Guarantees (Theorem 3.2, for the paper's constants): if
// dχ²(D‖D*) <= ε²/500 restricted to g it accepts w.p. >= 2/3; if
// dTV(D,D*) >= ε restricted to g it rejects w.p. >= 2/3.
func Test(o oracle.Oracle, r *rng.RNG, dstar dist.Distribution, g *intervals.Domain, eps float64, params Params) Result {
	return TestWith(o, r, dstar, g, eps, params, oracle.CountExact)
}

// TestWith is Test with an explicit count-synthesis strategy for the
// Poissonized batch: oracle.CountExact draws per sample (Test verbatim);
// oracle.CountClosedForm synthesizes the count vector from a known
// sampler's run structure (falling back to exact for oracles without the
// capability). The statistic, threshold, and guarantees are unchanged —
// only how the counts are materialized.
func TestWith(o oracle.Oracle, r *rng.RNG, dstar dist.Distribution, g *intervals.Domain, eps float64, params Params, cs oracle.CountStrategy) Result {
	n := dstar.N()
	m := params.SampleMean(n, eps)
	tau := params.Threshold(n, eps)
	counts := oracle.DrawCountsWith(o, r, m, cs)
	defer counts.Release()
	z := ZDomain(counts, dstar, g, m, tau)
	drawn := counts.Total()
	thr := params.AcceptFactor * m * eps * eps
	return Result{Accept: z <= thr, Z: z, Threshold: thr, M: m, Drawn: drawn}
}

// TestFixed is Test without the Poissonization trick: it draws exactly m
// samples instead of Poisson(m). The per-element counts are then
// multinomial — negatively correlated rather than independent — which the
// paper's analysis avoids by Poissonizing (Section 2). Provided for the
// ablation experiment E11; the statistic and threshold are identical.
func TestFixed(o oracle.Oracle, r *rng.RNG, dstar dist.Distribution, g *intervals.Domain, eps float64, params Params) Result {
	n := dstar.N()
	m := params.SampleMean(n, eps)
	tau := params.Threshold(n, eps)
	drawn := int(math.Round(m))
	counts := oracle.DrawNCounts(o, drawn)
	defer counts.Release()
	z := ZDomain(counts, dstar, g, m, tau)
	thr := params.AcceptFactor * m * eps * eps
	return Result{Accept: z <= thr, Z: z, Threshold: thr, M: m, Drawn: drawn}
}
