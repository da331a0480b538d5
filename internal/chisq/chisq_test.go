package chisq

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

func fullDomain(n int) *intervals.Domain { return intervals.FullDomain(n) }

// drawCounts draws Poisson(m) samples from d and tallies them.
func drawCounts(r *rng.RNG, d dist.Distribution, m float64) *oracle.Counts {
	s := oracle.NewSampler(d, r)
	return oracle.NewCounts(d.N(), oracle.DrawPoisson(s, r, m))
}

func TestZUnbiasedUnderNull(t *testing.T) {
	// When D == D*, E[Z] = 0; average over repetitions should be small.
	r := rng.New(1)
	d := dist.Uniform(64)
	const m = 2000.0
	sum := 0.0
	const reps = 300
	for i := 0; i < reps; i++ {
		counts := drawCounts(r, d, m)
		sum += ZDomain(counts, d, fullDomain(64), m, 0)
	}
	avg := sum / reps
	// Var Z under the null is about 2·Σ 1 = 2n per draw; sd of the mean
	// is sqrt(2·64/300) ≈ 0.65.
	if math.Abs(avg) > 3 {
		t.Fatalf("null E[Z] estimate = %v, want ~0", avg)
	}
}

func TestZMatchesExpectationUnderAlternative(t *testing.T) {
	r := rng.New(2)
	n := 32
	dstar := dist.Uniform(n)
	// D puts extra mass on the first half.
	p := make([]float64, n)
	for i := range p {
		if i < n/2 {
			p[i] = 1.5 / float64(n)
		} else {
			p[i] = 0.5 / float64(n)
		}
	}
	d := dist.MustDense(p)
	const m = 5000.0
	want := ExpectedZ(d, dstar, fullDomain(n), m, 0)
	sum := 0.0
	const reps = 200
	for i := 0; i < reps; i++ {
		counts := drawCounts(r, d, m)
		sum += ZDomain(counts, dstar, fullDomain(n), m, 0)
	}
	avg := sum / reps
	if math.Abs(avg-want) > 0.1*want {
		t.Fatalf("E[Z] estimate = %v, analytical = %v", avg, want)
	}
}

func TestExpectedZFormula(t *testing.T) {
	// Hand-computed: n=2, D = (0.75, 0.25), D* = (0.5, 0.5), m = 100.
	d := dist.MustDense([]float64{0.75, 0.25})
	dstar := dist.Uniform(2)
	want := 100 * (0.25*0.25/0.5 + 0.25*0.25/0.5)
	if got := ExpectedZ(d, dstar, fullDomain(2), 100, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ExpectedZ = %v, want %v", got, want)
	}
}

func TestTruncationDropsLightElements(t *testing.T) {
	// D* has a heavy and a light element; with tau above the light mass,
	// only the heavy element contributes.
	dstar := dist.MustDense([]float64{0.9, 0.1})
	d := dist.MustDense([]float64{0.1, 0.9})
	full := ExpectedZ(d, dstar, fullDomain(2), 100, 0)
	trunc := ExpectedZ(d, dstar, fullDomain(2), 100, 0.5)
	wantFull := 100 * (0.8*0.8/0.9 + 0.8*0.8/0.1)
	wantTrunc := 100 * (0.8 * 0.8 / 0.9)
	if math.Abs(full-wantFull) > 1e-9 || math.Abs(trunc-wantTrunc) > 1e-9 {
		t.Fatalf("truncation wrong: full=%v want=%v trunc=%v want=%v", full, wantFull, trunc, wantTrunc)
	}
}

func TestZDomainRestriction(t *testing.T) {
	// Restricting to half the domain should only count that half.
	r := rng.New(3)
	n := 16
	dstar := dist.Uniform(n)
	// D is distorted only on the second half.
	p := make([]float64, n)
	for i := range p {
		if i < n/2 {
			p[i] = 1.0 / float64(n)
		} else if i%2 == 0 {
			p[i] = 1.8 / float64(n)
		} else {
			p[i] = 0.2 / float64(n)
		}
	}
	d := dist.MustDense(p)
	const m = 20000.0
	left := intervals.NewDomain(n, []intervals.Interval{{Lo: 0, Hi: n / 2}})
	sum := 0.0
	const reps = 100
	for i := 0; i < reps; i++ {
		counts := drawCounts(r, d, m)
		sum += ZDomain(counts, dstar, left, m, 0)
	}
	avg := sum / reps
	if math.Abs(avg) > 30 {
		t.Fatalf("Z over clean half = %v, want ~0 (distortion leaked in)", avg)
	}
}

func TestZPerIntervalSumsToZDomain(t *testing.T) {
	r := rng.New(4)
	n := 60
	dstar := dist.Uniform(n)
	d := dist.MustDense(func() []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(i+1) * 2 / float64(n*(n+1))
		}
		return p
	}())
	part := intervals.FromBoundaries(n, []int{10, 25, 40})
	g := intervals.NewDomain(n, []intervals.Interval{{Lo: 0, Hi: 25}, {Lo: 40, Hi: 60}})
	const m = 500.0
	counts := drawCounts(r, d, m)
	tau := 0.5 / float64(n)
	zs := ZPerInterval(counts, dstar, part, g, m, tau)
	if len(zs) != part.Count() {
		t.Fatalf("got %d statistics", len(zs))
	}
	total := 0.0
	for _, z := range zs {
		total += z
	}
	want := ZDomain(counts, dstar, g, m, tau)
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("ΣZ_j = %v, ZDomain = %v", total, want)
	}
	// Interval [25,40) is outside g entirely: its statistic must be 0.
	if zs[2] != 0 {
		t.Fatalf("Z for out-of-domain interval = %v", zs[2])
	}
}

func TestZEquivalentAcrossRepresentations(t *testing.T) {
	// Z must not depend on whether D* is Dense or PiecewiseConstant.
	r := rng.New(5)
	n := 40
	pcStar := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 10}, Mass: 0.5},
		{Iv: intervals.Interval{Lo: 10, Hi: 40}, Mass: 0.5},
	})
	denseStar := dist.ToDense(pcStar)
	d := dist.Uniform(n)
	const m = 800.0
	counts := drawCounts(r, d, m)
	tau := 0.2 / float64(n)
	g := intervals.NewDomain(n, []intervals.Interval{{Lo: 3, Hi: 33}})
	a := ZDomain(counts, pcStar, g, m, tau)
	b := ZDomain(counts, denseStar, g, m, tau)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("Z differs across representations: %v vs %v", a, b)
	}
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := PaperParams()
	n, eps := 10000, 0.1
	if got, want := p.SampleMean(n, eps), 20000*100/0.01; math.Abs(got-want) > 1e-6 {
		t.Fatalf("SampleMean = %v, want %v", got, want)
	}
	if got, want := p.Threshold(n, eps), 0.1/50/10000; math.Abs(got-want) > 1e-18 {
		t.Fatalf("Threshold = %v, want %v", got, want)
	}
}

func TestTesterCompleteness(t *testing.T) {
	// D == D* exactly: must accept with high probability.
	r := rng.New(6)
	n := 256
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	params := PracticalParams()
	accepts := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		if Test(s, r, d, fullDomain(n), 0.25, params).Accept {
			accepts++
		}
	}
	if accepts < trials*3/4 {
		t.Fatalf("completeness: accepted %d/%d", accepts, trials)
	}
}

func TestTesterSoundness(t *testing.T) {
	// dTV(D, D*) = 0.5: must reject with high probability.
	r := rng.New(7)
	n := 256
	dstar := dist.Uniform(n)
	p := make([]float64, n)
	for i := range p {
		if i < n/2 {
			p[i] = 2.0 / float64(n)
		}
	}
	d := dist.MustDense(p)
	s := oracle.NewSampler(d, r)
	params := PracticalParams()
	rejects := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		if !Test(s, r, dstar, fullDomain(n), 0.25, params).Accept {
			rejects++
		}
	}
	if rejects < trials*3/4 {
		t.Fatalf("soundness: rejected %d/%d", rejects, trials)
	}
}

func TestTesterRestrictedIgnoresSievedRegion(t *testing.T) {
	// D and D* agree on g = [n/4, n) but differ wildly on [0, n/4): the
	// restricted test must accept while the full-domain test rejects.
	r := rng.New(8)
	n := 256
	p := make([]float64, n)
	for i := range p {
		if i < n/4 {
			p[i] = 3.0 / float64(n) // heavy first quarter
		}
	}
	rem := 1.0 - 3.0/float64(n)*float64(n/4)
	for i := n / 4; i < n; i++ {
		p[i] = rem / float64(n-n/4)
	}
	d := dist.MustDense(p)
	s := oracle.NewSampler(d, r)
	g := intervals.NewDomain(n, []intervals.Interval{{Lo: n / 4, Hi: n}})
	params := PracticalParams()
	const trials = 40
	// D* agrees with D on g but is wrong on the sieved quarter.
	q := make([]float64, n)
	for i := 0; i < n/4; i++ {
		q[i] = p[n-1]
	}
	for i := n / 4; i < n; i++ {
		q[i] = p[i]
	}
	dstar := dist.MustDense(q)
	accepts := 0
	for i := 0; i < trials; i++ {
		if Test(s, r, dstar, g, 0.25, params).Accept {
			accepts++
		}
	}
	if accepts < trials*3/4 {
		t.Fatalf("restricted test accepted only %d/%d", accepts, trials)
	}
	// Sanity: the same pair over the full domain rejects.
	rejects := 0
	for i := 0; i < trials; i++ {
		if !Test(s, r, dstar, fullDomain(n), 0.25, params).Accept {
			rejects++
		}
	}
	if rejects < trials*3/4 {
		t.Fatalf("full-domain test should reject, rejected %d/%d", rejects, trials)
	}
}

func TestFixedSamplingAgreesWithPoissonized(t *testing.T) {
	// The fixed-m (multinomial) variant must reach the same verdicts as
	// the Poissonized tester on clearly-separated cases.
	r := rng.New(20)
	n := 256
	params := PracticalParams()
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	accepts := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		res := TestFixed(s, r, d, fullDomain(n), 0.25, params)
		if res.Accept {
			accepts++
		}
		if res.Drawn != int(res.M+0.5) {
			t.Fatalf("fixed draw count %d != m %v", res.Drawn, res.M)
		}
	}
	if accepts < trials*3/4 {
		t.Fatalf("fixed-m null accepted %d/%d", accepts, trials)
	}
	// Far case rejects.
	p := make([]float64, n)
	for i := range p {
		if i < n/2 {
			p[i] = 2.0 / float64(n)
		}
	}
	far := dist.MustDense(p)
	sf := oracle.NewSampler(far, r)
	rejects := 0
	for i := 0; i < trials; i++ {
		if !TestFixed(sf, r, d, fullDomain(n), 0.25, params).Accept {
			rejects++
		}
	}
	if rejects < trials*3/4 {
		t.Fatalf("fixed-m far rejected %d/%d", rejects, trials)
	}
}

func TestSampleAccounting(t *testing.T) {
	r := rng.New(10)
	n := 64
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	res := Test(s, r, d, fullDomain(n), 0.5, PracticalParams())
	if int64(res.Drawn) != s.Samples() {
		t.Fatalf("oracle counted %d, tester reports %d", s.Samples(), res.Drawn)
	}
}

func BenchmarkZDomainHistogramStar(b *testing.B) {
	r := rng.New(1)
	n := 1 << 18
	dstar := dist.Uniform(n)
	counts := drawCounts(r, dstar, 50000)
	g := fullDomain(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ZDomain(counts, dstar, g, 50000, 1e-9)
	}
}

func TestZPerIntervalIntoAppendSemantics(t *testing.T) {
	// ZPerIntervalInto is the destination-passing form: it must append
	// exactly ZPerInterval's values after any existing prefix, reuse the
	// destination's capacity, and leave the prefix untouched.
	r := rng.New(9)
	n := 60
	dstar := dist.Uniform(n)
	d := dist.MustDense(func() []float64 {
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(i+1) * 2 / float64(n*(n+1))
		}
		return p
	}())
	part := intervals.FromBoundaries(n, []int{10, 25, 40})
	g := intervals.NewDomain(n, []intervals.Interval{{Lo: 0, Hi: 25}, {Lo: 40, Hi: 60}})
	const m = 500.0
	counts := drawCounts(r, d, m)
	tau := 0.5 / float64(n)
	want := ZPerInterval(counts, dstar, part, g, m, tau)

	// nil destination behaves like the plain call.
	got := ZPerIntervalInto(nil, counts, dstar, part, g, m, tau)
	if len(got) != len(want) {
		t.Fatalf("nil dst: %d values, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("nil dst: zs[%d] = %v, want %v", j, got[j], want[j])
		}
	}

	// A non-empty prefix survives and the statistics land after it.
	dst := []float64{-1, -2}
	out := ZPerIntervalInto(dst, counts, dstar, part, g, m, tau)
	if len(out) != 2+len(want) {
		t.Fatalf("prefixed dst: len = %d, want %d", len(out), 2+len(want))
	}
	if out[0] != -1 || out[1] != -2 {
		t.Fatalf("prefix clobbered: %v", out[:2])
	}
	for j := range want {
		if out[2+j] != want[j] {
			t.Fatalf("prefixed dst: zs[%d] = %v, want %v", j, out[2+j], want[j])
		}
	}

	// A big-enough capacity is reused in place — the hot-path contract the
	// sieve relies on (med[t] = ZPerIntervalInto(med[t][:0], ...)).
	buf := make([]float64, 0, len(want)+8)
	out = ZPerIntervalInto(buf, counts, dstar, part, g, m, tau)
	if &out[0] != &buf[:1][0] {
		t.Fatal("destination with sufficient capacity was reallocated")
	}
	for j := range want {
		if out[j] != want[j] {
			t.Fatalf("reused dst: zs[%d] = %v, want %v", j, out[j], want[j])
		}
	}
}
