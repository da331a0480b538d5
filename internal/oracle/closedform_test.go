package oracle

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// mixedHistogram is the closed-form test workload: a 4-histogram over
// [0, 64) mixing a singleton run, a narrow run, and two wide runs, so a
// single mean exercises the singleton, sparse, and dense synthesis paths
// at once (at mean=100: t = 30 on width 1, 20 on width 7 — dense,
// 25 on width 24 — sparse, 25 on width 32 — sparse).
func mixedHistogram() *dist.PiecewiseConstant {
	iv := func(lo, hi int) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }
	return dist.MustPiecewiseConstant(64, []dist.Piece{
		{Iv: iv(0, 1), Mass: 0.30},
		{Iv: iv(1, 8), Mass: 0.20},
		{Iv: iv(8, 32), Mass: 0.25},
		{Iv: iv(32, 64), Mass: 0.25},
	})
}

func TestParseCountStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CountStrategy
	}{
		{"", CountExact},
		{"exact", CountExact},
		{"closed-form", CountClosedForm},
		{"closed_form", CountClosedForm},
		{"closedform", CountClosedForm},
	} {
		got, err := ParseCountStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseCountStrategy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseCountStrategy("fast"); err == nil {
		t.Error("ParseCountStrategy(\"fast\") should fail")
	}
	if CountExact.String() != "exact" || CountClosedForm.String() != "closed-form" {
		t.Errorf("String round-trip: %q, %q", CountExact, CountClosedForm)
	}
}

func TestEffectiveStrategy(t *testing.T) {
	s := NewSampler(mixedHistogram(), rng.New(1))
	if got := EffectiveStrategy(s, CountClosedForm); got != CountClosedForm {
		t.Errorf("Sampler closed-form: %v", got)
	}
	if got := EffectiveStrategy(s, CountExact); got != CountExact {
		t.Errorf("Sampler exact: %v", got)
	}
	// A fork keeps the capability: the resolution core.Test makes once on
	// the parent must hold for every replicate clone.
	if got := EffectiveStrategy(s.Fork(rng.New(2)), CountClosedForm); got != CountClosedForm {
		t.Errorf("forked Sampler closed-form: %v", got)
	}
	rep, err := NewReplay(4, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := EffectiveStrategy(rep, CountClosedForm); got != CountExact {
		t.Errorf("Replay must fall back to exact, got %v", got)
	}
	sigma := make([]int, 64)
	for i := range sigma {
		sigma[i] = 63 - i
	}
	perm, err := NewPermuted(s, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if got := EffectiveStrategy(perm, CountClosedForm); got != CountExact {
		t.Errorf("Permuted must fall back to exact, got %v", got)
	}
}

// TestDrawCountsWithExactIsBitIdentical pins the zero-value contract:
// DrawCountsWith at CountExact consumes exactly DrawCounts' randomness
// and yields identical counts, on known samplers and replay oracles
// alike — the guarantee that keeps every historical stream untouched.
func TestDrawCountsWithExactIsBitIdentical(t *testing.T) {
	run := func(o Oracle, r *rng.RNG) []int {
		c := DrawCountsWith(o, r, 200, CountExact)
		defer c.Release()
		out := make([]int, o.N())
		for i := range out {
			out[i] = c.Of(i)
		}
		return out
	}
	a := run(NewSampler(mixedHistogram(), rng.New(7)), rng.New(8))
	bs := NewSampler(mixedHistogram(), rng.New(7))
	br := rng.New(8)
	b := func() []int {
		c := DrawCounts(bs, br, 200)
		defer c.Release()
		out := make([]int, 64)
		for i := range out {
			out[i] = c.Of(i)
		}
		return out
	}()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d: exact strategy %d, DrawCounts %d", i, a[i], b[i])
		}
	}
}

// TestDrawCountsWithReplayFallback: asking a replay oracle for closed
// form silently takes the per-draw path and consumes the dataset in
// order — samples are data, not randomness.
func TestDrawCountsWithReplayFallback(t *testing.T) {
	data := make([]int, 4000)
	for i := range data {
		data[i] = i % 5
	}
	rep, err := NewReplay(5, data)
	if err != nil {
		t.Fatal(err)
	}
	c := DrawCountsWith(rep, rng.New(9), 100, CountClosedForm)
	defer c.Release()
	if c.Total() == 0 || int64(c.Total()) != rep.Samples() {
		t.Fatalf("replay fallback: %d tallied, %d drawn", c.Total(), rep.Samples())
	}
}

// TestClosedFormBudgetAccounting pins the Samples() contract: every
// closed-form batch folds its realized total into the counter exactly,
// matching the tally, across a mean sweep covering singleton-only,
// sparse, mixed, and fully dense regimes.
func TestClosedFormBudgetAccounting(t *testing.T) {
	s := NewSampler(mixedHistogram(), rng.New(11))
	r := rng.New(12)
	var want int64
	for _, mean := range []float64{0.5, 3, 20, 100, 1000, 20000} {
		for i := 0; i < 10; i++ {
			c := s.DrawPoissonCountsClosedForm(r, mean)
			want += int64(c.Total())
			if s.Samples() != want {
				t.Fatalf("mean %v: Samples() = %d, want %d", mean, s.Samples(), want)
			}
			c.Release()
		}
	}
}

// TestClosedFormTotalIsPoisson: the realized batch total is Poisson(mean)
// exactly (a sum of independent Poissons over the runs), checked by
// moments at fixed seed.
func TestClosedFormTotalIsPoisson(t *testing.T) {
	s := NewSampler(mixedHistogram(), rng.New(13))
	r := rng.New(14)
	const mean = 100.0
	const reps = 4000
	var sum, sumsq float64
	for i := 0; i < reps; i++ {
		c := s.DrawPoissonCountsClosedForm(r, mean)
		x := float64(c.Total())
		sum += x
		sumsq += x * x
		c.Release()
	}
	m := sum / reps
	v := sumsq/reps - m*m
	if math.Abs(m-mean) > 5*math.Sqrt(mean/reps) {
		t.Errorf("total mean %v, want %v", m, mean)
	}
	if math.Abs(v-mean) > 0.15*mean {
		t.Errorf("total variance %v, want %v", v, mean)
	}
}

// TestClosedFormMarginalsChiSquare is the fixed-seed χ² goodness-of-fit
// pin of the per-bin marginals: counts aggregated over R closed-form
// batches are Poisson(R·mean·p_i) per bin, so the standardized squared
// deviations summed over the domain follow χ²₆₄. The threshold is the
// 5σ tail of χ²₆₄ — at a fixed seed this either passes forever or marks
// a real distributional break.
func TestClosedFormMarginalsChiSquare(t *testing.T) {
	d := mixedHistogram()
	s := NewSampler(d, rng.New(17))
	r := rng.New(18)
	const mean = 100.0
	const reps = 500
	agg := make([]float64, 64)
	for i := 0; i < reps; i++ {
		c := s.DrawPoissonCountsClosedForm(r, mean)
		for b := 0; b < 64; b++ {
			agg[b] += float64(c.Of(b))
		}
		c.Release()
	}
	x2 := 0.0
	for b := 0; b < 64; b++ {
		e := reps * mean * d.Prob(b)
		x2 += (agg[b] - e) * (agg[b] - e) / e
	}
	// χ²₆₄: mean 64, variance 128; 64 + 5√128 ≈ 121.
	if limit := 64 + 5*math.Sqrt(128); x2 > limit {
		t.Fatalf("marginal χ² = %.1f over 64 bins, limit %.1f", x2, limit)
	}
}

// TestClosedFormMatchesExactHomogeneity is the two-sample equivalence
// pin: per-bin aggregates from R exact batches and R closed-form batches
// (independent streams, same Poisson(R·mean·p_i) law) must pass a χ²
// homogeneity test. A bias in either synthesis path — a run placed off
// by one, a weight normalized wrong, a dense/sparse boundary dropping
// mass — shows up as a hard failure here.
func TestClosedFormMatchesExactHomogeneity(t *testing.T) {
	const mean = 100.0
	const reps = 500
	aggregate := func(seedS, seedR uint64, cs CountStrategy) []float64 {
		s := NewSampler(mixedHistogram(), rng.New(seedS))
		r := rng.New(seedR)
		agg := make([]float64, 64)
		for i := 0; i < reps; i++ {
			c := DrawCountsWith(s, r, mean, cs)
			for b := 0; b < 64; b++ {
				agg[b] += float64(c.Of(b))
			}
			c.Release()
		}
		return agg
	}
	ex := aggregate(19, 20, CountExact)
	cf := aggregate(21, 22, CountClosedForm)
	x2 := 0.0
	for b := 0; b < 64; b++ {
		if ex[b]+cf[b] == 0 {
			continue
		}
		diff := ex[b] - cf[b]
		x2 += diff * diff / (ex[b] + cf[b])
	}
	if limit := 64 + 5*math.Sqrt(128); x2 > limit {
		t.Fatalf("homogeneity χ² = %.1f over 64 bins, limit %.1f", x2, limit)
	}
}

// TestClosedFormRunTotalMoments checks each run's aggregated total
// against its Poisson(mean·w_j) law — mean and variance — covering the
// dense per-element thinning (whose run total is the sum of the
// per-element Poissons) and the sparse single-Poisson path.
func TestClosedFormRunTotalMoments(t *testing.T) {
	d := mixedHistogram()
	s := NewSampler(d, rng.New(23))
	r := rng.New(24)
	const mean = 100.0
	const reps = 3000
	bounds := [][2]int{{0, 1}, {1, 8}, {8, 32}, {32, 64}}
	weights := []float64{0.30, 0.20, 0.25, 0.25}
	sums := make([]float64, 4)
	sumsqs := make([]float64, 4)
	for i := 0; i < reps; i++ {
		c := s.DrawPoissonCountsClosedForm(r, mean)
		for j, b := range bounds {
			total := 0.0
			for x := b[0]; x < b[1]; x++ {
				total += float64(c.Of(x))
			}
			sums[j] += total
			sumsqs[j] += total * total
		}
		c.Release()
	}
	for j, w := range weights {
		tj := mean * w
		m := sums[j] / reps
		v := sumsqs[j]/reps - m*m
		if math.Abs(m-tj) > 5*math.Sqrt(tj/reps) {
			t.Errorf("run %d: total mean %v, want %v", j, m, tj)
		}
		if math.Abs(v-tj) > 0.2*tj {
			t.Errorf("run %d: total variance %v, want %v", j, v, tj)
		}
	}
}

// TestClosedFormBackingPaths: the pooled Counts backing picks the same
// dense/sparse crossover as the per-draw path — dense at sample sizes
// comparable to the domain, sparse far below it — and distinct/total
// bookkeeping stays consistent on both.
func TestClosedFormBackingPaths(t *testing.T) {
	s := NewSampler(mixedHistogram(), rng.New(29))
	r := rng.New(30)
	dense := s.DrawPoissonCountsClosedForm(r, 5000)
	if !dense.Dense() {
		t.Error("mean 50×n should use the dense backing")
	}
	sparse := s.DrawPoissonCountsClosedForm(r, 0.25)
	if sparse.Dense() {
		t.Error("mean ≪ n/64 should use the sparse backing")
	}
	for _, c := range []*Counts{dense, sparse} {
		total, distinct := 0, 0
		for b := 0; b < 64; b++ {
			if v := c.Of(b); v > 0 {
				total += v
				distinct++
			}
		}
		if total != c.Total() || distinct != c.Distinct() {
			t.Errorf("bookkeeping: summed %d/%d, reported %d/%d",
				total, distinct, c.Total(), c.Distinct())
		}
		c.Release()
	}
}

// TestClosedFormForkIsolation: forks share the immutable tables but not
// the synthesis scratch — interleaved closed-form batches on a parent
// and its clone stay well-formed and account independently.
func TestClosedFormForkIsolation(t *testing.T) {
	parent := NewSampler(mixedHistogram(), rng.New(31))
	clone := parent.Fork(rng.New(32)).(*Sampler)
	r1, r2 := rng.New(33), rng.New(34)
	for i := 0; i < 50; i++ {
		a := parent.DrawPoissonCountsClosedForm(r1, 100)
		b := clone.DrawPoissonCountsClosedForm(r2, 3)
		if a.Total() < 0 || b.Total() < 0 {
			t.Fatal("impossible")
		}
		a.Release()
		b.Release()
	}
	if parent.Samples() == 0 || clone.Samples() == 0 {
		t.Fatal("both lineages should have drawn")
	}
	parentDrawn := parent.Samples()
	parent.Absorb(clone.Samples())
	if parent.Samples() != parentDrawn+clone.Samples() {
		t.Fatal("Absorb lost clone draws")
	}
}

// TestClosedFormSingletonDomain: a domain of isolated singleton runs
// (every width 1) takes the run-total path exclusively and must still
// reproduce the marginals.
func TestClosedFormSingletonDomain(t *testing.T) {
	d := dist.MustDense([]float64{0.1, 0.4, 0.2, 0.3})
	s := NewSampler(d, rng.New(37))
	r := rng.New(38)
	const mean = 50.0
	const reps = 2000
	agg := make([]float64, 4)
	for i := 0; i < reps; i++ {
		c := s.DrawPoissonCountsClosedForm(r, mean)
		for b := 0; b < 4; b++ {
			agg[b] += float64(c.Of(b))
		}
		c.Release()
	}
	for b := 0; b < 4; b++ {
		e := reps * mean * d.Prob(b)
		if math.Abs(agg[b]-e) > 5*math.Sqrt(e) {
			t.Errorf("singleton bin %d: %v, want %v", b, agg[b], e)
		}
	}
}

// TestPoissonRunMatchesPoisson holds the closed form's dense-run kernel
// to width calls of rng.Poisson(λ) on the sampler stream: the same
// counts, total and stream position at λ on both sides of the
// inversion's λ < 10 boundary, at λ = 0, and at tiny λ, in chunks that
// do not divide the run.
func TestPoissonRunMatchesPoisson(t *testing.T) {
	const width = 4096
	for _, lam := range []float64{0, 1e-3, 0.5, 1, 2.05, 9.999, 10, 14.6} {
		s := NewSampler(dist.Uniform(width), rng.New(5))
		got := NewDenseCounts(width, nil)
		drawn := s.poissonRun(got, 0, width, lam, make([]int, 1000))

		ref := rng.New(5)
		want := NewDenseCounts(width, nil)
		for i := 0; i < width; i++ {
			if ci := ref.Poisson(lam); ci > 0 {
				want.bumpN(i, ci)
			}
		}
		if drawn != want.Total() || got.Total() != want.Total() || got.Distinct() != want.Distinct() {
			t.Fatalf("λ=%v: drawn/Total/Distinct %d/%d/%d, rng.Poisson %d/%d", lam, drawn, got.Total(), got.Distinct(), want.Total(), want.Distinct())
		}
		for i := 0; i < width; i++ {
			if got.Of(i) != want.Of(i) {
				t.Fatalf("λ=%v: element %d count %d, rng.Poisson %d", lam, i, got.Of(i), want.Of(i))
			}
		}
		if a, b := s.r.Uint64(), ref.Uint64(); a != b {
			t.Fatalf("λ=%v: next Uint64 %#x, rng.Poisson stream %#x", lam, a, b)
		}
	}
}
