package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// threeHistogram returns a well-separated 3-histogram over [0, n).
func threeHistogram(n int) *dist.PiecewiseConstant {
	return dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: n / 4}, Mass: 0.55},
		{Iv: intervals.Interval{Lo: n / 4, Hi: n / 2}, Mass: 0.10},
		{Iv: intervals.Interval{Lo: n / 2, Hi: n}, Mass: 0.35},
	})
}

// comb returns the alternating comb over [0, n): mass 2/n on even
// elements, 0 on odd. Its distance to H_k is ~(1/2)(1 − k/n) — far from
// every small-k histogram.
func comb(n int) *dist.PiecewiseConstant {
	pieces := make([]dist.Piece, n)
	for i := 0; i < n; i++ {
		m := 0.0
		if i%2 == 0 {
			m = 2.0 / float64(n)
		}
		pieces[i] = dist.Piece{Iv: intervals.Interval{Lo: i, Hi: i + 1}, Mass: m}
	}
	return dist.MustPiecewiseConstant(n, pieces)
}

// acceptRate runs the tester trials times on fresh samplers of d.
func acceptRate(t *testing.T, d dist.Distribution, k int, eps float64, cfg Config, trials int, seed uint64) float64 {
	t.Helper()
	r := rng.New(seed)
	accepts := 0
	for i := 0; i < trials; i++ {
		s := oracle.NewSampler(d, r)
		res, err := Test(s, r, k, eps, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if res.Accept {
			accepts++
		}
	}
	return float64(accepts) / float64(trials)
}

func TestCompletenessUniform(t *testing.T) {
	// The uniform distribution is a 1-histogram; test with k = 1.
	rate := acceptRate(t, dist.Uniform(512), 1, 0.5, PracticalConfig(), 15, 1)
	if rate < 0.75 {
		t.Fatalf("uniform accept rate = %v, want >= 0.75", rate)
	}
}

func TestCompletenessThreeHistogram(t *testing.T) {
	rate := acceptRate(t, threeHistogram(512), 3, 0.5, PracticalConfig(), 15, 2)
	if rate < 0.7 {
		t.Fatalf("3-histogram accept rate = %v, want >= 0.7", rate)
	}
}

func TestCompletenessSlackK(t *testing.T) {
	// Testing a 3-histogram with k = 8 must also accept (H_3 ⊆ H_8).
	rate := acceptRate(t, threeHistogram(512), 8, 0.5, PracticalConfig(), 10, 3)
	if rate < 0.7 {
		t.Fatalf("slack-k accept rate = %v, want >= 0.7", rate)
	}
}

func TestSoundnessComb(t *testing.T) {
	// The comb is ~0.5-far from H_4.
	rate := acceptRate(t, comb(512), 4, 0.45, PracticalConfig(), 15, 4)
	if rate > 0.25 {
		t.Fatalf("comb accept rate = %v, want <= 0.25", rate)
	}
}

func TestSoundnessUniformVsManyBins(t *testing.T) {
	// A 64-piece staircase tested against k = 2 with a large gap.
	n := 512
	pieces := make([]dist.Piece, 64)
	total := 0.0
	w := n / 64
	for j := range pieces {
		mass := float64((j % 4) + 1) // strongly non-monotone staircase
		pieces[j] = dist.Piece{Iv: intervals.Interval{Lo: j * w, Hi: (j + 1) * w}, Mass: mass}
		total += mass
	}
	for j := range pieces {
		pieces[j].Mass /= total
	}
	d := dist.MustPiecewiseConstant(n, pieces)
	// Distance to H_2: the best 2-histogram is ~the overall mean; TV ~0.3.
	rate := acceptRate(t, d, 2, 0.25, PracticalConfig(), 15, 5)
	if rate > 0.25 {
		t.Fatalf("staircase accept rate = %v, want <= 0.25", rate)
	}
}

func TestTrivialAcceptKGeqN(t *testing.T) {
	r := rng.New(6)
	s := oracle.NewSampler(comb(32), r)
	res, err := Test(s, r, 32, 0.1, PracticalConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accept {
		t.Fatal("k >= n must accept")
	}
	if s.Samples() != 0 {
		t.Fatalf("trivial accept drew %d samples", s.Samples())
	}
}

func TestInputValidation(t *testing.T) {
	r := rng.New(7)
	s := oracle.NewSampler(dist.Uniform(16), r)
	if _, err := Test(s, r, 0, 0.5, PracticalConfig()); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, err := Test(s, r, 1, 0, PracticalConfig()); err == nil {
		t.Fatal("eps = 0 accepted")
	}
	if _, err := Test(s, r, 1, 1.5, PracticalConfig()); err == nil {
		t.Fatal("eps > 1 accepted")
	}
}

func TestTraceAccounting(t *testing.T) {
	r := rng.New(8)
	s := oracle.NewSampler(threeHistogram(256), r)
	res, err := Test(s, r, 3, 0.5, PracticalConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.TotalSamples() != s.Samples() {
		t.Fatalf("trace total %d != oracle count %d", tr.TotalSamples(), s.Samples())
	}
	if tr.PartitionSamples <= 0 || tr.LearnSamples <= 0 || tr.SieveSamples <= 0 {
		t.Fatalf("stage samples not recorded: %+v", tr)
	}
	if tr.K <= 0 || tr.N != 256 {
		t.Fatalf("trace metadata wrong: %+v", tr)
	}
	if res.Learned == nil || res.Domain == nil {
		t.Fatal("result missing hypothesis or domain")
	}
}

func TestSieveRemovesBreakpointIntervals(t *testing.T) {
	// A 2-histogram with a violent jump: the partition interval containing
	// the jump is a breakpoint interval the sieve should remove (or the
	// tester must still accept by some other path).
	n := 512
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 300}, Mass: 0.9},
		{Iv: intervals.Interval{Lo: 300, Hi: n}, Mass: 0.1},
	})
	rate := acceptRate(t, d, 2, 0.5, PracticalConfig(), 15, 9)
	if rate < 0.7 {
		t.Fatalf("jumpy 2-histogram accept rate = %v, want >= 0.7", rate)
	}
}

func TestRejectReasonsPopulated(t *testing.T) {
	r := rng.New(10)
	// Run the comb until a rejection appears, then check the trace.
	for i := 0; i < 10; i++ {
		s := oracle.NewSampler(comb(512), r)
		res, err := Test(s, r, 3, 0.45, PracticalConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accept {
			if res.Trace.RejectStage == "" || res.Trace.RejectReason == "" {
				t.Fatalf("rejection without stage/reason: %+v", res.Trace)
			}
			return
		}
	}
	t.Fatal("comb never rejected in 10 tries")
}

func TestSieveHeavyRejectionPath(t *testing.T) {
	// A fine comb against k=1: far more than k intervals carry heavy χ²,
	// so the stage-1 sieve should trip often.
	r := rng.New(40)
	n := 512
	d := comb(n)
	heavySeen := false
	for i := 0; i < 10 && !heavySeen; i++ {
		s := oracle.NewSampler(d, r.Split())
		res, err := Test(s, r, 1, 0.4, PracticalConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Accept {
			t.Fatal("comb accepted at k=1")
		}
		if res.Trace.RejectStage == StageSieveHeavy {
			heavySeen = true
		}
	}
	if !heavySeen {
		t.Fatal("stage-1 heavy rejection never triggered on the comb")
	}
}

func TestCheckRejectionPath(t *testing.T) {
	// Sprinkled heavy spikes (the E12 instance): ApproxPart isolates every
	// atom, the sieve sees nothing, and the Step-10 check must carry the
	// rejection.
	r := rng.New(41)
	n := 1024
	const ell = 30
	p := make([]float64, n)
	perm := r.Perm(n)
	for i := 0; i < ell; i++ {
		p[perm[i]] = 1.0 / ell
	}
	d := dist.MustDense(p)
	checkSeen := 0
	const trials = 8
	for i := 0; i < trials; i++ {
		s := oracle.NewSampler(d, r.Split())
		res, err := Test(s, r, 2, 0.45, PracticalConfig())
		if err != nil {
			t.Fatal(err)
		}
		if res.Accept {
			t.Fatal("spikes accepted at k=2")
		}
		if res.Trace.RejectStage == StageCheck {
			checkSeen++
			if res.Trace.CheckRelaxed <= 0.45/PracticalConfig().CheckTolDivisor {
				t.Fatal("check rejection with in-tolerance distance")
			}
		}
	}
	if checkSeen < trials/2 {
		t.Fatalf("check-stage rejection carried only %d/%d runs", checkSeen, trials)
	}
}

func TestScaleConfig(t *testing.T) {
	cfg := PracticalConfig()
	half := cfg.Scale(0.5)
	if math.Abs(half.SieveMFactor-cfg.SieveMFactor/2) > 1e-12 {
		t.Fatal("Scale did not halve the sieve budget")
	}
	if math.Abs(half.Chi.MFactor-cfg.Chi.MFactor/2) > 1e-12 {
		t.Fatal("Scale did not halve the test budget")
	}
	if half.SieveHeavyFactor != cfg.SieveHeavyFactor {
		t.Fatal("Scale must not change thresholds")
	}
	// Scaled-down tester draws fewer samples.
	if ExpectedSamples(1024, 4, 0.5, half) >= ExpectedSamples(1024, 4, 0.5, cfg) {
		t.Fatal("scaled config should predict fewer samples")
	}
}

// TestExpectedSamplesSaturates: as ε → 0 the stage budgets outgrow an
// int. The estimate saturates instead of wrapping into a small or
// negative count, so the budget guard refuses the run instead of
// starting one it cannot size.
func TestExpectedSamplesSaturates(t *testing.T) {
	for _, eng := range Engines() {
		cfg := PracticalConfig()
		cfg.Engine = eng
		for _, eps := range []float64{1e-6, 1e-9, 1e-20, 5e-324} {
			if est := ExpectedSamples(16, 2, eps, cfg); est != math.MaxInt64 {
				t.Fatalf("%s, eps=%g: ExpectedSamples = %d, want saturation at MaxInt64", eng, eps, est)
			}
			o := oracle.NewSampler(threeHistogram(16), rng.New(1))
			if _, err := Test(o, rng.New(2), 2, eps, cfg); err == nil || o.Samples() != 0 {
				t.Fatalf("%s, eps=%g: err = %v after %d draws, want the budget guard before any draw", eng, eps, err, o.Samples())
			}
		}
	}
}

func TestExpectedSamplesGrowsWithN(t *testing.T) {
	cfg := PracticalConfig()
	a := ExpectedSamples(1<<10, 4, 0.5, cfg)
	b := ExpectedSamples(1<<14, 4, 0.5, cfg)
	if b <= a {
		t.Fatalf("expected samples must grow with n: %d vs %d", a, b)
	}
	// The growth should be ~√16 = 4 on the sieve-dominated part, far less
	// than linear (16×).
	if b >= 12*a {
		t.Fatalf("expected-sample growth looks linear: %d vs %d", a, b)
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := PracticalConfig()
	if cfg.PartB(1, 1) < 1 {
		t.Fatal("PartB floor violated")
	}
	if got := cfg.Alpha(0.48); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("Alpha = %v", got)
	}
	if cfg.SieveRounds(1) < 1 || cfg.SieveRounds(64) < 6 {
		t.Fatal("SieveRounds too small")
	}
	if PaperConfig().sieveReps(8)%2 != 1 {
		t.Fatal("derived reps should be odd")
	}
}
