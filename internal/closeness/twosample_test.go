package closeness

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// yesPair returns two independent sampler handles over the SAME k-histogram.
func yesPair(r *rng.RNG, n, k int) (*oracle.Sampler, *oracle.Sampler) {
	d := gen.KHistogram(r, n, k)
	return oracle.NewSampler(d, r.Split()), oracle.NewSampler(d, r.Split())
}

// noPair returns sampler handles over a k-histogram and a block-comb
// perturbation of it at TV distance >= target.
func noPair(r *rng.RNG, n, k int, target float64) (*oracle.Sampler, *oracle.Sampler, float64) {
	d := gen.KHistogram(r, n, k)
	var far *dist.PiecewiseConstant
	var got float64
	for delta := target; delta <= 1; delta += target / 4 {
		far, got = gen.BlockComb(d, 64, delta)
		if got >= target {
			break
		}
	}
	if got < target {
		panic("noPair: could not reach target distance")
	}
	return oracle.NewSampler(d, r.Split()), oracle.NewSampler(far, r.Split()), got
}

func TestTwoSampleValidation(t *testing.T) {
	r := rng.New(1)
	cfg := DefaultConfig()
	px := oracle.NewSampler(dist.Uniform(64), r.Split())
	py := oracle.NewSampler(dist.Uniform(32), r.Split())
	if _, err := TestTwoSample(nil, px, py, r, 2, 0.5, cfg); err == nil {
		t.Fatal("mismatched domains accepted")
	}
	py = oracle.NewSampler(dist.Uniform(64), r.Split())
	if _, err := TestTwoSample(nil, px, py, r, 0, 0.5, cfg); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := TestTwoSample(nil, px, py, r, 2, 0, cfg); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := TestTwoSample(nil, px, py, r, 2, 1.5, cfg); err == nil {
		t.Fatal("eps>1 accepted")
	}
	small := cfg
	small.MaxSamples = 10
	if _, err := TestTwoSample(nil, px, py, r, 2, 0.5, small); err == nil {
		t.Fatal("budget guard did not fire")
	}
}

// TestTwoSampleWorkerBitIdentity is the determinism contract: the full
// result — verdict, statistics, and budget accounting — is bit-identical
// at every worker count, for both count strategies.
func TestTwoSampleWorkerBitIdentity(t *testing.T) {
	const n, k = 4096, 4
	const eps = 0.4
	for _, cs := range []oracle.CountStrategy{oracle.CountExact, oracle.CountClosedForm} {
		var want *TwoSampleResult
		for _, workers := range []int{0, 1, 2, 3, 4, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.CountStrategy = cs
			r := rng.New(7)
			px, py := yesPair(r, n, k)
			got, err := TestTwoSample(context.Background(), px, py, rng.New(42), k, eps, cfg)
			if err != nil {
				t.Fatalf("cs=%v workers=%d: %v", cs, workers, err)
			}
			if want == nil {
				want = got
				continue
			}
			if *got != *want {
				t.Fatalf("cs=%v workers=%d: result diverged:\n got %+v\nwant %+v", cs, workers, got, want)
			}
		}
	}
}

// TestTwoSampleStrategyInvariance: on a known sampler the closed-form
// count synthesis must not change the verdict structure (it changes the
// randomness consumption, so Z differs — but the reduction geometry and
// budget bookkeeping must match the exact path).
func TestTwoSampleStrategyInvariance(t *testing.T) {
	const n, k = 4096, 4
	const eps = 0.4
	run := func(cs oracle.CountStrategy) *TwoSampleResult {
		cfg := DefaultConfig()
		cfg.CountStrategy = cs
		r := rng.New(9)
		px, py := yesPair(r, n, k)
		res, err := TestTwoSample(context.Background(), px, py, rng.New(5), k, eps, cfg)
		if err != nil {
			t.Fatalf("cs=%v: %v", cs, err)
		}
		return res
	}
	exact := run(oracle.CountExact)
	closed := run(oracle.CountClosedForm)
	if exact.Intervals != closed.Intervals || exact.B != closed.B || exact.M != closed.M {
		t.Fatalf("reduction geometry diverged across strategies:\nexact  %+v\nclosed %+v", exact, closed)
	}
	if exact.PartitionSamples != closed.PartitionSamples {
		t.Fatalf("partition draws diverged: %d vs %d", exact.PartitionSamples, closed.PartitionSamples)
	}
}

func TestTwoSampleBudgetConservation(t *testing.T) {
	const n, k = 2048, 4
	const eps = 0.4
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		r := rng.New(11)
		px, py := yesPair(r, n, k)
		res, err := TestTwoSample(context.Background(), px, py, rng.New(3), k, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SamplesX+res.SamplesY != res.PartitionSamples+res.TestSamples {
			t.Fatalf("workers=%d: stage split %d+%d != side split %d+%d",
				workers, res.PartitionSamples, res.TestSamples, res.SamplesX, res.SamplesY)
		}
		if px.Samples() != res.SamplesX || py.Samples() != res.SamplesY {
			t.Fatalf("workers=%d: Absorb accounting off: oracles report %d/%d, result %d/%d",
				workers, px.Samples(), py.Samples(), res.SamplesX, res.SamplesY)
		}
		if res.SamplesX <= 0 || res.SamplesY <= 0 {
			t.Fatalf("workers=%d: empty side budget: %+v", workers, res)
		}
	}
}

// TestTwoSampleReduction: for k << n the reduced domain must actually be
// small (the whole point), and the ExpectedSamples estimate must not be
// wildly below the realized draw count.
func TestTwoSampleReduction(t *testing.T) {
	const n, k = 1 << 14, 4
	const eps = 0.4
	cfg := DefaultConfig()
	r := rng.New(13)
	px, py := yesPair(r, n, k)
	res, err := TestTwoSample(context.Background(), px, py, rng.New(2), k, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals >= n/4 {
		t.Fatalf("reduced domain K=%d not small vs n=%d", res.Intervals, n)
	}
	if res.B <= 0 {
		t.Fatalf("reduction reported disabled: %+v", res)
	}
	want := cfg.ExpectedSamples(n, k, eps)
	got := res.SamplesX + res.SamplesY
	if float64(got) > 4*float64(want) {
		t.Fatalf("realized budget %d far above nominal %d", got, want)
	}
}

// TestTwoSampleDegenerate: when k >= n (or the reduction can't shrink),
// the tester runs the plain full-domain test with zero partition draws.
func TestTwoSampleDegenerate(t *testing.T) {
	const n = 32
	cfg := DefaultConfig()
	r := rng.New(17)
	px := oracle.NewSampler(dist.Uniform(n), r.Split())
	py := oracle.NewSampler(dist.Uniform(n), r.Split())
	res, err := TestTwoSample(context.Background(), px, py, rng.New(4), n, 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != n || res.B != 0 || res.PartitionSamples != 0 {
		t.Fatalf("degenerate path not taken: %+v", res)
	}
	if !res.Accept {
		t.Fatalf("uniform vs uniform rejected: %+v", res)
	}
}

// TestTwoSampleSerialOracles: replay-backed (non-forkable) sources take
// the serial path regardless of Workers, and still yield a verdict.
func TestTwoSampleSerialOracles(t *testing.T) {
	const n, k = 512, 4
	const eps = 0.4
	cfg := DefaultConfig()
	cfg.Workers = 4
	r := rng.New(19)
	d := gen.KHistogram(r, n, k)
	// Materialize generous historical windows, then replay them.
	budget := cfg.ExpectedSamples(n, k, eps) * 4
	mk := func(seed uint64) *oracle.CountsReplay {
		src := oracle.NewSampler(d, rng.New(seed))
		c := oracle.AcquireCounts(n, int(budget))
		for i := int64(0); i < budget; i++ {
			c.AddN(src.Draw(), 1)
		}
		cr := oracle.NewCountsReplay(c, rng.New(seed^0x9e3779b9))
		c.Release()
		return cr
	}
	px, py := mk(100), mk(200)
	res, err := TestTwoSample(context.Background(), px, py, rng.New(6), k, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accept {
		t.Fatalf("same-distribution replay windows rejected: %+v", res)
	}
	// Serial path must match itself exactly on a fresh identical replay.
	px2, py2 := mk(100), mk(200)
	res2, err := TestTwoSample(context.Background(), px2, py2, rng.New(6), k, eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *res != *res2 {
		t.Fatalf("serial replay run not reproducible:\n got %+v\nwant %+v", res2, res)
	}
}

func TestTwoSampleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rng.New(23)
	px, py := yesPair(r, 2048, 4)
	if _, err := TestTwoSample(ctx, px, py, rng.New(8), 4, 0.4, DefaultConfig()); err == nil {
		t.Fatal("canceled context produced a verdict")
	}
}

// TestTwoSampleOCPin is the seed-pinned operating-characteristic
// regression mirroring the E6/cdkl22 pins: at seed 3 and the standard
// E6-style workload, the calibrated constants must accept every
// same-distribution pair and reject every ε-far pair. A constants or
// pipeline change that degrades the OC trips this before CI's experiment
// tier runs.
func TestTwoSampleOCPin(t *testing.T) {
	if testing.Short() {
		t.Skip("OC pin draws megasample batches")
	}
	const n, k = 2048, 4
	const eps = 0.4
	const trials = 12
	cfg := DefaultConfig()
	cfg.Workers = 4
	r := rng.New(3)
	yes, no := 0, 0
	for i := 0; i < trials; i++ {
		px, py := yesPair(r, n, k)
		res, err := TestTwoSample(context.Background(), px, py, r.Split(), k, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accept {
			yes++
		}
		px, py, _ = noPair(r, n, k, eps)
		res, err = TestTwoSample(context.Background(), px, py, r.Split(), k, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accept {
			no++
		}
	}
	if yes != trials || no != 0 {
		t.Fatalf("OC pin moved: yes=%d/%d (want %d), far accepts=%d (want 0)", yes, trials, trials, no)
	}
}

// TestTwoSampleSavesOverFullDomain pins the headline claim at a scale the
// unit tier can afford: the reduction's per-decision budget undercuts the
// naive full-domain [CDVV14] budget once n is large relative to k.
func TestTwoSampleSavesOverFullDomain(t *testing.T) {
	const k = 4
	const eps = 0.4
	cfg := DefaultConfig()
	naive := DefaultParams()
	nReduced := cfg.ExpectedSamples(1<<16, k, eps)
	nNaive := int64(cfg.reps()) * 2 * int64(math.Ceil(naive.SampleMean(1<<16, eps)))
	if nReduced >= nNaive {
		t.Fatalf("no asymptotic win: reduced budget %d >= naive %d at n=2^16", nReduced, nNaive)
	}
}

// TestExpectedSamplesSaturates: as ε → 0 the two-sample budget outgrows
// an int64. It saturates instead of wrapping, so the guard refuses the
// run before any draw instead of "accepting" on a wrapped budget.
func TestExpectedSamplesSaturates(t *testing.T) {
	for _, eps := range []float64{1e-9, 1e-20, 5e-324} {
		for _, n := range []int{16, 1 << 30} {
			if est := DefaultConfig().ExpectedSamples(n, 2, eps); est != math.MaxInt64 {
				t.Fatalf("n=%d, eps=%g: ExpectedSamples = %d, want saturation at MaxInt64", n, eps, est)
			}
		}
		px, py := yesPair(rng.New(1), 16, 2)
		if _, err := TestTwoSample(context.Background(), px, py, rng.New(2), 2, eps, DefaultConfig()); err == nil || px.Samples()+py.Samples() != 0 {
			t.Fatalf("eps=%g: err = %v after %d draws, want the budget guard before any draw", eps, err, px.Samples()+py.Samples())
		}
	}
}
