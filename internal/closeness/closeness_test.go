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

func TestStatisticZeroMeanUnderNull(t *testing.T) {
	r := rng.New(1)
	d := dist.Uniform(256)
	const m = 2000.0
	sum := 0.0
	const reps = 300
	for i := 0; i < reps; i++ {
		px := oracle.NewSampler(d, r)
		py := oracle.NewSampler(d, r)
		x := oracle.NewCounts(256, oracle.DrawPoisson(px, r, m))
		y := oracle.NewCounts(256, oracle.DrawPoisson(py, r, m))
		sum += Statistic(x, y)
	}
	avg := sum / reps
	if math.Abs(avg) > 2 {
		t.Fatalf("null mean Z = %v, want ~0", avg)
	}
}

func TestStatisticPositiveWhenFar(t *testing.T) {
	r := rng.New(2)
	n := 256
	p := dist.Uniform(n)
	qv := make([]float64, n)
	for i := range qv {
		if i < n/2 {
			qv[i] = 1.5 / float64(n)
		} else {
			qv[i] = 0.5 / float64(n)
		}
	}
	q := dist.MustDense(qv)
	const m = 5000.0
	sum := 0.0
	const reps = 100
	for i := 0; i < reps; i++ {
		x := oracle.NewCounts(n, oracle.DrawPoisson(oracle.NewSampler(p, r), r, m))
		y := oracle.NewCounts(n, oracle.DrawPoisson(oracle.NewSampler(q, r), r, m))
		sum += Statistic(x, y)
	}
	avg := sum / reps
	if avg < 100 {
		t.Fatalf("far-mean Z = %v, want large positive", avg)
	}
}

func TestStatisticSymmetry(t *testing.T) {
	x := oracle.NewCounts(8, []int{0, 0, 1, 3, 3})
	y := oracle.NewCounts(8, []int{1, 1, 2, 3})
	if a, b := Statistic(x, y), Statistic(y, x); math.Abs(a-b) > 1e-12 {
		t.Fatalf("statistic not symmetric: %v vs %v", a, b)
	}
}

func TestStatisticHandlesDisjointSupports(t *testing.T) {
	x := oracle.NewCounts(8, []int{0, 0, 0})
	y := oracle.NewCounts(8, []int{5, 5, 5})
	// Each side: ((3−0)²−3)/3 = 2 for x's element, same for y's.
	if got := Statistic(x, y); math.Abs(got-4) > 1e-12 {
		t.Fatalf("disjoint-support Z = %v, want 4", got)
	}
}

func TestCloseAccepts(t *testing.T) {
	r := rng.New(3)
	d := gen.Zipf(512, 1.1)
	accepts := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		px := oracle.NewSampler(d, r)
		py := oracle.NewSampler(d, r)
		if fullDomain(t, px, py, r, 0.3, DefaultParams()).Accept {
			accepts++
		}
	}
	if accepts < trials*3/4 {
		t.Fatalf("null accepted only %d/%d", accepts, trials)
	}
}

func TestFarRejects(t *testing.T) {
	r := rng.New(4)
	n := 512
	p := dist.Uniform(n)
	q, _ := gen.BlockComb(dist.Uniform(n), 64, 0.35)
	rejects := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		px := oracle.NewSampler(p, r)
		py := oracle.NewSampler(q, r)
		if !fullDomain(t, px, py, r, 0.3, DefaultParams()).Accept {
			rejects++
		}
	}
	if rejects < trials*3/4 {
		t.Fatalf("far pair rejected only %d/%d", rejects, trials)
	}
}

func TestSampleMeanScaling(t *testing.T) {
	p := DefaultParams()
	// Small ε: the √n/ε² branch dominates; large ε: the n^{2/3} branch.
	small := p.SampleMean(1<<12, 0.05)
	wantSmall := p.MFactor * math.Sqrt(1<<12) / (0.05 * 0.05)
	if math.Abs(small-wantSmall) > 1e-6 {
		t.Fatalf("small-ε mean = %v, want %v", small, wantSmall)
	}
	big := p.SampleMean(1<<12, 0.9)
	wantBig := p.MFactor * math.Pow(1<<12, 2.0/3.0) / math.Pow(0.9, 4.0/3.0)
	if math.Abs(big-wantBig) > 1e-6 {
		t.Fatalf("large-ε mean = %v, want %v", big, wantBig)
	}
}

func TestMismatchedDomainsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Statistic(oracle.NewCounts(4, nil), oracle.NewCounts(5, nil))
}

// fullDomain runs the full-domain [CDVV14] test on one Poissonized batch
// per side: TestTwoSample at k = n (no reduction) with Reps = 1.
func fullDomain(t *testing.T, px, py oracle.Oracle, r *rng.RNG, eps float64, chi Params) *TwoSampleResult {
	t.Helper()
	res, err := TestTwoSample(context.Background(), px, py, r, px.N(), eps, Config{Chi: chi, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFullDomainPins pins the full-domain path to the one-batch test it
// replaced: verdict, Z, threshold, Poisson mean and per-side draws were
// recorded from that test on these seeds. n = 2²² at ε = 0.9 tallies on
// the sparse backing, every other row on the dense one.
func TestFullDomainPins(t *testing.T) {
	pins := []struct {
		n         int
		eps       float64
		far       bool
		accept    bool
		z, thr, m float64
		x, y      int64
	}{
		{64, 0.5, false, true, -2.0238095238095237, 26.664583251946766, 80.63494719327187, 85, 78},
		{64, 0.5, true, false, 36.96926406926407, 17.492855684535904, 80.63494719327187, 71, 79},
		{64, 0.9, false, true, 4.2, 21, 36.826459329823514, 29, 39},
		{64, 0.9, true, true, 12, 18.49324200890693, 36.826459329823514, 26, 40},
		{16384, 0.5, false, true, 2.8434255630849066, 205.6915165970634, 3250.9973544308714, 3241, 3283},
		{16384, 0.5, true, false, 966.8184593184592, 185.70945048650594, 3250.9973544308714, 3211, 3256},
		{16384, 0.9, false, true, 2.533333333333246, 153.26447729333762, 1484.7498016877464, 1529, 1516},
		{16384, 0.9, true, true, 113.53333333333332, 150.449327017438, 1484.7498016877464, 1451, 1476},
		{4194304, 0.5, false, true, -125.20750950715728, 1243.4050024026765, 131071.99999999994, 131302, 131363},
		{4194304, 0.5, true, false, 2646.666666666663, 1511.8749948325753, 131071.99999999994, 131224, 130674},
		{4194304, 0.9, false, true, 81.33333333333508, 1030.9966052320444, 59861.360927156165, 59867, 60541},
		{4194304, 0.9, true, true, 558.9999999999997, 1031.8691777546221, 59861.360927156165, 60027, 59990},
	}
	for _, p := range pins {
		seed := uint64(p.n) ^ uint64(p.eps*10)<<40
		if p.far {
			seed ^= 1 << 50
		}
		d := gen.KHistogram(rng.New(seed), p.n, 4)
		var q dist.Distribution = d
		if p.far {
			q, _ = gen.BlockComb(d, 16, 0.5)
		}
		px, py := oracle.NewSampler(d, rng.New(seed+1)), oracle.NewSampler(q, rng.New(seed+2))
		res := fullDomain(t, px, py, rng.New(seed+3), p.eps, DefaultParams())
		if res.Accept != p.accept || res.Z != p.z || res.Threshold != p.thr || res.M != p.m || res.SamplesX != p.x || res.SamplesY != p.y {
			t.Errorf("n=%d ε=%v far=%v: got accept=%v Z=%v thr=%v m=%v draws %d/%d, want %+v",
				p.n, p.eps, p.far, res.Accept, res.Z, res.Threshold, res.M, res.SamplesX, res.SamplesY, p)
		}
	}
}
