package gen

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/rng"
)

func TestKHistogramComplexity(t *testing.T) {
	r := rng.New(1)
	for _, k := range []int{1, 2, 5, 16} {
		for trial := 0; trial < 10; trial++ {
			d := KHistogram(r, 1024, k)
			if got := d.Compact().PieceCount(); got != k {
				t.Fatalf("k=%d: complexity = %d", k, got)
			}
			if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
				t.Fatal("not normalized")
			}
		}
	}
}

func TestKHistogramEdgeCases(t *testing.T) {
	r := rng.New(2)
	d := KHistogram(r, 8, 8)
	if d.N() != 8 {
		t.Fatal("wrong domain")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("k > n did not panic")
			}
		}()
		KHistogram(r, 4, 5)
	}()
}

func TestBlockCombDistance(t *testing.T) {
	r := rng.New(3)
	base := dist.Uniform(1024)
	out, achieved := BlockComb(base, 32, 0.25)
	if math.Abs(dist.TotalMass(out)-1) > 1e-9 {
		t.Fatal("mass not preserved")
	}
	// On the uniform base, no shift is capped: achieved distance = 0.25.
	if math.Abs(achieved-0.25) > 0.02 {
		t.Fatalf("achieved TV = %v, want ~0.25", achieved)
	}
	// And it must actually be far from small-k histograms.
	lower, _, err := histdp.DistanceToHk(out, 4, intervals.FullDomain(1024))
	if err != nil {
		t.Fatal(err)
	}
	if lower < 0.18 {
		t.Fatalf("distance to H_4 = %v, want >= 0.18", lower)
	}
	_ = r
}

func TestBlockCombZeroDelta(t *testing.T) {
	base := dist.Uniform(64)
	out, achieved := BlockComb(base, 8, 0)
	if achieved != 0 || dist.TV(base, out) > 1e-12 {
		t.Fatal("zero-delta comb changed the distribution")
	}
}

func TestBlockCombCapping(t *testing.T) {
	// All mass in the first block pair's B-side can be capped.
	d := dist.PointMass(64, 40) // element 40 is in some B block or A block
	out, achieved := BlockComb(d, 4, 0.4)
	if achieved > 1.0 {
		t.Fatalf("achieved = %v", achieved)
	}
	if math.Abs(dist.TotalMass(out)-1) > 1e-9 {
		t.Fatal("mass broken by capping")
	}
}

func TestFarFromHkIsFar(t *testing.T) {
	r := rng.New(4)
	d := FarFromHk(r, 2048, 4, 0.3, 64)
	lower, _, err := histdp.DistanceToHk(d, 4, intervals.FullDomain(2048))
	if err != nil {
		t.Fatal(err)
	}
	if lower < 0.2 {
		t.Fatalf("FarFromHk distance = %v, want >= 0.2", lower)
	}
}

func TestZipf(t *testing.T) {
	d := Zipf(1000, 1.2)
	if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
		t.Fatal("not normalized")
	}
	if d.Prob(0) <= d.Prob(1) || d.Prob(10) <= d.Prob(100) {
		t.Fatal("Zipf not decreasing")
	}
}

func TestGaussianMixture(t *testing.T) {
	d := GaussianMixture(512, []float64{100, 400}, []float64{20, 30}, []float64{1, 2})
	if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
		t.Fatal("not normalized")
	}
	// Modes should dominate the midpoint valley.
	if d.Prob(100) <= d.Prob(250) || d.Prob(400) <= d.Prob(250) {
		t.Fatal("mixture lacks modes")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched params did not panic")
			}
		}()
		GaussianMixture(16, []float64{1}, []float64{1, 2}, []float64{1})
	}()
}

func TestStaircase(t *testing.T) {
	d := Staircase(512, 64)
	if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
		t.Fatal("not normalized")
	}
	if got := d.Compact().PieceCount(); got < 32 {
		t.Fatalf("staircase collapsed to %d pieces", got)
	}
}

func TestPoissonPMF(t *testing.T) {
	d := PoissonPMF(256, 40)
	if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
		t.Fatal("not normalized")
	}
	if got := dist.Modality(d); got > 2 {
		t.Fatalf("modality = %d", got)
	}
	if math.Abs(dist.Mean(d)-40) > 1 {
		t.Fatalf("mean = %v, want ~40", dist.Mean(d))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("lambda<=0 did not panic")
			}
		}()
		PoissonPMF(16, 0)
	}()
}

func TestKModal(t *testing.T) {
	r := rng.New(6)
	for _, k := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 5; trial++ {
			d := KModal(r, 1024, k)
			if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
				t.Fatal("not normalized")
			}
			// k peaks → up/down per peak: modality (monotone-run count) is
			// at most 2k and at least k (separated tents may overlap and
			// merge occasionally, but at these widths they stay distinct).
			mod := dist.Modality(d)
			if mod < k || mod > 2*k {
				t.Fatalf("k=%d: modality = %d", k, mod)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("k too large did not panic")
			}
		}()
		KModal(r, 16, 8)
	}()
}

func TestComb(t *testing.T) {
	d := Comb(64)
	if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
		t.Fatal("not normalized")
	}
	lower, _, err := histdp.DistanceToHk(d, 2, intervals.FullDomain(64))
	if err != nil {
		t.Fatal(err)
	}
	if lower < 0.4 {
		t.Fatalf("comb distance to H_2 = %v", lower)
	}
}
