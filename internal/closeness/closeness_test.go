package closeness

import (
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
		if Test(px, py, r, 0.3, DefaultParams()).Accept {
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
		if !Test(px, py, r, 0.3, DefaultParams()).Accept {
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
	r := rng.New(6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Test(oracle.NewSampler(dist.Uniform(4), r), oracle.NewSampler(dist.Uniform(5), r), r, 0.3, DefaultParams())
}
