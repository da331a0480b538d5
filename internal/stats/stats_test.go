package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{1, 2, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-5, 10}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Fatalf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Median mutated its input")
	}
}

func TestMedianPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Median(nil)
}

func TestMedianBoundsProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 1+r.Intn(20))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = r.Float64()*10 - 5
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		m := Median(xs)
		return m >= lo && m <= hi
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMedianOfAmplifies(t *testing.T) {
	// A trial that is right (returns 1) with prob 0.7 and wrong (returns
	// 100) otherwise: the median of 25 reps should essentially always be 1.
	r := rng.New(1)
	wrong := 0
	for round := 0; round < 200; round++ {
		trials := make([]float64, 25)
		for i := range trials {
			trials[i] = 100
			if r.Bernoulli(0.7) {
				trials[i] = 1
			}
		}
		if Median(trials) != 1 {
			wrong++
		}
	}
	if wrong > 6 {
		t.Fatalf("median amplification failed %d/200 rounds", wrong)
	}
}

func TestRepsForConfidence(t *testing.T) {
	if RepsForConfidence(0.4) != 1 {
		t.Fatal("weak delta should need one rep")
	}
	r := RepsForConfidence(0.01)
	if r%2 == 0 {
		t.Fatal("reps should be odd")
	}
	if r < 18*4 || r > 18*5+2 {
		t.Fatalf("RepsForConfidence(0.01) = %d, expected ~83", r)
	}
	// Monotone: smaller delta needs more reps.
	if RepsForConfidence(0.001) <= r {
		t.Fatal("reps not monotone in confidence")
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", got)
	}
	if Variance([]float64{42}) != 0 {
		t.Fatal("single-point variance should be 0")
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatal("zero trials should give [0,1]")
	}
	lo, hi = Wilson(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("Wilson(50/100) = [%v,%v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("Wilson interval too wide: %v", hi-lo)
	}
	// Extreme proportions stay in [0,1].
	lo, hi = Wilson(100, 100, 1.96)
	if lo < 0.9 || hi < 1-1e-9 {
		t.Fatalf("Wilson(100/100) = [%v,%v]", lo, hi)
	}
	lo, hi = Wilson(0, 100, 1.96)
	if lo != 0 || hi > 0.1 {
		t.Fatalf("Wilson(0/100) = [%v,%v]", lo, hi)
	}
}

func TestWilsonCoverage(t *testing.T) {
	// Monte-Carlo: the 95% interval should cover the true p most of the time.
	r := rng.New(3)
	const p, trials, rounds = 0.3, 200, 300
	miss := 0
	for round := 0; round < rounds; round++ {
		succ := r.Binomial(trials, p)
		lo, hi := Wilson(succ, trials, 1.96)
		if p < lo || p > hi {
			miss++
		}
	}
	if miss > rounds/10 {
		t.Fatalf("Wilson interval missed %d/%d", miss, rounds)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatalf("median quantile = %v", Quantile(xs, 0.5))
	}
}
