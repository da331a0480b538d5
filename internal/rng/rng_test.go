package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 64", same)
	}
}

func TestSeedReset(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(99)
	child := r.Split()
	// The child stream should not equal the parent's continued stream.
	equal := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("child stream tracks parent: %d/64 equal", equal)
	}
}

// TestNextMatchesUint64 holds the value-stepping form to the pointer
// method it mirrors: a million steps of Next against Uint64 from one
// seed must agree on every output and end in the same state.
func TestNextMatchesUint64(t *testing.T) {
	r := New(12345)
	g := *r
	for i := 0; i < 1_000_000; i++ {
		var x uint64
		x, g = g.Next()
		if want := r.Uint64(); x != want {
			t.Fatalf("step %d: Next %#x, Uint64 %#x", i, x, want)
		}
	}
	if g != *r {
		t.Fatalf("states differ after the walk: %+v vs %+v", g, *r)
	}
}

// TestPoissonFillMatchesPoisson holds PoissonFill to len(out) calls of
// Poisson at means on both sides of the inversion's boundary, at 0, and
// at means so small that e^−mean rounds to 1: the same variates and the
// same stream position.
func TestPoissonFillMatchesPoisson(t *testing.T) {
	for _, mean := range []float64{0, 5e-324, 1e-300, 1e-3, 0.5, 2.05, 9.999, 10, 14.6, 1e6} {
		r, ref := New(5), New(5)
		out := make([]int, 5000)
		r.PoissonFill(out, mean)
		for i, got := range out {
			if want := ref.Poisson(mean); got != want {
				t.Fatalf("mean %v, variate %d: PoissonFill %d, Poisson %d", mean, i, got, want)
			}
		}
		if *r != *ref {
			t.Fatalf("mean %v: stream positions differ", mean)
		}
	}
}

// TestPoissonFillRetriesAtOne covers the retry PoissonFill shares with
// Float64Open: an output whose top 53 bits are all ones maps to exactly
// 1, outside (0, 1), and is drawn again. The state is built so that its
// next output is all ones (s1 solved through the inverses of the
// output's multipliers 9 and 5).
func TestPoissonFillRetriesAtOne(t *testing.T) {
	inv := func(a uint64) uint64 { // a⁻¹ mod 2⁶⁴ for odd a, by Newton
		x := a
		for i := 0; i < 6; i++ {
			x *= 2 - a*x
		}
		return x
	}
	s1 := bits.RotateLeft64(math.MaxUint64*inv(9), -7) * inv(5)
	r := &RNG{s0: 1, s1: s1, s2: 2, s3: 3}
	if x, _ := r.Next(); x != math.MaxUint64 {
		t.Fatalf("constructed state yields %#x, want all ones", x)
	}
	ref := *r
	out := make([]int, 3)
	r.PoissonFill(out, 2)
	for i, got := range out {
		if want := ref.Poisson(2); got != want {
			t.Fatalf("variate %d: PoissonFill %d, Poisson %d", i, got, want)
		}
	}
	if *r != ref {
		t.Fatal("stream positions differ after the retried draw")
	}
}

func TestZeroStateGuard(t *testing.T) {
	r := &RNG{}
	r.s0, r.s1, r.s2, r.s3 = 0, 0, 0, 0
	// Seed path must never leave the all-zero fixed point; construct via Seed.
	r.Seed(0)
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		t.Fatal("seeding left all-zero state")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		g := r.Float64Open()
		if g <= 0 || g >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", g)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(6)
	const n, trials = 10, 200000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestBernoulliEdge(t *testing.T) {
	r := New(8)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(9)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

// meanVar returns the sample mean and variance of draws from f.
func meanVar(n int, f func() float64) (mean, variance float64) {
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := f()
		sum += x
		sumsq += x * x
	}
	mean = sum / float64(n)
	variance = sumsq/float64(n) - mean*mean
	return
}

func TestNormalMoments(t *testing.T) {
	r := New(10)
	mean, v := meanVar(200000, r.Normal)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("Normal mean = %v", mean)
	}
	if math.Abs(v-1) > 0.03 {
		t.Fatalf("Normal variance = %v", v)
	}
}

func TestExponentialMoments(t *testing.T) {
	r := New(11)
	mean, v := meanVar(200000, r.Exponential)
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exponential mean = %v", mean)
	}
	if math.Abs(v-1) > 0.05 {
		t.Fatalf("Exponential variance = %v", v)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(12)
	const p = 0.25
	mean, _ := meanVar(200000, func() float64 { return float64(r.Geometric(p)) })
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.05 {
		t.Fatalf("Geometric(%v) mean = %v, want %v", p, mean, want)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(13)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 0 {
			t.Fatalf("Geometric(1) = %d", g)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(14)
	for _, mean := range []float64{0.1, 1, 5, 9.99, 10, 25, 100, 1000, 12345.6} {
		m, v := meanVar(60000, func() float64 { return float64(r.Poisson(mean)) })
		tol := 5 * math.Sqrt(mean/60000) * math.Max(1, math.Sqrt(mean))
		// Poisson: mean == variance == mean parameter.
		if math.Abs(m-mean) > math.Max(tol, 0.02) {
			t.Fatalf("Poisson(%v) mean = %v", mean, m)
		}
		if math.Abs(v-mean) > math.Max(0.15*mean, 0.05) {
			t.Fatalf("Poisson(%v) variance = %v", mean, v)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	r := New(15)
	for i := 0; i < 100; i++ {
		if k := r.Poisson(0); k != 0 {
			t.Fatalf("Poisson(0) = %d", k)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(16)
	for _, mean := range []float64{0.001, 0.5, 10, 500} {
		for i := 0; i < 5000; i++ {
			if k := r.Poisson(mean); k < 0 {
				t.Fatalf("Poisson(%v) = %d", mean, k)
			}
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(17)
	for _, shape := range []float64{0.3, 0.9, 1, 2.5, 10, 100} {
		m, v := meanVar(100000, func() float64 { return r.Gamma(shape) })
		if math.Abs(m-shape) > 0.05*math.Max(shape, 1) {
			t.Fatalf("Gamma(%v) mean = %v", shape, m)
		}
		if math.Abs(v-shape) > 0.15*math.Max(shape, 1) {
			t.Fatalf("Gamma(%v) variance = %v", shape, v)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(18)
	a, b := 2.0, 5.0
	m, _ := meanVar(100000, func() float64 { return r.Beta(a, b) })
	want := a / (a + b)
	if math.Abs(m-want) > 0.01 {
		t.Fatalf("Beta(2,5) mean = %v, want %v", m, want)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(19)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.5}, {64, 0.1}, {100, 0.9}, {1000, 0.3}, {100000, 0.5},
		{100000, 0.0001}, {7, 1}, {7, 0},
	}
	for _, c := range cases {
		m, v := meanVar(20000, func() float64 { return float64(r.Binomial(c.n, c.p)) })
		wantM := float64(c.n) * c.p
		wantV := wantM * (1 - c.p)
		tolM := math.Max(0.05*math.Max(wantM, 1), 5*math.Sqrt(wantV/20000+1e-12))
		if math.Abs(m-wantM) > tolM {
			t.Fatalf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, m, wantM)
		}
		if wantV > 1 && math.Abs(v-wantV) > 0.15*wantV {
			t.Fatalf("Binomial(%d,%v) variance = %v, want %v", c.n, c.p, v, wantV)
		}
	}
}

func TestBinomialRange(t *testing.T) {
	r := New(20)
	err := quick.Check(func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 2000)
		p := float64(pRaw) / 65535.0
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw % 100)
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(22)
	const n, trials = 5, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("Perm first-element bucket %d count %d, want ~%v", i, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkPoissonLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Poisson(1e6)
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1<<20, 0.37)
	}
}
