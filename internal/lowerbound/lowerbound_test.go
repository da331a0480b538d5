package lowerbound

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

func TestPaninskiValidDistribution(t *testing.T) {
	r := rng.New(1)
	d, err := Paninski(r, 64, 0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist.TotalMass(d)-1) > 1e-9 {
		t.Fatal("not normalized")
	}
	// Every pair sums to 2/n and has one high, one low side.
	hi := (1 + 0.6) / 64.0
	lo := (1 - 0.6) / 64.0
	for i := 0; i < 64; i += 2 {
		a, b := d.Prob(i), d.Prob(i+1)
		if math.Abs(a+b-2.0/64) > 1e-12 {
			t.Fatalf("pair %d sums to %v", i/2, a+b)
		}
		if !((approxEq(a, hi) && approxEq(b, lo)) || (approxEq(a, lo) && approxEq(b, hi))) {
			t.Fatalf("pair %d values %v, %v", i/2, a, b)
		}
	}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPaninskiErrors(t *testing.T) {
	r := rng.New(2)
	if _, err := Paninski(r, 7, 0.1, 6); err == nil {
		t.Fatal("odd n accepted")
	}
	if _, err := Paninski(r, 8, 0.5, 6); err == nil {
		t.Fatal("cε > 1 accepted")
	}
}

func TestPaninskiFarFromHk(t *testing.T) {
	// Verify the Proposition 4.1 distance claim against the exact DP.
	r := rng.New(3)
	n, eps, c := 128, 0.15, 6.0
	for trial := 0; trial < 5; trial++ {
		d, err := Paninski(r, n, eps, c)
		if err != nil {
			t.Fatal(err)
		}
		lb := PaninskiDistanceLB(eps, c) // = ε for c = 6
		for _, k := range []int{1, 4, 16} {
			lower, _, err := histdp.DistanceToHk(d.ToPiecewiseConstant(), k, intervals.FullDomain(n))
			if err != nil {
				t.Fatal(err)
			}
			if lower < lb-1e-9 {
				t.Fatalf("Q_ε member only %v from H_%d, claim %v", lower, k, lb)
			}
		}
	}
}

func TestPaninskiRandomDraws(t *testing.T) {
	// Two draws should (almost surely) differ.
	r := rng.New(4)
	a, _ := Paninski(r, 256, 0.1, 6)
	b, _ := Paninski(r, 256, 0.1, 6)
	if dist.TV(a, b) == 0 {
		t.Fatal("two random members identical")
	}
}

func TestSupportInstance(t *testing.T) {
	d, err := SupportInstance(120, SmallSupport(120))
	if err != nil {
		t.Fatal(err)
	}
	if dist.Support(d) != 40 {
		t.Fatalf("support = %d", dist.Support(d))
	}
	// Promise: every supported element has mass >= 1/m.
	for i := 0; i < d.N(); i++ {
		if p := d.Prob(i); p != 0 && p < 1.0/120 {
			t.Fatalf("element %d mass %v below promise", i, p)
		}
	}
	if _, err := SupportInstance(10, 0); err == nil {
		t.Fatal("size 0 accepted")
	}
	if LargeSupport(120) != 105 {
		t.Fatalf("LargeSupport = %d", LargeSupport(120))
	}
}

func TestCover(t *testing.T) {
	cases := []struct {
		s    []int
		want int
	}{
		{nil, 0},
		{[]int{5}, 1},
		{[]int{1, 2, 3}, 1},
		{[]int{3, 1, 2}, 1},
		{[]int{1, 3, 5}, 3},
		{[]int{10, 11, 13, 14, 20}, 3},
	}
	for _, c := range cases {
		if got := Cover(c.s); got != c.want {
			t.Fatalf("Cover(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestLemma44CoverBound(t *testing.T) {
	// Monte-Carlo check of Lemma 4.4: for ℓ <= n/70,
	// Pr[cover(σ(S)) <= 6ℓ/7] <= 7ℓ/n.
	r := rng.New(5)
	n, ell := 7000, 100 // 7ℓ/n = 0.1
	const trials = 300
	low := 0
	for i := 0; i < trials; i++ {
		if PermutedSupportCover(r, n, ell) <= 6*ell/7 {
			low++
		}
	}
	rate := float64(low) / trials
	if rate > 0.12 {
		t.Fatalf("cover below 6ℓ/7 in %v of trials, Lemma 4.4 allows 0.1", rate)
	}
}

func TestReductionValidation(t *testing.T) {
	if _, err := NewReduction(100, 10); err == nil {
		t.Fatal("m > n/70 accepted")
	}
	rd, err := NewReduction(7000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if rd.K() != 2*33+1 {
		t.Fatalf("K = %d", rd.K())
	}
	if rd.Eps() != 1.0/24 {
		t.Fatalf("Eps = %v", rd.Eps())
	}
}

func TestReductionSmallSideIsHistogram(t *testing.T) {
	// After permutation, a support of size ℓ covers at most ℓ runs; the
	// permuted distribution is a (2ℓ+1)-histogram with probability one.
	r := rng.New(6)
	m := 99
	n := 7000
	rd, err := NewReduction(n, m)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := SupportInstance(m, SmallSupport(m))
	sigma := r.Perm(n)
	perm, err := PermutedDistribution(small, n, sigma)
	if err != nil {
		t.Fatal(err)
	}
	// Complexity: each supported element is its own run at worst → at most
	// 2ℓ+1 pieces.
	pieces := densePieceCount(perm)
	if pieces > rd.K() {
		t.Fatalf("small-side permuted complexity %d > k = %d", pieces, rd.K())
	}
}

// densePieceCount counts maximal constant runs of a dense distribution.
func densePieceCount(d *dist.Dense) int {
	runs := 1
	for i := 1; i < d.N(); i++ {
		if d.Prob(i) != d.Prob(i-1) {
			runs++
		}
	}
	return runs
}

func TestReductionLargeSideFar(t *testing.T) {
	// The large-support side, permuted, should be far from H_k whp.
	r := rng.New(7)
	m := 99
	n := 7000
	rd, _ := NewReduction(n, m)
	large, _ := SupportInstance(m, LargeSupport(m))
	farCount := 0
	const trials = 5
	for i := 0; i < trials; i++ {
		sigma := r.Perm(n)
		perm, err := PermutedDistribution(large, n, sigma)
		if err != nil {
			t.Fatal(err)
		}
		lower, _, err := histdp.DistanceToHk(perm.ToPiecewiseConstant(), rd.K(), intervals.FullDomain(n))
		if err != nil {
			t.Fatal(err)
		}
		if lower >= rd.Eps() {
			farCount++
		}
	}
	if farCount < 4 {
		t.Fatalf("large side far from H_k in only %d/%d permutations", farCount, trials)
	}
}

func TestEmbedOracle(t *testing.T) {
	r := rng.New(8)
	m, n := 99, 7000
	rd, _ := NewReduction(n, m)
	small, _ := SupportInstance(m, SmallSupport(m))
	inner := oracle.NewSampler(small, r)
	emb, err := rd.Embed(inner, r)
	if err != nil {
		t.Fatal(err)
	}
	if emb.N() != n {
		t.Fatalf("embedded domain = %d", emb.N())
	}
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := emb.Draw()
		if v < 0 || v >= n {
			t.Fatalf("sample %d out of range", v)
		}
		seen[v] = true
	}
	// Support size ≈ 33 distinct values at most.
	if len(seen) > SmallSupport(m) {
		t.Fatalf("saw %d distinct values from support %d", len(seen), SmallSupport(m))
	}
	if emb.Samples() != 1000 {
		t.Fatalf("sample accounting = %d", emb.Samples())
	}
	// Wrong inner size is rejected.
	if _, err := rd.Embed(oracle.NewSampler(dist.Uniform(5), r), r); err == nil {
		t.Fatal("wrong-size inner oracle accepted")
	}
}

func TestPadWithHeavy(t *testing.T) {
	d := dist.MustDense([]float64{0.5, 0.5})
	padded, err := PadWithHeavy(d, 0.01, 1.0/24)
	if err != nil {
		t.Fatal(err)
	}
	if padded.N() != 3 {
		t.Fatal("domain not extended")
	}
	if math.Abs(dist.TotalMass(padded)-1) > 1e-12 {
		t.Fatal("not normalized")
	}
	w := 0.01 * 24
	if math.Abs(padded.Prob(2)-(1-w)) > 1e-12 {
		t.Fatalf("heavy element mass = %v", padded.Prob(2))
	}
	if _, err := PadWithHeavy(d, 0.5, 1.0/24); err == nil {
		t.Fatal("ε > ε₁ accepted")
	}
}
