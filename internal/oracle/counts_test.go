package oracle

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// testDist returns a 4-piece histogram over [0, n) for counting tests.
func testDist(n int) dist.Distribution {
	p := make([]float64, n)
	for i := range p {
		switch {
		case i < n/8:
			p[i] = 4
		case i < n/2:
			p[i] = 0.5
		case i < 3*n/4:
			p[i] = 2
		default:
			p[i] = 1
		}
	}
	total := 0.0
	for _, v := range p {
		total += v
	}
	for i := range p {
		p[i] /= total
	}
	return dist.MustDense(p)
}

// assertCountsEqual fails unless a and b agree on every accessor.
func assertCountsEqual(t *testing.T, a, b *Counts) {
	t.Helper()
	if a.N() != b.N() || a.Total() != b.Total() || a.Distinct() != b.Distinct() {
		t.Fatalf("summary mismatch: N %d/%d Total %d/%d Distinct %d/%d",
			a.N(), b.N(), a.Total(), b.Total(), a.Distinct(), b.Distinct())
	}
	for i := 0; i < a.N(); i++ {
		if a.Of(i) != b.Of(i) {
			t.Fatalf("Of(%d) = %d vs %d", i, a.Of(i), b.Of(i))
		}
	}
}

func TestDrawCountsMatchesDrawPoissonSampler(t *testing.T) {
	// The batched tally must consume exactly the same randomness as the
	// slice-materializing path and produce identical counts.
	const n, mean = 512, 3000.0
	d := testDist(n)
	s1 := NewSampler(d, rng.New(11))
	s2 := NewSampler(d, rng.New(11))
	r1, r2 := rng.New(12), rng.New(12)
	batched := DrawCounts(s1, r1, mean)
	legacy := NewCounts(n, DrawPoisson(s2, r2, mean))
	assertCountsEqual(t, batched, legacy)
	if s1.Samples() != s2.Samples() {
		t.Fatalf("draw accounting differs: %d vs %d", s1.Samples(), s2.Samples())
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("RNG streams diverged")
	}
}

func TestDrawCountsMatchesDrawPoissonGenericOracle(t *testing.T) {
	// Same equivalence through the generic (non-Sampler) loop, exercised
	// via a Permuted wrapper.
	const n, mean = 256, 2000.0
	d := testDist(n)
	sigma := rng.New(3).Perm(n)
	wrap := func(seed uint64) Oracle {
		p, err := NewPermuted(NewSampler(d, rng.New(seed)), sigma)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	o1, o2 := wrap(21), wrap(21)
	r1, r2 := rng.New(22), rng.New(22)
	batched := DrawCounts(o1, r1, mean)
	legacy := NewCounts(n, DrawPoisson(o2, r2, mean))
	assertCountsEqual(t, batched, legacy)
}

func TestDrawCountsDistribution(t *testing.T) {
	// Sanity: the tallied frequencies track the distribution and the total
	// tracks the Poisson mean.
	const n, mean = 64, 50000.0
	d := testDist(n)
	s := NewSampler(d, rng.New(31))
	c := DrawCounts(s, rng.New(32), mean)
	if math.Abs(float64(c.Total())-mean) > 6*math.Sqrt(mean) {
		t.Fatalf("total %d implausible for Poisson(%v)", c.Total(), mean)
	}
	for i := 0; i < n; i++ {
		got := float64(c.Of(i)) / float64(c.Total())
		want := d.Prob(i)
		if math.Abs(got-want) > 6*math.Sqrt(want/mean)+1e-3 {
			t.Fatalf("element %d frequency %v, want %v", i, got, want)
		}
	}
}

func TestDenseSparseEquivalence(t *testing.T) {
	const n = 300
	r := rng.New(41)
	samples := make([]int, 4000)
	for i := range samples {
		samples[i] = r.Intn(n)
	}
	dense := NewDenseCounts(n, samples)
	sparse := NewSparseCounts(n, samples)
	if !dense.Dense() || sparse.Dense() {
		t.Fatal("forced representations not honored")
	}
	assertCountsEqual(t, dense, sparse)
	for _, rg := range [][2]int{{0, n}, {10, 20}, {0, 1}, {n - 5, n}, {150, 150}} {
		if a, b := dense.InRange(rg[0], rg[1]), sparse.InRange(rg[0], rg[1]); a != b {
			t.Fatalf("InRange%v = %d vs %d", rg, a, b)
		}
	}
	fpA, fpB := dense.Fingerprint(), sparse.Fingerprint()
	if len(fpA) != len(fpB) {
		t.Fatalf("fingerprint sizes differ: %v vs %v", fpA, fpB)
	}
	for j, v := range fpA {
		if fpB[j] != v {
			t.Fatalf("fingerprint[%d] = %d vs %d", j, v, fpB[j])
		}
	}
	if dense.PairCollisions() != sparse.PairCollisions() {
		t.Fatal("pair collisions differ")
	}
	// ForEach must ascend identically for both.
	var elemsA, elemsB []int
	dense.ForEach(func(i, _ int) { elemsA = append(elemsA, i) })
	sparse.ForEach(func(i, _ int) { elemsB = append(elemsB, i) })
	if len(elemsA) != len(elemsB) {
		t.Fatal("ForEach visit counts differ")
	}
	for i := range elemsA {
		if elemsA[i] != elemsB[i] {
			t.Fatalf("ForEach order differs at %d: %d vs %d", i, elemsA[i], elemsB[i])
		}
		if i > 0 && elemsA[i] <= elemsA[i-1] {
			t.Fatal("ForEach not ascending")
		}
	}
	da, db := dense.Empirical(), sparse.Empirical()
	for i := 0; i < n; i++ {
		if da.Prob(i) != db.Prob(i) {
			t.Fatalf("empirical mass differs at %d", i)
		}
	}
}

// TestSecondLiveWalkPanics pins the one-walk-at-a-time rule: a walk's
// block is the Counts' own buffer, so a second walk started before the
// first ends would overwrite the block the first is reading.
func TestSecondLiveWalkPanics(t *testing.T) {
	samples := []int{1, 3, 3, 6}
	for _, c := range []*Counts{NewDenseCounts(8, samples), NewSparseCounts(8, samples)} {
		w := c.Walk()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dense=%v: a second live walk did not panic", c.Dense())
				}
			}()
			c.ForEach(func(int, int) {})
		}()
		// Ending the first walk frees the Counts for the next one.
		for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		}
		if got := c.PairCollisions(); got != 1 {
			t.Errorf("dense=%v: PairCollisions after the walk = %d, want 1", c.Dense(), got)
		}
	}
}

func TestCountsRepresentationHeuristic(t *testing.T) {
	// Thin samples over a big domain stay sparse; bulk draws over a modest
	// domain go dense.
	if NewCounts(1<<23, []int{0, 1, 2}).Dense() {
		t.Fatal("huge domain should be sparse")
	}
	if NewCounts(16, make([]int, 1000)).Dense() == false {
		t.Fatal("bulk draw over tiny domain should be dense")
	}
}

func TestSamplerForkIndependentAndAccounted(t *testing.T) {
	d := testDist(128)
	parent := NewSampler(d, rng.New(51))
	clone := parent.Fork(rng.New(52))
	if clone == nil {
		t.Fatal("sampler must be forkable")
	}
	for i := 0; i < 100; i++ {
		clone.Draw()
	}
	if parent.Samples() != 0 {
		t.Fatalf("clone draws leaked into parent counter: %d", parent.Samples())
	}
	if clone.Samples() != 100 {
		t.Fatalf("clone counted %d draws", clone.Samples())
	}
	parent.Absorb(clone.Samples())
	if parent.Samples() != 100 {
		t.Fatalf("Absorb failed: %d", parent.Samples())
	}
	// Forking must not perturb the parent's own stream: two identically
	// seeded samplers, one forked in between, draw the same sequence.
	a := NewSampler(d, rng.New(53))
	b := NewSampler(d, rng.New(53))
	a.Fork(rng.New(54))
	for i := 0; i < 50; i++ {
		if a.Draw() != b.Draw() {
			t.Fatal("Fork perturbed the parent stream")
		}
	}
}

func TestForkDelegation(t *testing.T) {
	d := testDist(64)
	sigma := rng.New(61).Perm(64)
	perm, err := NewPermuted(NewSampler(d, rng.New(62)), sigma)
	if err != nil {
		t.Fatal(err)
	}
	if perm.Fork(rng.New(63)) == nil {
		t.Fatal("Permuted over Sampler must fork")
	}
	// A replay-backed oracle is inherently serial: forks must refuse.
	rep, err := NewReplay(64, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	perm2, err := NewPermuted(rep, sigma)
	if err != nil {
		t.Fatal(err)
	}
	if perm2.Fork(rng.New(64)) != nil {
		t.Fatal("Permuted over Replay must not fork")
	}
}

func TestReplayPanicsWithSentinel(t *testing.T) {
	rep, err := NewReplay(8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rep.Draw()
	rep.Draw()
	defer func() {
		if r := recover(); r != ErrReplayExhausted {
			t.Fatalf("panic value = %v, want ErrReplayExhausted", r)
		}
	}()
	rep.Draw()
}

func BenchmarkDrawCountsDense(b *testing.B) {
	d := testDist(1 << 16)
	s := NewSampler(d, rng.New(71))
	r := rng.New(72)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DrawCounts(s, r, 1<<18)
	}
}

func BenchmarkDrawPoissonLegacy(b *testing.B) {
	d := testDist(1 << 16)
	s := NewSampler(d, rng.New(71))
	r := rng.New(72)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSparseCounts(1<<16, DrawPoisson(s, r, 1<<18))
	}
}

// TestBumpNDenseOverflowBoundary pins the int32 ceiling of the dense
// backing: accumulating to exactly MaxInt32 is fine, one past it must
// panic rather than wrap (a wrapped count silently corrupts every
// downstream statistic). A heavy single-element run synthesized by the
// closed-form counter near the MaxSamples budget (~2³¹) is the
// realistic way to get here.
func TestBumpNDenseOverflowBoundary(t *testing.T) {
	c := NewDenseCounts(4, nil)
	c.bumpN(1, math.MaxInt32-7)
	c.bumpN(1, 7) // lands exactly on the ceiling
	if got := c.Of(1); got != math.MaxInt32 {
		t.Fatalf("Of(1) = %d, want MaxInt32", got)
	}
	if got := c.Total(); got != math.MaxInt32 {
		t.Fatalf("Total() = %d, want MaxInt32", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("bumpN past MaxInt32 did not panic; the dense count wrapped silently")
		}
	}()
	c.bumpN(1, 1)
}

// TestBumpNSparseHasNoInt32Ceiling: the sparse (map) backing accumulates
// in native ints and must keep counting where the dense backing stops.
func TestBumpNSparseHasNoInt32Ceiling(t *testing.T) {
	c := NewSparseCounts(1<<30, nil)
	c.bumpN(5, math.MaxInt32-1)
	c.bumpN(5, 10)
	if want := int(math.MaxInt32) + 9; c.Of(5) != want {
		t.Fatalf("Of(5) = %d, want %d", c.Of(5), want)
	}
}
