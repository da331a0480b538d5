package oracle

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

func TestSamplerMatchesDistribution(t *testing.T) {
	r := rng.New(1)
	d := dist.MustDense([]float64{0.1, 0.2, 0.3, 0.4})
	s := NewSampler(d, r)
	const m = 200000
	counts := NewCounts(4, DrawN(s, m))
	for i := 0; i < 4; i++ {
		got := float64(counts.Of(i)) / m
		want := d.Prob(i)
		if math.Abs(got-want) > 5*math.Sqrt(want/m) {
			t.Fatalf("element %d frequency %v, want %v", i, got, want)
		}
	}
	if s.Samples() != m {
		t.Fatalf("Samples = %d", s.Samples())
	}
}

func TestSamplerPiecewiseConstant(t *testing.T) {
	r := rng.New(2)
	// 3-histogram over a large domain: alias table has 3 entries.
	iv := func(lo, hi int) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }
	d := dist.MustPiecewiseConstant(1<<16, []dist.Piece{
		{Iv: iv(0, 1<<14), Mass: 0.5},
		{Iv: iv(1<<14, 1<<15), Mass: 0.25},
		{Iv: iv(1<<15, 1<<16), Mass: 0.25},
	})
	s := NewSampler(d, r)
	const m = 100000
	samples := DrawN(s, m)
	var inFirst int
	for _, x := range samples {
		if x < 0 || x >= 1<<16 {
			t.Fatalf("sample %d out of domain", x)
		}
		if x < 1<<14 {
			inFirst++
		}
	}
	got := float64(inFirst) / m
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("first-piece frequency %v, want 0.5", got)
	}
}

func TestSamplerZeroMassElementsNeverDrawn(t *testing.T) {
	r := rng.New(3)
	d := dist.MustDense([]float64{0, 1, 0})
	s := NewSampler(d, r)
	for i := 0; i < 10000; i++ {
		if got := s.Draw(); got != 1 {
			t.Fatalf("drew zero-mass element %d", got)
		}
	}
}

func TestSamplerUniformWithinPiece(t *testing.T) {
	r := rng.New(4)
	d := dist.Uniform(10)
	s := NewSampler(d, r)
	const m = 100000
	counts := NewCounts(10, DrawN(s, m))
	for i := 0; i < 10; i++ {
		got := float64(counts.Of(i)) / m
		if math.Abs(got-0.1) > 0.01 {
			t.Fatalf("element %d frequency %v", i, got)
		}
	}
}

func TestSamplerPanicsOnZeroMass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-mass sampler did not panic")
		}
	}()
	NewSampler(dist.MustDense([]float64{0, 0}), rng.New(1))
}

func TestResetCount(t *testing.T) {
	s := NewSampler(dist.Uniform(4), rng.New(5))
	DrawN(s, 10)
	s.ResetCount()
	if s.Samples() != 0 {
		t.Fatal("ResetCount did not zero")
	}
}

func TestDrawPoisson(t *testing.T) {
	r := rng.New(6)
	s := NewSampler(dist.Uniform(8), r)
	const mean = 500.0
	var total float64
	const reps = 200
	for i := 0; i < reps; i++ {
		total += float64(len(DrawPoisson(s, r, mean)))
	}
	avg := total / reps
	if math.Abs(avg-mean) > 4*math.Sqrt(mean/reps) {
		t.Fatalf("Poissonized batch size mean %v, want %v", avg, mean)
	}
}

func TestPermutedOracle(t *testing.T) {
	r := rng.New(7)
	d := dist.PointMass(5, 2)
	s := NewSampler(d, r)
	sigma := []int{4, 3, 0, 1, 2} // sends 2 -> 0
	p, err := NewPermuted(s, sigma)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := p.Draw(); got != 0 {
			t.Fatalf("permuted draw = %d, want 0", got)
		}
	}
	if p.Samples() != 100 {
		t.Fatalf("Samples = %d", p.Samples())
	}
	if _, err := NewPermuted(s, []int{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
}

func TestReplay(t *testing.T) {
	rp, err := NewReplay(5, []int{0, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Remaining() != 3 {
		t.Fatalf("Remaining = %d", rp.Remaining())
	}
	want := []int{0, 4, 2}
	for i, w := range want {
		if got := rp.Draw(); got != w {
			t.Fatalf("draw %d = %d, want %d", i, got, w)
		}
	}
	if rp.Remaining() != 0 || rp.Samples() != 3 {
		t.Fatal("replay accounting wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("exhausted replay did not panic")
			}
		}()
		rp.Draw()
	}()
	if _, err := NewReplay(3, []int{0, 3}); err == nil {
		t.Fatal("out-of-range sample accepted")
	}
}

func TestCounts(t *testing.T) {
	c := NewCounts(10, []int{1, 1, 3, 7, 7, 7})
	if c.Total() != 6 || c.Distinct() != 3 {
		t.Fatalf("total=%d distinct=%d", c.Total(), c.Distinct())
	}
	if c.Of(1) != 2 || c.Of(7) != 3 || c.Of(0) != 0 {
		t.Fatal("Of wrong")
	}
	if c.InRange(0, 5) != 3 {
		t.Fatalf("InRange = %d", c.InRange(0, 5))
	}
	var visited []int
	c.ForEach(func(e, n int) { visited = append(visited, e) })
	if len(visited) != 3 || visited[0] != 1 || visited[2] != 7 {
		t.Fatalf("ForEach order: %v", visited)
	}
}

func TestFingerprint(t *testing.T) {
	c := NewCounts(10, []int{1, 1, 3, 7, 7, 7})
	fp := c.Fingerprint()
	if fp[1] != 1 || fp[2] != 1 || fp[3] != 1 {
		t.Fatalf("fingerprint = %v", fp)
	}
	if c.PairCollisions() != 1+3 {
		t.Fatalf("collisions = %d", c.PairCollisions())
	}
}

func TestEmpirical(t *testing.T) {
	c := NewCounts(4, []int{0, 0, 1, 2})
	e := c.Empirical()
	if math.Abs(e.Prob(0)-0.5) > 1e-12 || math.Abs(e.Prob(3)) > 1e-12 {
		t.Fatal("empirical wrong")
	}
	if math.Abs(dist.TotalMass(e)-1) > 1e-12 {
		t.Fatal("empirical mass != 1")
	}
}

func TestCountsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range count did not panic")
		}
	}()
	NewCounts(3, []int{3})
}

func BenchmarkSamplerDrawDense(b *testing.B) {
	r := rng.New(1)
	p := make([]float64, 1<<16)
	for i := range p {
		p[i] = 1
	}
	s := NewSampler(dist.MustDense(p), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Draw()
	}
}

func BenchmarkSamplerDrawHistogram(b *testing.B) {
	r := rng.New(1)
	s := NewSampler(dist.Uniform(1<<20), r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Draw()
	}
}
