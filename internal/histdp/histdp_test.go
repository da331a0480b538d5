package histdp

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// bruteForceRelaxed enumerates all segmentations of d's pieces into at most
// k segments and returns the minimal restricted ℓ1/2 distance achievable by
// per-segment weighted medians. Exponential; for tiny inputs only.
func bruteForceRelaxed(d *dist.PiecewiseConstant, k int, g *intervals.Domain) float64 {
	pieces := d.Pieces()
	B := len(pieces)
	vals := make([]float64, B)
	weights := make([]float64, B)
	for j, pc := range pieces {
		vals[j] = pc.Mass / float64(pc.Iv.Len())
		w := 0
		for _, giv := range g.Intervals() {
			w += pc.Iv.Intersect(giv).Len()
		}
		weights[j] = float64(w)
	}
	segCost := func(a, b int) float64 { // inclusive piece range
		med, ok := weightedMedian(vals[a:b+1], weights[a:b+1])
		if !ok {
			return 0
		}
		c := 0.0
		for j := a; j <= b; j++ {
			c += weights[j] * math.Abs(vals[j]-med)
		}
		return c
	}
	best := math.Inf(1)
	// Iterate all subsets of cut positions 1..B-1 with < k cuts.
	var rec func(pos, cuts int, acc float64, lastStart int)
	rec = func(pos, cuts int, acc float64, lastStart int) {
		if pos == B {
			total := acc + segCost(lastStart, B-1)
			if total < best {
				best = total
			}
			return
		}
		// No cut at pos.
		rec(pos+1, cuts, acc, lastStart)
		// Cut at pos (segment lastStart..pos-1 closes).
		if cuts+1 < k {
			rec(pos+1, cuts+1, acc+segCost(lastStart, pos-1), pos)
		}
	}
	rec(1, 0, 0, 0)
	return best / 2
}

func mkPC(t *testing.T, n int, cuts []int, masses []float64) *dist.PiecewiseConstant {
	t.Helper()
	p := intervals.FromBoundaries(n, cuts)
	d, err := dist.FromWeights(p, masses)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProjectTVExactFitWhenKLarge(t *testing.T) {
	d := mkPC(t, 12, []int{4, 8}, []float64{0.5, 0.25, 0.25})
	for _, k := range []int{3, 4, 10} {
		proj, err := ProjectTV(context.Background(), d, k, intervals.FullDomain(12))
		if err != nil {
			t.Fatal(err)
		}
		if proj.Relaxed != 0 || proj.Distance > 1e-12 {
			t.Fatalf("k=%d: relaxed=%v distance=%v, want 0", k, proj.Relaxed, proj.Distance)
		}
	}
}

func TestProjectTVKnownValue(t *testing.T) {
	// Uniform halves with masses 0.75/0.25 over n=4: the best 1-histogram
	// is the weighted median value; ℓ1 = |0.375-v|+|0.375-v|+|0.125-v|+|0.125-v|
	// minimized at v in [0.125, 0.375] (any median) → ℓ1 = 2·0.25 = 0.5, TV = 0.25.
	d := mkPC(t, 4, []int{2}, []float64{0.75, 0.25})
	proj, err := ProjectTV(context.Background(), d, 1, intervals.FullDomain(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proj.Relaxed-0.25) > 1e-12 {
		t.Fatalf("relaxed = %v, want 0.25", proj.Relaxed)
	}
	if proj.Projected.PieceCount() > 1 {
		t.Fatalf("projection has %d pieces, want 1", proj.Projected.PieceCount())
	}
}

func TestProjectTVMatchesBruteForce(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		n := 8 + r.Intn(12)
		numCuts := r.Intn(6)
		cuts := make([]int, numCuts)
		for i := range cuts {
			cuts[i] = 1 + r.Intn(n-1)
		}
		part := intervals.FromBoundaries(n, cuts)
		masses := make([]float64, part.Count())
		total := 0.0
		for j := range masses {
			masses[j] = r.Float64() + 0.05
			total += masses[j]
		}
		for j := range masses {
			masses[j] /= total
		}
		d, err := dist.FromWeights(part, masses)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(4)
		var g *intervals.Domain
		if r.Bernoulli(0.5) {
			g = intervals.FullDomain(n)
		} else {
			lo := r.Intn(n - 1)
			g = intervals.NewDomain(n, []intervals.Interval{{Lo: lo, Hi: lo + 1 + r.Intn(n-lo-1)}})
		}
		proj, err := ProjectTV(context.Background(), d, k, g)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceRelaxed(d, k, g)
		if math.Abs(proj.Relaxed-want) > 1e-9 {
			t.Fatalf("trial %d: DP relaxed = %v, brute force = %v (n=%d k=%d pieces=%d)",
				trial, proj.Relaxed, want, n, k, d.PieceCount())
		}
	}
}

func TestProjectTVBounds(t *testing.T) {
	// Relaxed <= Distance always; Projected is a valid k-histogram.
	r := rng.New(2)
	for trial := 0; trial < 40; trial++ {
		n := 10 + r.Intn(40)
		cuts := make([]int, r.Intn(8))
		for i := range cuts {
			cuts[i] = 1 + r.Intn(n-1)
		}
		part := intervals.FromBoundaries(n, cuts)
		masses := make([]float64, part.Count())
		total := 0.0
		for j := range masses {
			masses[j] = r.Float64() + 0.01
			total += masses[j]
		}
		for j := range masses {
			masses[j] /= total
		}
		d, _ := dist.FromWeights(part, masses)
		k := 1 + r.Intn(5)
		proj, err := ProjectTV(context.Background(), d, k, intervals.FullDomain(n))
		if err != nil {
			t.Fatal(err)
		}
		if proj.Relaxed > proj.Distance+1e-9 {
			t.Fatalf("relaxed %v > distance %v", proj.Relaxed, proj.Distance)
		}
		if proj.Projected.PieceCount() > k {
			t.Fatalf("projection has %d pieces > k=%d", proj.Projected.PieceCount(), k)
		}
		if math.Abs(dist.TotalMass(proj.Projected)-1) > 1e-9 {
			t.Fatal("projection is not a distribution")
		}
	}
}

func TestProjectTVRestrictedIgnoresOffDomain(t *testing.T) {
	// d is a 1-histogram on [0,8) but wild on [8,16); restricted to the
	// first half, distance to H_1 should be ~0 even for k=1.
	pieces := []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 8}, Mass: 0.4},
		{Iv: intervals.Interval{Lo: 8, Hi: 10}, Mass: 0.3},
		{Iv: intervals.Interval{Lo: 10, Hi: 16}, Mass: 0.3},
	}
	d := dist.MustPiecewiseConstant(16, pieces)
	g := intervals.NewDomain(16, []intervals.Interval{{Lo: 0, Hi: 8}})
	proj, err := ProjectTV(context.Background(), d, 1, g)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Relaxed > 1e-12 {
		t.Fatalf("restricted relaxed distance = %v, want 0", proj.Relaxed)
	}
}

func TestProjectTVErrors(t *testing.T) {
	d := dist.Uniform(8)
	if _, err := ProjectTV(context.Background(), d, 0, intervals.FullDomain(8)); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := ProjectTV(context.Background(), d, 1, intervals.FullDomain(9)); err == nil {
		t.Fatal("mismatched domain accepted")
	}
}

func TestDistanceToHkOnFarDistribution(t *testing.T) {
	// Alternating comb: far from H_1 (uniform-ish), distance known.
	n := 16
	p := make([]float64, n)
	for i := range p {
		if i%2 == 0 {
			p[i] = 2.0 / float64(n)
		}
	}
	pieces := make([]dist.Piece, n)
	for i := range pieces {
		pieces[i] = dist.Piece{Iv: intervals.Interval{Lo: i, Hi: i + 1}, Mass: p[i]}
	}
	d := dist.MustPiecewiseConstant(n, pieces)
	lower, upper, err := DistanceToHk(d, 1, intervals.FullDomain(n))
	if err != nil {
		t.Fatal(err)
	}
	// Best single value is the median 0 or 2/n; either way ℓ1 = 1, TV = 0.5.
	if math.Abs(lower-0.5) > 1e-9 {
		t.Fatalf("lower = %v, want 0.5", lower)
	}
	if upper < lower {
		t.Fatal("upper < lower")
	}
	// With k = n it is exactly representable.
	lower, _, err = DistanceToHk(d, n, intervals.FullDomain(n))
	if err != nil {
		t.Fatal(err)
	}
	if lower != 0 {
		t.Fatalf("k=n lower = %v", lower)
	}
}

func TestDistanceCurve(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		n := 12 + r.Intn(40)
		cuts := make([]int, r.Intn(8))
		for i := range cuts {
			cuts[i] = 1 + r.Intn(n-1)
		}
		part := intervals.FromBoundaries(n, cuts)
		masses := make([]float64, part.Count())
		total := 0.0
		for j := range masses {
			masses[j] = r.Float64() + 0.01
			total += masses[j]
		}
		for j := range masses {
			masses[j] /= total
		}
		d, _ := dist.FromWeights(part, masses)
		g := intervals.FullDomain(n)
		kMax := d.PieceCount() + 2
		curve, err := DistanceCurve(d, kMax, g)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for k := 1; k <= kMax; k++ {
			// Matches the per-k projection exactly.
			proj, err := ProjectTV(context.Background(), d, k, g)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(curve[k-1]-proj.Relaxed) > 1e-9 {
				t.Fatalf("trial %d k=%d: curve %v != projection %v", trial, k, curve[k-1], proj.Relaxed)
			}
			if curve[k-1] > prev+1e-12 {
				t.Fatalf("curve not non-increasing at k=%d", k)
			}
			prev = curve[k-1]
		}
		if curve[d.PieceCount()-1] > 1e-12 {
			t.Fatal("curve not zero at the true complexity")
		}
	}
	if _, err := DistanceCurve(dist.Uniform(4), 0, intervals.FullDomain(4)); err == nil {
		t.Fatal("kMax=0 accepted")
	}
}

func TestProjectL2ExactFit(t *testing.T) {
	d := mkPC(t, 12, []int{4, 8}, []float64{0.5, 0.25, 0.25})
	proj, sse, err := ProjectL2(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sse > 1e-15 {
		t.Fatalf("sse = %v", sse)
	}
	if dist.TV(d, proj) > 1e-12 {
		t.Fatal("exact-fit projection differs")
	}
}

func TestProjectL2MergesClosestPair(t *testing.T) {
	// Three pieces with values 1, 1.01, 5 (unnormalized): merging the two
	// close ones is optimal for k=2.
	d := mkPC(t, 6, []int{2, 4}, []float64{0.2, 0.21, 0.59})
	proj, _, err := ProjectL2(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if proj.PieceCount() != 2 {
		t.Fatalf("pieces = %d", proj.PieceCount())
	}
	cut := proj.Partition().Boundaries()
	if len(cut) != 1 || cut[0] != 4 {
		t.Fatalf("cut at %v, want [4]", cut)
	}
}

func TestProjectL2SSEDecreasesInK(t *testing.T) {
	r := rng.New(3)
	n := 64
	cuts := []int{5, 11, 20, 33, 40, 52, 60}
	part := intervals.FromBoundaries(n, cuts)
	masses := make([]float64, part.Count())
	total := 0.0
	for j := range masses {
		masses[j] = r.Float64() + 0.01
		total += masses[j]
	}
	for j := range masses {
		masses[j] /= total
	}
	d, _ := dist.FromWeights(part, masses)
	prev := math.Inf(1)
	for k := 1; k <= 8; k++ {
		_, sse, err := ProjectL2(d, k)
		if err != nil {
			t.Fatal(err)
		}
		if sse > prev+1e-12 {
			t.Fatalf("sse increased at k=%d: %v > %v", k, sse, prev)
		}
		prev = sse
	}
	if prev > 1e-15 {
		t.Fatalf("sse at k=#pieces should be 0, got %v", prev)
	}
}

func TestHistogramComplexity(t *testing.T) {
	d := mkPC(t, 12, []int{4, 8}, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3})
	// Pieces have widths 4,4,4 and equal masses: all same height → H_1.
	if got := HistogramComplexity(d); got != 1 {
		t.Fatalf("complexity = %d, want 1", got)
	}
	d2 := mkPC(t, 12, []int{4, 8}, []float64{0.5, 0.25, 0.25})
	if got := HistogramComplexity(d2); got != 2 {
		// Pieces 2,3 have heights 0.0625 each → merge; piece 1 is 0.125.
		t.Fatalf("complexity = %d, want 2", got)
	}
}

func TestTrueDistanceDense(t *testing.T) {
	d := dist.MustDense([]float64{0.5, 0, 0.5, 0})
	lower, upper, err := DistanceToHk(d.ToPiecewiseConstant(), 4, intervals.FullDomain(4))
	if err != nil {
		t.Fatal(err)
	}
	if lower != 0 || upper > 1e-12 {
		t.Fatalf("k=4 should fit exactly: %v %v", lower, upper)
	}
	lower, _, err = DistanceToHk(d.ToPiecewiseConstant(), 1, intervals.FullDomain(4))
	if err != nil {
		t.Fatal(err)
	}
	// Best constant is 0 or 0.5... median of {0.5,0,0.5,0} → ℓ1 = 1, TV = 0.5.
	if math.Abs(lower-0.5) > 1e-9 {
		t.Fatalf("k=1 lower = %v, want 0.5", lower)
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(8)
	weights := []float64{1, 2, 0, 3, 1, 0, 2, 1}
	for i, w := range weights {
		if w > 0 {
			f.add(i, w)
		}
	}
	cum := 0.0
	for i, w := range weights {
		cum += w
		if got := f.prefix(i); math.Abs(got-cum) > 1e-12 {
			t.Fatalf("prefix(%d) = %v, want %v", i, got, cum)
		}
	}
	// findPrefix: total = 10, target 5 → positions 0..3 cumulate 1,3,3,6 →
	// smallest index with cum >= 5 is 3.
	if got := f.findPrefix(5); got != 3 {
		t.Fatalf("findPrefix(5) = %d, want 3", got)
	}
	if got := f.findPrefix(0.5); got != 0 {
		t.Fatalf("findPrefix(0.5) = %d, want 0", got)
	}
	if got := f.findPrefix(100); got != 7 {
		t.Fatalf("findPrefix(overflow) = %d, want 7", got)
	}
}

func BenchmarkProjectTV(b *testing.B) {
	r := rng.New(1)
	n := 1 << 14
	cuts := make([]int, 255)
	for i := range cuts {
		cuts[i] = 1 + r.Intn(n-1)
	}
	part := intervals.FromBoundaries(n, cuts)
	masses := make([]float64, part.Count())
	total := 0.0
	for j := range masses {
		masses[j] = r.Float64() + 0.01
		total += masses[j]
	}
	for j := range masses {
		masses[j] /= total
	}
	d, _ := dist.FromWeights(part, masses)
	g := intervals.FullDomain(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProjectTV(context.Background(), d, 8, g); err != nil {
			b.Fatal(err)
		}
	}
}
