package histbuild

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

func TestBuildValidation(t *testing.T) {
	d := dist.Uniform(16)
	if _, err := Build(d, 0, EquiWidth); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Build(d, 17, EquiWidth); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Build(d, 4, Method("nope")); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestAllMethodsAreDistributions(t *testing.T) {
	r := rng.New(1)
	d := gen.Zipf(512, 1.1)
	for _, m := range Methods() {
		h, err := Build(d, 8, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if math.Abs(dist.TotalMass(h)-1) > 1e-9 {
			t.Fatalf("%s: mass = %v", m, dist.TotalMass(h))
		}
		if h.PieceCount() > 8 {
			t.Fatalf("%s: %d pieces", m, h.PieceCount())
		}
	}
	_ = r
}

func TestEquiWidthShape(t *testing.T) {
	d := dist.Uniform(100)
	h, err := Build(d, 4, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range h.Pieces() {
		if pc.Iv.Len() != 25 {
			t.Fatalf("bucket %v not width 25", pc.Iv)
		}
	}
}

func TestEquiDepthBalancesMass(t *testing.T) {
	d := gen.Zipf(1000, 1.3)
	h, err := Build(d, 8, EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	for _, pc := range h.Pieces() {
		if pc.Mass > 0.45 {
			t.Fatalf("bucket %v mass %v too heavy", pc.Iv, pc.Mass)
		}
	}
	// The Zipf head should get narrow buckets.
	first := h.Pieces()[0]
	last := h.Pieces()[h.PieceCount()-1]
	if first.Iv.Len() >= last.Iv.Len() {
		t.Fatalf("equi-depth did not narrow the head: %v vs %v", first.Iv, last.Iv)
	}
}

func TestMaxDiffFindsJumps(t *testing.T) {
	// A 3-histogram: MaxDiff with k = 3 should recover its exact cuts.
	d := dist.MustPiecewiseConstant(100, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 30}, Mass: 0.6},
		{Iv: intervals.Interval{Lo: 30, Hi: 70}, Mass: 0.1},
		{Iv: intervals.Interval{Lo: 70, Hi: 100}, Mass: 0.3},
	})
	h, err := Build(d, 3, MaxDiff)
	if err != nil {
		t.Fatal(err)
	}
	if dist.TV(d, h) > 1e-12 {
		t.Fatalf("MaxDiff failed to recover exact histogram: TV = %v", dist.TV(d, h))
	}
}

func TestVOptimalBeatsEquiWidthOnSkew(t *testing.T) {
	d := gen.Zipf(512, 1.5)
	vo, err := Build(d, 8, VOptimal)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := Build(d, 8, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}
	if dist.L2Squared(d, vo) > dist.L2Squared(d, ew)+1e-15 {
		t.Fatalf("V-optimal SSE %v worse than equi-width %v", dist.L2Squared(d, vo), dist.L2Squared(d, ew))
	}
}

func TestVOptimalDominatesAllMethods(t *testing.T) {
	// V-optimal minimizes SSE by definition; every other construction is
	// at best equal on every workload.
	r := rng.New(5)
	workloads := []dist.Distribution{
		gen.Zipf(512, 1.4),
		gen.GaussianMixture(512, []float64{100, 350}, []float64{30, 50}, []float64{1, 1}),
		gen.KHistogram(r, 512, 12),
	}
	for wi, d := range workloads {
		vo, err := Build(d, 8, VOptimal)
		if err != nil {
			t.Fatal(err)
		}
		voSSE := dist.L2Squared(d, vo)
		for _, m := range []Method{EquiWidth, EquiDepth, MaxDiff} {
			h, err := Build(d, 8, m)
			if err != nil {
				t.Fatal(err)
			}
			// Allowance: V-optimal is computed on the unnormalized fit and
			// then renormalized, which can cost a hair on non-histograms.
			if voSSE > dist.L2Squared(d, h)*1.02+1e-15 {
				t.Fatalf("workload %d: V-optimal SSE %v worse than %s's %v", wi, voSSE, m, dist.L2Squared(d, h))
			}
		}
	}
}

func TestVOptimalExactOnHistogram(t *testing.T) {
	r := rng.New(2)
	d := gen.KHistogram(r, 256, 5)
	h, err := Build(d, 5, VOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if dist.TV(d, h) > 1e-9 {
		t.Fatalf("V-optimal did not recover a 5-histogram: %v", dist.TV(d, h))
	}
}

func TestBuildFromSamples(t *testing.T) {
	r := rng.New(3)
	d := gen.KHistogram(r, 256, 4)
	s := oracle.NewSampler(d, r)
	counts := oracle.NewCounts(256, oracle.DrawN(s, 200000))
	h, err := BuildFromSamples(counts, 4, VOptimal)
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.TV(d, h); got > 0.1 {
		t.Fatalf("sampled V-optimal TV = %v", got)
	}
}

func TestSelectivity(t *testing.T) {
	d := dist.Uniform(100)
	h, _ := Build(d, 4, EquiWidth)
	if got := Selectivity(h, 0, 50); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("selectivity = %v", got)
	}
	if got := Selectivity(h, 10, 10); got != 0 {
		t.Fatalf("empty query selectivity = %v", got)
	}
}

func TestEvaluateQueries(t *testing.T) {
	r := rng.New(4)
	d := gen.Zipf(512, 1.2)
	vo, _ := Build(d, 16, VOptimal)
	ew, _ := Build(d, 16, EquiWidth)
	queries := make([]intervals.Interval, 200)
	for i := range queries {
		lo := r.Intn(511)
		queries[i] = intervals.Interval{Lo: lo, Hi: lo + 1 + r.Intn(512-lo-1)}
	}
	evVO := EvaluateQueries(d, vo, queries)
	evEW := EvaluateQueries(d, ew, queries)
	if evVO.MeanAbs > evEW.MeanAbs*1.5 {
		t.Fatalf("V-optimal query error %v much worse than equi-width %v", evVO.MeanAbs, evEW.MeanAbs)
	}
	if evVO.MaxAbs < evVO.MeanAbs {
		t.Fatal("max < mean")
	}
	if got := EvaluateQueries(d, vo, nil); got.MeanAbs != 0 || got.MaxAbs != 0 {
		t.Fatal("empty query set should give zero error")
	}
}
