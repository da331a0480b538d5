package learn

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

func TestApproxPartHeavySingletons(t *testing.T) {
	// One element with mass 0.5 over n=1000, rest uniform: with b = 10,
	// the heavy element must come out as a singleton.
	r := rng.New(1)
	n := 1000
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.5 / float64(n-1)
	}
	p[371] = 0.5
	d := dist.MustDense(p)
	failures := 0
	for trial := 0; trial < 20; trial++ {
		s := oracle.NewSampler(d, r)
		res, err := ApproxPart(s, r, 10, 20)
		if err != nil {
			t.Fatal(err)
		}
		j := res.Partition.Find(371)
		if res.Partition.Interval(j).Len() != 1 || !res.Heavy[j] {
			failures++
		}
		if res.SamplesUsed != ApproxPartSamples(10, 20) {
			t.Fatalf("samples used = %d", res.SamplesUsed)
		}
	}
	if failures > 2 {
		t.Fatalf("heavy element missed in %d/20 trials", failures)
	}
}

func TestApproxPartIntervalMasses(t *testing.T) {
	// Non-singleton intervals should have true mass <= ~2/b whp.
	r := rng.New(2)
	n := 4096
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	b := 20.0
	res, err := ApproxPart(s, r, b, 20)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for j := 0; j < res.Partition.Count(); j++ {
		iv := res.Partition.Interval(j)
		if iv.Len() > 1 && d.IntervalMass(iv) > 2/b {
			violations++
		}
	}
	if violations > 1 {
		t.Fatalf("%d non-singleton intervals exceed mass 2/b", violations)
	}
	// Interval count is O(b).
	if res.Partition.Count() > int(4*b) {
		t.Fatalf("K = %d too large for b = %v", res.Partition.Count(), b)
	}
}

func TestApproxPartCoversDomain(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 10; trial++ {
		n := 100 + r.Intn(1000)
		d := dist.Uniform(n)
		s := oracle.NewSampler(d, r)
		res, err := ApproxPart(s, r, 5+float64(r.Intn(20)), 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partition.N() != n {
			t.Fatal("partition over wrong domain")
		}
		if len(res.Heavy) != res.Partition.Count() {
			t.Fatal("heavy mask length mismatch")
		}
	}
}

func TestApproxPartRejectsBadB(t *testing.T) {
	r := rng.New(4)
	s := oracle.NewSampler(dist.Uniform(10), r)
	if _, err := ApproxPart(s, r, 0.5, 10); err == nil {
		t.Fatal("b < 1 accepted")
	}
}

func TestApproxPartPointMass(t *testing.T) {
	// All mass on one element: that element is a singleton, everything
	// else is light.
	r := rng.New(5)
	d := dist.PointMass(100, 42)
	s := oracle.NewSampler(d, r)
	res, err := ApproxPart(s, r, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Partition.Find(42)
	if res.Partition.Interval(j).Len() != 1 {
		t.Fatalf("point mass not isolated: %v", res.Partition.Interval(j))
	}
}

func TestLaplaceEstimateSumsToOne(t *testing.T) {
	r := rng.New(6)
	n := 200
	d := dist.Uniform(n)
	s := oracle.NewSampler(d, r)
	p := intervals.EquiWidth(n, 10)
	counts := oracle.NewCounts(n, oracle.DrawN(s, 500))
	est := LaplaceEstimate(counts, p)
	if math.Abs(dist.TotalMass(est)-1) > 1e-9 {
		t.Fatalf("estimate mass = %v", dist.TotalMass(est))
	}
	if est.PieceCount() != 10 {
		t.Fatalf("pieces = %d", est.PieceCount())
	}
}

func TestLaplaceEstimateZeroCountsPositive(t *testing.T) {
	// Add-one smoothing: intervals with no samples still get positive mass
	// (this is what makes the χ² distance finite).
	p := intervals.EquiWidth(100, 5)
	counts := oracle.NewCounts(100, []int{0, 1, 2}) // all in interval 0
	est := LaplaceEstimate(counts, p)
	for j := 1; j < 5; j++ {
		iv := p.Interval(j)
		if est.IntervalMass(iv) <= 0 {
			t.Fatalf("interval %d has non-positive mass", j)
		}
	}
	// Interval 0: (3+1)/(3+5) = 0.5.
	if math.Abs(est.IntervalMass(p.Interval(0))-0.5) > 1e-12 {
		t.Fatalf("interval 0 mass = %v", est.IntervalMass(p.Interval(0)))
	}
}

func TestLearnChiSqGuarantee(t *testing.T) {
	// D a 3-histogram, partition aligned with its breakpoints: the learner
	// should achieve small χ² distance to D's flattening (no breakpoint
	// intervals to excuse).
	r := rng.New(7)
	n := 300
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 100}, Mass: 0.2},
		{Iv: intervals.Interval{Lo: 100, Hi: 150}, Mass: 0.5},
		{Iv: intervals.Interval{Lo: 150, Hi: 300}, Mass: 0.3},
	})
	part := intervals.FromBoundaries(n, []int{50, 100, 150, 200})
	eps := 0.2
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		s := oracle.NewSampler(d, r)
		est, m := Learn(s, r, part, eps, 2)
		if m != LearnSamples(part.Count(), eps, 2) {
			t.Fatalf("sample budget = %d", m)
		}
		flat := dist.Flatten(d, part)
		if got := dist.ChiSq(flat, est); got > eps*eps {
			failures++
			if failures > trials/4 {
				t.Fatalf("χ² guarantee failed %d times (last: %v > %v)", failures, got, eps*eps)
			}
		}
	}
}

func TestLearnExcusesBreakpointIntervals(t *testing.T) {
	// A breakpoint strictly inside a partition interval makes the
	// flattening lossy there, but off the breakpoint intervals the learner
	// still converges.
	r := rng.New(8)
	n := 200
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 75}, Mass: 0.8},
		{Iv: intervals.Interval{Lo: 75, Hi: 200}, Mass: 0.2},
	})
	part := intervals.EquiWidth(n, 4) // breakpoint 75 is inside [50,100)
	bps := BreakpointIntervals(d, part)
	if len(bps) != 1 || bps[0] != 1 {
		t.Fatalf("breakpoint intervals = %v, want [1]", bps)
	}
	s := oracle.NewSampler(d, r)
	est, _ := Learn(s, r, part, 0.1, 4)
	except := map[int]bool{1: true}
	dTilde := dist.FlattenExcept(d, part, except)
	// χ² restricted to the non-breakpoint intervals must be small.
	g := intervals.FromPartitionSubset(part, []bool{true, false, true, true})
	if got := dist.ChiSqDomain(dTilde, est, g); got > 0.01 {
		t.Fatalf("off-breakpoint χ² = %v", got)
	}
}

func TestEmpiricalFlattening(t *testing.T) {
	p := intervals.EquiWidth(10, 2)
	counts := oracle.NewCounts(10, []int{0, 1, 2, 7})
	e := EmpiricalFlattening(counts, p)
	if math.Abs(e.IntervalMass(p.Interval(0))-0.75) > 1e-12 {
		t.Fatalf("interval 0 mass = %v", e.IntervalMass(p.Interval(0)))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("empty flattening did not panic")
			}
		}()
		EmpiricalFlattening(oracle.NewCounts(10, nil), p)
	}()
}

func TestBreakpointIntervals(t *testing.T) {
	n := 100
	d := dist.MustPiecewiseConstant(n, []dist.Piece{
		{Iv: intervals.Interval{Lo: 0, Hi: 30}, Mass: 0.3},
		{Iv: intervals.Interval{Lo: 30, Hi: 60}, Mass: 0.6},
		{Iv: intervals.Interval{Lo: 60, Hi: 100}, Mass: 0.1},
	})
	// Partition boundaries at 30: breakpoint at 30 falls ON a boundary, so
	// only the breakpoint at 60 (inside [50,100)) counts.
	part := intervals.FromBoundaries(n, []int{30, 50})
	bps := BreakpointIntervals(d, part)
	if len(bps) != 1 || bps[0] != 2 {
		t.Fatalf("breakpoints = %v, want [2]", bps)
	}
	// Aligned partition: no breakpoint intervals.
	aligned := intervals.FromBoundaries(n, []int{30, 60})
	if got := BreakpointIntervals(d, aligned); len(got) != 0 {
		t.Fatalf("aligned partition has breakpoints %v", got)
	}
	// A k-histogram has at most k-1 breakpoint intervals.
	if got := BreakpointIntervals(d, intervals.Whole(n)); len(got) > 2 {
		t.Fatalf("too many breakpoint intervals: %v", got)
	}
}

// TestSampleBudgetsSaturate: budgets convert exactly below math.MaxInt64
// and saturate at it above, never wrapping into a small or negative
// count — the budget guards read these as ε → 0.
func TestSampleBudgetsSaturate(t *testing.T) {
	for _, tc := range []struct {
		x    float64
		want int64
	}{
		{0, 0}, {2.9, 2}, {1 << 52, 1 << 52}, {1e30, math.MaxInt64}, {math.Inf(1), math.MaxInt64}, {math.NaN(), math.MaxInt64},
	} {
		if got := SampleCount(tc.x); got != tc.want {
			t.Fatalf("SampleCount(%g) = %d, want %d", tc.x, got, tc.want)
		}
	}
	for _, tc := range []struct {
		counts []int64
		want   int64
	}{
		{nil, 0}, {[]int64{1, 2, 3}, 6}, {[]int64{math.MaxInt64 - 1, 1}, math.MaxInt64},
		{[]int64{math.MaxInt64 - 1, 2, 5}, math.MaxInt64}, {[]int64{math.MaxInt64, math.MaxInt64}, math.MaxInt64},
	} {
		if got := TotalSamples(tc.counts...); got != tc.want {
			t.Fatalf("TotalSamples(%v) = %d, want %d", tc.counts, got, tc.want)
		}
	}
	if got := ApproxPartSamples(1e300, 8); got != math.MaxInt {
		t.Fatalf("ApproxPartSamples(1e300) = %d, want saturation", got)
	}
	if got := LearnSamples(1<<40, 1e-300, 1); got != math.MaxInt {
		t.Fatalf("LearnSamples at eps=1e-300 = %d, want saturation", got)
	}
}
