package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/intervals"
	"repro/internal/rng"
)

const eps = 1e-12

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// randomPC builds a random piecewise-constant distribution (normalized).
func randomPC(r *rng.RNG, n, maxPieces int) *PiecewiseConstant {
	cuts := make([]int, r.Intn(maxPieces))
	for i := range cuts {
		cuts[i] = 1 + r.Intn(n-1)
	}
	p := intervals.FromBoundaries(n, cuts)
	masses := make([]float64, p.Count())
	total := 0.0
	for j := range masses {
		masses[j] = r.Float64() + 0.01
		total += masses[j]
	}
	for j := range masses {
		masses[j] /= total
	}
	d, err := FromWeights(p, masses)
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewDenseValidation(t *testing.T) {
	if _, err := NewDense(nil); err == nil {
		t.Fatal("empty vector accepted")
	}
	if _, err := NewDense([]float64{0.5, -0.1}); err == nil {
		t.Fatal("negative mass accepted")
	}
	if _, err := NewDense([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := NewDense([]float64{math.Inf(1)}); err == nil {
		t.Fatal("Inf accepted")
	}
	d, err := NewDense([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 2 || d.Prob(1) != 0.75 {
		t.Fatal("dense accessors wrong")
	}
}

func TestNewPiecewiseConstantValidation(t *testing.T) {
	iv := func(lo, hi int) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }
	if _, err := NewPiecewiseConstant(10, []Piece{{iv(0, 5), 0.5}, {iv(5, 10), 0.5}}); err != nil {
		t.Fatalf("valid PC rejected: %v", err)
	}
	bad := [][]Piece{
		{{iv(0, 5), 0.5}, {iv(6, 10), 0.5}},
		{{iv(0, 5), 0.5}},
		{{iv(0, 10), -1}},
		{},
	}
	for i, pieces := range bad {
		if _, err := NewPiecewiseConstant(10, pieces); err == nil {
			t.Fatalf("bad PC %d accepted", i)
		}
	}
}

func TestUniform(t *testing.T) {
	u := Uniform(8)
	for i := 0; i < 8; i++ {
		if !approx(u.Prob(i), 0.125, eps) {
			t.Fatalf("Prob(%d) = %v", i, u.Prob(i))
		}
	}
	if !approx(TotalMass(u), 1, eps) {
		t.Fatal("uniform mass != 1")
	}
}

func TestPointMass(t *testing.T) {
	for _, i := range []int{0, 3, 9} {
		d := PointMass(10, i)
		if !approx(d.Prob(i), 1, eps) {
			t.Fatalf("PointMass(10,%d).Prob(%d) = %v", i, i, d.Prob(i))
		}
		if !approx(TotalMass(d), 1, eps) {
			t.Fatal("point mass total != 1")
		}
		if Support(d) != 1 {
			t.Fatalf("support = %d", Support(d))
		}
	}
}

func TestPCIntervalMassMatchesDense(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 50; trial++ {
		n := 10 + r.Intn(100)
		pc := randomPC(r, n, 8)
		dense := ToDense(pc)
		for q := 0; q < 30; q++ {
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo+1)
			iv := intervals.Interval{Lo: lo, Hi: hi}
			if !approx(pc.IntervalMass(iv), dense.IntervalMass(iv), 1e-9) {
				t.Fatalf("interval mass mismatch on %v: %v vs %v", iv, pc.IntervalMass(iv), dense.IntervalMass(iv))
			}
		}
		for i := 0; i < n; i++ {
			if !approx(pc.Prob(i), dense.Prob(i), 1e-12) {
				t.Fatalf("prob mismatch at %d", i)
			}
		}
	}
}

func TestCompact(t *testing.T) {
	iv := func(lo, hi int) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }
	// Pieces 0 and 1 have equal element probability 0.05; they must merge.
	d := MustPiecewiseConstant(10, []Piece{
		{iv(0, 2), 0.1}, {iv(2, 6), 0.2}, {iv(6, 10), 0.7},
	})
	c := d.Compact()
	if c.PieceCount() != 2 {
		t.Fatalf("compact pieces = %d, want 2", c.PieceCount())
	}
	if TV(d, c) > eps {
		t.Fatal("compact changed the distribution")
	}
}

func TestToPiecewiseConstant(t *testing.T) {
	d := MustDense([]float64{0, 0, 0.5, 0.5, 0, 0.25, 0.25, 0.25})
	// Masses differ across positions but VALUES matter: runs are
	// {0,0}, {0.5,0.5}, {0}, {0.25,0.25,0.25} → wait, 0.25*... values:
	// 0,0,0.5,0.5,0,0.25,0.25,0.25 → 4 runs (two zero runs are separated).
	pc := d.ToPiecewiseConstant()
	if pc.PieceCount() != 4 {
		t.Fatalf("pieces = %d, want 4", pc.PieceCount())
	}
	if TV(d, pc) > eps {
		t.Fatal("round trip changed the distribution")
	}
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(60)
		orig := randomPC(r, n, 8)
		back := ToDense(orig).ToPiecewiseConstant()
		if TV(orig, back) > 1e-12 {
			t.Fatal("PC -> Dense -> PC round trip drifted")
		}
	}
}

func TestTVBasics(t *testing.T) {
	u := Uniform(4)
	if !approx(TV(u, u), 0, eps) {
		t.Fatal("TV(u,u) != 0")
	}
	p := MustDense([]float64{1, 0, 0, 0})
	q := MustDense([]float64{0, 0, 0, 1})
	if !approx(TV(p, q), 1, eps) {
		t.Fatalf("TV of disjoint points = %v", TV(p, q))
	}
	if !approx(TV(u, p), 0.75, eps) {
		t.Fatalf("TV(uniform, point) = %v, want 0.75", TV(u, p))
	}
}

func TestTVProperties(t *testing.T) {
	r := rng.New(12)
	err := quick.Check(func(seed uint64) bool {
		rr := rng.New(seed)
		n := 5 + rr.Intn(60)
		a, b, c := randomPC(rr, n, 6), randomPC(rr, n, 6), randomPC(rr, n, 6)
		tvAB, tvBA := TV(a, b), TV(b, a)
		if !approx(tvAB, tvBA, 1e-12) {
			return false // symmetry
		}
		if tvAB < 0 || tvAB > 1+1e-12 {
			return false // range
		}
		if TV(a, c) > tvAB+TV(b, c)+1e-9 {
			return false // triangle inequality
		}
		return true
	}, &quick.Config{MaxCount: 150, Rand: nil})
	_ = r
	if err != nil {
		t.Fatal(err)
	}
}

func TestTVMixedRepresentations(t *testing.T) {
	r := rng.New(13)
	for trial := 0; trial < 40; trial++ {
		n := 10 + r.Intn(80)
		a := randomPC(r, n, 7)
		b := randomPC(r, n, 7)
		want := TV(ToDense(a), ToDense(b))
		if got := TV(a, b); !approx(got, want, 1e-9) {
			t.Fatalf("PC-PC TV = %v, dense reference = %v", got, want)
		}
		if got := TV(a, ToDense(b)); !approx(got, want, 1e-9) {
			t.Fatalf("PC-dense TV = %v, want %v", got, want)
		}
	}
}

func TestTVDomainSplitsAdditively(t *testing.T) {
	r := rng.New(14)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(50)
		a, b := randomPC(r, n, 6), randomPC(r, n, 6)
		cut := 1 + r.Intn(n-1)
		left := intervals.NewDomain(n, []intervals.Interval{{Lo: 0, Hi: cut}})
		right := intervals.NewDomain(n, []intervals.Interval{{Lo: cut, Hi: n}})
		total := TVDomain(a, b, left) + TVDomain(a, b, right)
		if !approx(total, TV(a, b), 1e-9) {
			t.Fatalf("TV not additive over split: %v vs %v", total, TV(a, b))
		}
	}
}

func TestTVDomainEmpty(t *testing.T) {
	a, b := Uniform(10), PointMass(10, 3)
	if got := TVDomain(a, b, intervals.EmptyDomain(10)); got != 0 {
		t.Fatalf("TV over empty domain = %v", got)
	}
}

func TestChiSqKnownValue(t *testing.T) {
	// dχ²(p ‖ u) for u uniform over 2: Σ (p_i - 0.5)²/0.5.
	p := MustDense([]float64{0.75, 0.25})
	u := Uniform(2)
	want := (0.25*0.25)/0.5 + (0.25*0.25)/0.5
	if got := ChiSq(p, u); !approx(got, want, eps) {
		t.Fatalf("ChiSq = %v, want %v", got, want)
	}
}

func TestChiSqAsymmetric(t *testing.T) {
	p := MustDense([]float64{0.9, 0.1})
	q := MustDense([]float64{0.5, 0.5})
	if approx(ChiSq(p, q), ChiSq(q, p), 1e-9) {
		t.Fatal("χ² should be asymmetric here")
	}
}

func TestChiSqZeroDenominator(t *testing.T) {
	p := MustDense([]float64{0.5, 0.5})
	q := MustDense([]float64{1, 0})
	if !math.IsInf(ChiSq(p, q), 1) {
		t.Fatal("χ² against zero-mass support should be +Inf")
	}
	// Both zero on the second element: finite.
	p2 := MustDense([]float64{1, 0})
	if math.IsInf(ChiSq(p2, q), 1) {
		t.Fatal("χ² should ignore jointly-zero elements")
	}
}

func TestChiSqDominatesTVSquared(t *testing.T) {
	// Cauchy-Schwarz: dTV(p,q)² <= dχ²(p‖q)/4 for distributions.
	r := rng.New(15)
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.Intn(40)
		p, q := randomPC(r, n, 6), randomPC(r, n, 6)
		tv := TV(p, q)
		cs := ChiSq(p, q)
		if tv*tv > cs/4+1e-9 {
			t.Fatalf("χ² bound violated: tv=%v cs=%v", tv, cs)
		}
	}
}

func TestHellingerKnownValues(t *testing.T) {
	u := Uniform(2)
	if !approx(HellingerSquared(u, u), 0, eps) {
		t.Fatal("self Hellinger != 0")
	}
	p := MustDense([]float64{1, 0})
	q := MustDense([]float64{0, 1})
	// Disjoint supports: H² = ½(1 + 1) = 1.
	if !approx(HellingerSquared(p, q), 1, eps) {
		t.Fatalf("disjoint H² = %v", HellingerSquared(p, q))
	}
}

func TestHellingerTVSandwich(t *testing.T) {
	// H² <= TV <= √2·H for all distribution pairs.
	r := rng.New(25)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(40)
		a, b := randomPC(r, n, 6), randomPC(r, n, 6)
		h2 := HellingerSquared(a, b)
		tv := TV(a, b)
		if h2 > tv+1e-9 {
			t.Fatalf("H² %v > TV %v", h2, tv)
		}
		if tv > math.Sqrt2*math.Sqrt(h2)+1e-9 {
			t.Fatalf("TV %v > √2·H %v", tv, math.Sqrt2*math.Sqrt(h2))
		}
	}
}

func TestKLKnownValuesAndPinsker(t *testing.T) {
	p := MustDense([]float64{0.75, 0.25})
	u := Uniform(2)
	want := 0.75*math.Log(1.5) + 0.25*math.Log(0.5)
	if !approx(KL(p, u), want, 1e-12) {
		t.Fatalf("KL = %v, want %v", KL(p, u), want)
	}
	if !approx(KL(u, u), 0, eps) {
		t.Fatal("self KL != 0")
	}
	// Zero in the second argument where the first has mass: +Inf.
	q := MustDense([]float64{1, 0})
	if !math.IsInf(KL(p, q), 1) {
		t.Fatal("KL against missing support should be +Inf")
	}
	// Zero in the first argument is fine.
	if math.IsInf(KL(q, p), 1) {
		t.Fatal("KL with zero numerator mass should be finite")
	}
	// Pinsker: TV <= √(KL/2) on random pairs with full support.
	r := rng.New(26)
	for trial := 0; trial < 60; trial++ {
		n := 4 + r.Intn(30)
		a, b := randomPC(r, n, 5), randomPC(r, n, 5)
		if tv, kl := TV(a, b), KL(a, b); tv > math.Sqrt(kl/2)+1e-9 {
			t.Fatalf("Pinsker violated: TV %v, KL %v", tv, kl)
		}
	}
}

func TestL2AndLInf(t *testing.T) {
	p := MustDense([]float64{0.5, 0.5, 0, 0})
	q := MustDense([]float64{0.25, 0.25, 0.25, 0.25})
	if !approx(L2Squared(p, q), 4*0.0625, eps) {
		t.Fatalf("L2² = %v", L2Squared(p, q))
	}
	if !approx(LInf(p, q), 0.25, eps) {
		t.Fatalf("L∞ = %v", LInf(p, q))
	}
	if !approx(L1(p, q), 1.0, eps) {
		t.Fatalf("L1 = %v", L1(p, q))
	}
}

func TestMix(t *testing.T) {
	p := MustDense([]float64{1, 0})
	q := MustDense([]float64{0, 1})
	m := Mix(0.3, p, q)
	if !approx(m.Prob(0), 0.3, eps) || !approx(m.Prob(1), 0.7, eps) {
		t.Fatalf("mix = %v, %v", m.Prob(0), m.Prob(1))
	}
}

func TestMixPCMatchesDense(t *testing.T) {
	r := rng.New(16)
	for trial := 0; trial < 30; trial++ {
		n := 10 + r.Intn(50)
		a, b := randomPC(r, n, 5), randomPC(r, n, 5)
		alpha := r.Float64()
		got := MixPC(alpha, a, b)
		want := Mix(alpha, a, b)
		if TV(got, want) > 1e-9 {
			t.Fatalf("MixPC disagrees with Mix")
		}
	}
}

func TestNormalize(t *testing.T) {
	d := MustDense([]float64{2, 2, 4})
	nd := Normalize(d)
	if !approx(TotalMass(nd), 1, eps) {
		t.Fatal("normalize mass != 1")
	}
	if !approx(nd.Prob(2), 0.5, eps) {
		t.Fatalf("normalized prob = %v", nd.Prob(2))
	}
	pc := MustPiecewiseConstant(4, []Piece{{intervals.Interval{Lo: 0, Hi: 4}, 5}})
	npc := Normalize(pc)
	if !approx(TotalMass(npc), 1, eps) {
		t.Fatal("PC normalize mass != 1")
	}
	if _, ok := npc.(*PiecewiseConstant); !ok {
		t.Fatal("PC normalize should stay piecewise-constant")
	}
}

func TestFlattenPreservesIntervalMasses(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 40; trial++ {
		n := 10 + r.Intn(60)
		d := randomPC(r, n, 10)
		cuts := make([]int, r.Intn(6))
		for i := range cuts {
			cuts[i] = 1 + r.Intn(n-1)
		}
		part := intervals.FromBoundaries(n, cuts)
		flat := Flatten(d, part)
		for j := 0; j < part.Count(); j++ {
			iv := part.Interval(j)
			if !approx(flat.IntervalMass(iv), d.IntervalMass(iv), 1e-9) {
				t.Fatalf("flatten changed mass of %v", iv)
			}
		}
		if !approx(TotalMass(flat), TotalMass(d), 1e-9) {
			t.Fatal("flatten changed total mass")
		}
	}
}

func TestFlattenIdempotentOnHistogram(t *testing.T) {
	// Flattening a distribution over its own partition is the identity.
	r := rng.New(18)
	d := randomPC(r, 50, 6)
	flat := Flatten(d, d.Partition())
	if TV(d, flat) > eps {
		t.Fatal("flatten over own partition changed distribution")
	}
}

func TestFlattenExcept(t *testing.T) {
	// d non-constant on [0,4); flatten except interval 0 keeps it intact.
	d := MustDense([]float64{0.4, 0.1, 0.3, 0.2})
	part := intervals.FromBoundaries(4, []int{2})
	got := FlattenExcept(d, part, map[int]bool{0: true})
	if !approx(got.Prob(0), 0.4, eps) || !approx(got.Prob(1), 0.1, eps) {
		t.Fatal("excepted interval was flattened")
	}
	if !approx(got.Prob(2), 0.25, eps) || !approx(got.Prob(3), 0.25, eps) {
		t.Fatal("non-excepted interval not flattened")
	}
}

func TestSupport(t *testing.T) {
	d := MustDense([]float64{0, 0.5, 0, 0.5, 0})
	if Support(d) != 2 {
		t.Fatalf("support = %d", Support(d))
	}
	if Support(Uniform(7)) != 7 {
		t.Fatal("uniform support != n")
	}
}

func TestDomainMass(t *testing.T) {
	d := Uniform(10)
	g := intervals.NewDomain(10, []intervals.Interval{{Lo: 0, Hi: 3}, {Lo: 7, Hi: 9}})
	if !approx(DomainMass(d, g), 0.5, eps) {
		t.Fatalf("DomainMass = %v", DomainMass(d, g))
	}
}

func TestMismatchedDomainsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TV over mismatched domains did not panic")
		}
	}()
	TV(Uniform(3), Uniform(4))
}

func TestPCProbPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Prob out of range did not panic")
		}
	}()
	Uniform(3).Prob(3)
}

func TestConditional(t *testing.T) {
	d := MustDense([]float64{0.1, 0.2, 0.3, 0.4})
	g := intervals.NewDomain(4, []intervals.Interval{{Lo: 1, Hi: 3}})
	c := Conditional(d, g)
	if !approx(c.Prob(0), 0, eps) || !approx(c.Prob(3), 0, eps) {
		t.Fatal("mass outside the domain")
	}
	if !approx(c.Prob(1), 0.4, eps) || !approx(c.Prob(2), 0.6, eps) {
		t.Fatalf("conditional masses: %v %v", c.Prob(1), c.Prob(2))
	}
	if !approx(TotalMass(c), 1, eps) {
		t.Fatal("conditional not normalized")
	}
	// Conditioning on the full domain is the identity (for a distribution).
	full := Conditional(d, intervals.FullDomain(4))
	if TV(d, full) > eps {
		t.Fatal("full-domain conditioning changed the distribution")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero-mass conditioning did not panic")
			}
		}()
		Conditional(MustDense([]float64{1, 0}), intervals.NewDomain(2, []intervals.Interval{{Lo: 1, Hi: 2}}))
	}()
}

func TestConditionalMatchesOracleView(t *testing.T) {
	// The conditional distribution is what rejection sampling into g
	// yields: spot-check per-element proportions on a random instance.
	r := rng.New(27)
	d := randomPC(r, 60, 6)
	g := intervals.NewDomain(60, []intervals.Interval{{Lo: 10, Hi: 25}, {Lo: 40, Hi: 55}})
	c := Conditional(d, g)
	mass := DomainMass(d, g)
	for i := 0; i < 60; i++ {
		want := 0.0
		if g.Contains(i) {
			want = d.Prob(i) / mass
		}
		if !approx(c.Prob(i), want, 1e-12) {
			t.Fatalf("element %d: %v vs %v", i, c.Prob(i), want)
		}
	}
}
