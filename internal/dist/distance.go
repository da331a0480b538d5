package dist

import (
	"math"

	"repro/internal/intervals"
)

// walk visits the maximal stretches of [lo, hi) on which both a and b are
// constant, calling f(lo, hi, pa, pb) with the per-element probabilities.
// The cost is O(#runs of a + #runs of b) within the range.
func walk(a, b Distribution, lo, hi int, f func(lo, hi int, pa, pb float64)) {
	for i := lo; i < hi; {
		end := minInt(minInt(a.RunEnd(i), b.RunEnd(i)), hi)
		f(i, end, a.Prob(i), b.Prob(i))
		i = end
	}
}

// walkDomain is walk over every interval of a sub-domain.
func walkDomain(a, b Distribution, g *intervals.Domain, f func(lo, hi int, pa, pb float64)) {
	for _, iv := range g.Intervals() {
		walk(a, b, iv.Lo, iv.Hi, f)
	}
}

// TV returns the total variation distance (half the ℓ1 distance) between a
// and b. For genuine probability distributions it lies in [0, 1].
func TV(a, b Distribution) float64 {
	return TVDomain(a, b, intervals.FullDomain(checkSameN(a, b)))
}

// TVDomain returns the total variation distance restricted to the
// sub-domain g: half the ℓ1 distance over g's elements (footnote 6 of the
// paper).
func TVDomain(a, b Distribution, g *intervals.Domain) float64 {
	checkSameN(a, b)
	sum := 0.0
	walkDomain(a, b, g, func(lo, hi int, pa, pb float64) {
		sum += float64(hi-lo) * math.Abs(pa-pb)
	})
	return sum / 2
}

// L1 returns the ℓ1 distance (twice TV).
func L1(a, b Distribution) float64 { return 2 * TV(a, b) }

// L2Squared returns the squared ℓ2 distance between a and b.
func L2Squared(a, b Distribution) float64 {
	sum := 0.0
	walk(a, b, 0, checkSameN(a, b), func(lo, hi int, pa, pb float64) {
		d := pa - pb
		sum += float64(hi-lo) * d * d
	})
	return sum
}

// LInf returns the ℓ∞ distance between a and b.
func LInf(a, b Distribution) float64 {
	worst := 0.0
	walk(a, b, 0, checkSameN(a, b), func(lo, hi int, pa, pb float64) {
		if d := math.Abs(pa - pb); d > worst {
			worst = d
		}
	})
	return worst
}

// ChiSq returns the asymmetric χ² distance dχ²(a ‖ b) = Σ (a(i)-b(i))²/b(i)
// (Section 2). Elements where b(i) = 0: a zero a(i) contributes 0, a
// positive a(i) makes the distance +Inf.
func ChiSq(a, b Distribution) float64 {
	return ChiSqDomain(a, b, intervals.FullDomain(checkSameN(a, b)))
}

// ChiSqDomain returns dχ²(a ‖ b) restricted to the sub-domain g
// (footnote 6 of the paper).
func ChiSqDomain(a, b Distribution, g *intervals.Domain) float64 {
	checkSameN(a, b)
	sum := 0.0
	walkDomain(a, b, g, func(lo, hi int, pa, pb float64) {
		if pb == 0 {
			if pa != 0 {
				sum = math.Inf(1)
			}
			return
		}
		d := pa - pb
		sum += float64(hi-lo) * d * d / pb
	})
	return sum
}

// HellingerSquared returns the squared Hellinger distance
// H²(a, b) = ½·Σ (√a(i) − √b(i))², which satisfies H² <= dTV <= √2·H —
// the standard companion metric in the distribution-testing literature.
func HellingerSquared(a, b Distribution) float64 {
	sum := 0.0
	walk(a, b, 0, checkSameN(a, b), func(lo, hi int, pa, pb float64) {
		d := math.Sqrt(pa) - math.Sqrt(pb)
		sum += float64(hi-lo) * d * d
	})
	return sum / 2
}

// KL returns the Kullback–Leibler divergence KL(a ‖ b) = Σ a(i)·ln(a(i)/b(i))
// in nats. Elements with a(i) = 0 contribute 0; a(i) > 0 with b(i) = 0
// makes the divergence +Inf. Pinsker's inequality dTV <= √(KL/2) relates
// it to the tester's metric.
func KL(a, b Distribution) float64 {
	sum := 0.0
	walk(a, b, 0, checkSameN(a, b), func(lo, hi int, pa, pb float64) {
		if pa == 0 {
			return
		}
		if pb == 0 {
			sum = math.Inf(1)
			return
		}
		sum += float64(hi-lo) * pa * math.Log(pa/pb)
	})
	return sum
}

// Mix returns alpha*a + (1-alpha)*b as a Dense distribution.
func Mix(alpha float64, a, b Distribution) *Dense {
	n := checkSameN(a, b)
	p := make([]float64, n)
	walk(a, b, 0, n, func(lo, hi int, pa, pb float64) {
		v := alpha*pa + (1-alpha)*pb
		for i := lo; i < hi; i++ {
			p[i] = v
		}
	})
	return MustDense(p)
}

// MixPC returns alpha*a + (1-alpha)*b as a PiecewiseConstant over the common
// refinement of the two piece structures; O(pieces), not O(n).
func MixPC(alpha float64, a, b *PiecewiseConstant) *PiecewiseConstant {
	n := checkSameN(a, b)
	pieces := make([]Piece, 0, a.PieceCount()+b.PieceCount())
	walk(a, b, 0, n, func(lo, hi int, pa, pb float64) {
		v := alpha*pa + (1-alpha)*pb
		pieces = append(pieces, Piece{Iv: intervals.Interval{Lo: lo, Hi: hi}, Mass: v * float64(hi-lo)})
	})
	return MustPiecewiseConstant(n, pieces)
}

// Conditional returns the distribution of d conditioned on the sub-domain
// g: d's mass inside g renormalized, zero outside — what rejection
// sampling d until a draw lands in g yields. It panics if g carries no
// mass under d.
func Conditional(d Distribution, g *intervals.Domain) *Dense {
	mass := DomainMass(d, g)
	if mass <= 0 {
		panic("dist: conditioning on a zero-mass domain")
	}
	p := make([]float64, d.N())
	for _, iv := range g.Intervals() {
		for i := iv.Lo; i < iv.Hi; {
			end := d.RunEnd(i)
			if end > iv.Hi {
				end = iv.Hi
			}
			v := d.Prob(i) / mass
			for ; i < end; i++ {
				p[i] = v
			}
		}
	}
	return MustDense(p)
}

// Normalize returns d scaled to total mass 1. It panics if d has zero
// total mass.
func Normalize(d Distribution) Distribution {
	total := TotalMass(d)
	if total <= 0 {
		panic("dist: cannot normalize zero-mass distribution")
	}
	switch t := d.(type) {
	case *PiecewiseConstant:
		pieces := t.Pieces()
		for j := range pieces {
			pieces[j].Mass /= total
		}
		return MustPiecewiseConstant(t.n, pieces)
	default:
		p := make([]float64, d.N())
		for i := 0; i < len(p); {
			end := minInt(d.RunEnd(i), len(p))
			v := d.Prob(i) / total
			for ; i < end; i++ {
				p[i] = v
			}
		}
		return MustDense(p)
	}
}

// Flatten returns the flattening of d over partition p: the
// piecewise-constant distribution assigning each interval I of p the mass
// d(I) spread uniformly (the paper's D(I)/|I| operation).
func Flatten(d Distribution, p *intervals.Partition) *PiecewiseConstant {
	if d.N() != p.N() {
		panic("dist: flatten over mismatched domain")
	}
	pieces := make([]Piece, p.Count())
	for j := range pieces {
		iv := p.Interval(j)
		pieces[j] = Piece{Iv: iv, Mass: d.IntervalMass(iv)}
	}
	return MustPiecewiseConstant(d.N(), pieces)
}

// FlattenExcept returns the paper's D̃^J (Section 3.2): equal to d on the
// intervals of p whose indices appear in except, and equal to the flattening
// of d elsewhere. The result is Dense since the exempted intervals keep
// their original (arbitrary) values.
func FlattenExcept(d Distribution, p *intervals.Partition, except map[int]bool) *Dense {
	if d.N() != p.N() {
		panic("dist: flatten over mismatched domain")
	}
	probs := make([]float64, d.N())
	for j := 0; j < p.Count(); j++ {
		iv := p.Interval(j)
		if except[j] {
			for i := iv.Lo; i < iv.Hi; i++ {
				probs[i] = d.Prob(i)
			}
			continue
		}
		v := d.IntervalMass(iv) / float64(iv.Len())
		for i := iv.Lo; i < iv.Hi; i++ {
			probs[i] = v
		}
	}
	return MustDense(probs)
}

// Support returns the number of elements with positive mass.
func Support(d Distribution) int {
	count := 0
	for i := 0; i < d.N(); {
		end := minInt(d.RunEnd(i), d.N())
		if d.Prob(i) > 0 {
			count += end - i
		}
		i = end
	}
	return count
}

// checkSameN panics unless a and b share a domain size, which it returns.
func checkSameN(a, b Distribution) int {
	if a.N() != b.N() {
		panic("dist: distributions over different domain sizes")
	}
	return a.N()
}
