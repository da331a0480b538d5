// Package dist provides discrete probability distributions over the domain
// {0, ..., n-1} together with the distance machinery the paper uses: total
// variation (ℓ1/2) and the asymmetric χ² distance, both over the full
// domain and restricted to a sub-domain (Section 2 and footnote 6 of the
// paper).
//
// Two representations are provided. Dense stores one probability per
// element and is exact for small n. PiecewiseConstant stores one mass per
// constant piece; a k-histogram over n = 2^20 elements costs O(k) memory,
// which is what makes the large-n experiments feasible. All distance
// computations are representation-generic through the Distribution
// interface and cost O(#constant runs) rather than O(n) where possible.
package dist

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/intervals"
)

// Distribution is a non-negative measure on {0, ..., n-1}. A probability
// distribution has TotalMass 1, but sub-distributions (restrictions to a
// sub-domain, as used by the sieve) are also representable.
type Distribution interface {
	// N returns the domain size.
	N() int
	// Prob returns the mass of element i. It panics outside [0, n).
	Prob(i int) float64
	// RunEnd returns some j > i such that Prob is constant on [i, j).
	// Walk-based algorithms use it to skip constant stretches.
	RunEnd(i int) int
	// IntervalMass returns the total mass of the half-open interval.
	IntervalMass(iv intervals.Interval) float64
}

// Dense is a distribution stored as one float64 per domain element.
type Dense struct {
	p      []float64
	prefix []float64 // prefix[i] = sum of p[0..i-1]; len n+1
}

// NewDense validates p (non-negative, finite) and returns the Dense
// distribution with exactly those masses. It does not normalize; use
// Normalize for that.
func NewDense(p []float64) (*Dense, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("dist: empty probability vector")
	}
	for i, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dist: invalid mass %v at element %d", v, i)
		}
	}
	d := &Dense{p: append([]float64(nil), p...)}
	d.rebuildPrefix()
	return d, nil
}

// MustDense is NewDense but panics on error.
func MustDense(p []float64) *Dense {
	d, err := NewDense(p)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Dense) rebuildPrefix() {
	d.prefix = make([]float64, len(d.p)+1)
	for i, v := range d.p {
		d.prefix[i+1] = d.prefix[i] + v
	}
}

// N returns the domain size.
func (d *Dense) N() int { return len(d.p) }

// Prob returns the mass of element i.
func (d *Dense) Prob(i int) float64 { return d.p[i] }

// RunEnd returns i+1: Dense makes no constant-run promises.
func (d *Dense) RunEnd(i int) int { return i + 1 }

// IntervalMass returns the mass of iv via the prefix sums.
func (d *Dense) IntervalMass(iv intervals.Interval) float64 {
	iv = iv.Intersect(intervals.Interval{Lo: 0, Hi: len(d.p)})
	if iv.Empty() {
		return 0
	}
	return d.prefix[iv.Hi] - d.prefix[iv.Lo]
}

// Piece is one constant stretch of a PiecewiseConstant distribution: the
// elements of Iv share the total mass Mass uniformly.
type Piece struct {
	Iv   intervals.Interval
	Mass float64
}

// PiecewiseConstant is a distribution that is constant on each interval of
// an underlying partition. A k-histogram is exactly a PiecewiseConstant
// with k pieces and total mass 1.
type PiecewiseConstant struct {
	n      int
	pieces []Piece
	prefix []float64 // prefix[j] = mass of pieces[0..j-1]; len pieces+1
	starts []int     // starts[j] = pieces[j].Iv.Lo
}

// NewPiecewiseConstant validates that the pieces' intervals form a
// partition of [0, n) and that masses are non-negative and finite.
func NewPiecewiseConstant(n int, pieces []Piece) (*PiecewiseConstant, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: domain size %d must be positive", n)
	}
	if len(pieces) == 0 {
		return nil, fmt.Errorf("dist: no pieces")
	}
	prev := 0
	for j, pc := range pieces {
		if pc.Iv.Lo != prev || pc.Iv.Empty() {
			return nil, fmt.Errorf("dist: piece %d interval %v does not continue partition at %d", j, pc.Iv, prev)
		}
		if pc.Mass < 0 || math.IsNaN(pc.Mass) || math.IsInf(pc.Mass, 0) {
			return nil, fmt.Errorf("dist: piece %d has invalid mass %v", j, pc.Mass)
		}
		prev = pc.Iv.Hi
	}
	if prev != n {
		return nil, fmt.Errorf("dist: pieces cover [0,%d), domain is [0,%d)", prev, n)
	}
	pc := &PiecewiseConstant{n: n, pieces: append([]Piece(nil), pieces...)}
	pc.rebuild()
	return pc, nil
}

// MustPiecewiseConstant is NewPiecewiseConstant but panics on error.
func MustPiecewiseConstant(n int, pieces []Piece) *PiecewiseConstant {
	d, err := NewPiecewiseConstant(n, pieces)
	if err != nil {
		panic(err)
	}
	return d
}

// FromWeights builds the piecewise-constant distribution that is flat on
// each interval of p with the given per-interval masses.
func FromWeights(p *intervals.Partition, masses []float64) (*PiecewiseConstant, error) {
	if len(masses) != p.Count() {
		return nil, fmt.Errorf("dist: %d masses for %d intervals", len(masses), p.Count())
	}
	pieces := make([]Piece, p.Count())
	for j := range pieces {
		pieces[j] = Piece{Iv: p.Interval(j), Mass: masses[j]}
	}
	return NewPiecewiseConstant(p.N(), pieces)
}

// Uniform returns the uniform distribution over [0, n).
func Uniform(n int) *PiecewiseConstant {
	return MustPiecewiseConstant(n, []Piece{{Iv: intervals.Interval{Lo: 0, Hi: n}, Mass: 1}})
}

// PointMass returns the distribution concentrated on element i of [0, n).
func PointMass(n, i int) *PiecewiseConstant {
	pieces := make([]Piece, 0, 3)
	if i > 0 {
		pieces = append(pieces, Piece{Iv: intervals.Interval{Lo: 0, Hi: i}})
	}
	pieces = append(pieces, Piece{Iv: intervals.Interval{Lo: i, Hi: i + 1}, Mass: 1})
	if i+1 < n {
		pieces = append(pieces, Piece{Iv: intervals.Interval{Lo: i + 1, Hi: n}})
	}
	return MustPiecewiseConstant(n, pieces)
}

func (d *PiecewiseConstant) rebuild() {
	d.prefix = make([]float64, len(d.pieces)+1)
	d.starts = make([]int, len(d.pieces))
	for j, pc := range d.pieces {
		d.prefix[j+1] = d.prefix[j] + pc.Mass
		d.starts[j] = pc.Iv.Lo
	}
}

// N returns the domain size.
func (d *PiecewiseConstant) N() int { return d.n }

// PieceCount returns the number of constant pieces (the histogram's k).
func (d *PiecewiseConstant) PieceCount() int { return len(d.pieces) }

// Pieces returns a copy of the piece list.
func (d *PiecewiseConstant) Pieces() []Piece { return append([]Piece(nil), d.pieces...) }

// pieceIndex returns the index of the piece containing element i.
func (d *PiecewiseConstant) pieceIndex(i int) int {
	return sort.SearchInts(d.starts, i+1) - 1
}

// Prob returns the mass of element i.
func (d *PiecewiseConstant) Prob(i int) float64 {
	if i < 0 || i >= d.n {
		panic(fmt.Sprintf("dist: element %d outside [0,%d)", i, d.n))
	}
	pc := d.pieces[d.pieceIndex(i)]
	return pc.Mass / float64(pc.Iv.Len())
}

// RunEnd returns the end of the constant piece containing i.
func (d *PiecewiseConstant) RunEnd(i int) int {
	return d.pieces[d.pieceIndex(i)].Iv.Hi
}

// IntervalMass returns the mass of iv, splitting boundary pieces
// proportionally (pieces are flat, so the split is exact).
func (d *PiecewiseConstant) IntervalMass(iv intervals.Interval) float64 {
	iv = iv.Intersect(intervals.Interval{Lo: 0, Hi: d.n})
	if iv.Empty() {
		return 0
	}
	jLo := d.pieceIndex(iv.Lo)
	jHi := d.pieceIndex(iv.Hi - 1)
	if jLo == jHi {
		pc := d.pieces[jLo]
		return pc.Mass * float64(iv.Len()) / float64(pc.Iv.Len())
	}
	// Full pieces strictly between jLo and jHi, plus partial ends.
	total := d.prefix[jHi] - d.prefix[jLo+1]
	lo := d.pieces[jLo]
	total += lo.Mass * float64(lo.Iv.Hi-iv.Lo) / float64(lo.Iv.Len())
	hi := d.pieces[jHi]
	total += hi.Mass * float64(iv.Hi-hi.Iv.Lo) / float64(hi.Iv.Len())
	return total
}

// Partition returns the partition induced by the pieces.
func (d *PiecewiseConstant) Partition() *intervals.Partition {
	ivs := make([]intervals.Interval, len(d.pieces))
	for j, pc := range d.pieces {
		ivs[j] = pc.Iv
	}
	return intervals.MustPartition(d.n, ivs)
}

// Compact merges adjacent pieces whose element-probabilities are equal (to
// within 1e-15 relative tolerance), returning the canonical minimal-piece
// representation. The number of pieces of the result is the true
// "histogram complexity" of the distribution.
func (d *PiecewiseConstant) Compact() *PiecewiseConstant {
	out := make([]Piece, 0, len(d.pieces))
	for _, pc := range d.pieces {
		if len(out) > 0 {
			last := &out[len(out)-1]
			pLast := last.Mass / float64(last.Iv.Len())
			pCur := pc.Mass / float64(pc.Iv.Len())
			if nearlyEqual(pLast, pCur) {
				last.Iv.Hi = pc.Iv.Hi
				last.Mass += pc.Mass
				continue
			}
		}
		out = append(out, pc)
	}
	return MustPiecewiseConstant(d.n, out)
}

func nearlyEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale || diff <= 1e-300
}

// ToPiecewiseConstant converts a Dense distribution to its minimal
// piecewise-constant representation by merging maximal runs of exactly
// equal values. Sparse or blocky dense vectors (e.g. permuted
// small-support instances) compress to few pieces.
func (d *Dense) ToPiecewiseConstant() *PiecewiseConstant {
	var pieces []Piece
	for i := 0; i < len(d.p); {
		j := i + 1
		for j < len(d.p) && d.p[j] == d.p[i] {
			j++
		}
		pieces = append(pieces, Piece{
			Iv:   intervals.Interval{Lo: i, Hi: j},
			Mass: d.p[i] * float64(j-i),
		})
		i = j
	}
	return MustPiecewiseConstant(len(d.p), pieces)
}

// ToDense materializes the distribution as a Dense vector (O(n) memory).
func ToDense(d Distribution) *Dense {
	p := make([]float64, d.N())
	for i := 0; i < len(p); {
		end := minInt(d.RunEnd(i), len(p))
		v := d.Prob(i)
		for ; i < end; i++ {
			p[i] = v
		}
	}
	return MustDense(p)
}

// TotalMass returns the mass of the whole domain.
func TotalMass(d Distribution) float64 {
	return d.IntervalMass(intervals.Interval{Lo: 0, Hi: d.N()})
}

// DomainMass returns the mass d assigns to the sub-domain g.
func DomainMass(d Distribution, g *intervals.Domain) float64 {
	total := 0.0
	for _, iv := range g.Intervals() {
		total += d.IntervalMass(iv)
	}
	return total
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
