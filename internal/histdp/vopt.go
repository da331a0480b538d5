package histdp

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/intervals"
)

// ProjectL2 computes the V-optimal k-histogram of d: the k-piecewise-
// constant function minimizing the squared ℓ2 error Σ_i (d(i) − h(i))²,
// with each segment taking the mean of d's values on it (the classic
// [JKM+98] dynamic program, O(k·B²) over d's B pieces with O(1) segment
// costs from prefix sums). The result is normalized to a distribution;
// sse is the squared error of the unnormalized optimum.
func ProjectL2(d *dist.PiecewiseConstant, k int) (proj *dist.PiecewiseConstant, sse float64, err error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("histdp: k = %d must be positive", k)
	}
	pieces := d.Pieces()
	B := len(pieces)
	if k >= B {
		return d, 0, nil
	}
	s, err := segment(context.Background(), B, k, l2Rows(pieces))
	if err != nil {
		return nil, 0, err
	}
	return l2Project(d, pieces, s.starts(k-1)), s.last(k - 1), nil
}

// l2Rows returns the row function of the squared-error segment cost:
// row(a, c) sets c[b] to the squared deviation of d's values on pieces
// a..b from their mean, from prefix sums over elements of the count, Σ
// value and Σ value², aggregated piece by piece.
func l2Rows(pieces []dist.Piece) func(a int, c []float64) {
	B := len(pieces)
	w := make([]float64, B+1)
	wv := make([]float64, B+1)
	wv2 := make([]float64, B+1)
	for j, pc := range pieces {
		ln := float64(pc.Iv.Len())
		v := pc.Mass / ln
		w[j+1] = w[j] + ln
		wv[j+1] = wv[j] + ln*v
		wv2[j+1] = wv2[j] + ln*v*v
	}
	return func(a int, c []float64) {
		for b := a; b < B; b++ {
			cw := w[b+1] - w[a]
			cv := wv[b+1] - wv[a]
			cv2 := wv2[b+1] - wv2[a]
			cost := cv2 - cv*cv/cw
			if cost < 0 {
				cost = 0 // numeric guard
			}
			c[b] = cost
		}
	}
}

// l2Project builds the normalized histogram of d over the cover with the
// given segment starts: each segment keeps d's mass on it.
func l2Project(d *dist.PiecewiseConstant, pieces []dist.Piece, starts []int) *dist.PiecewiseConstant {
	out := make([]dist.Piece, 0, len(starts))
	mass := 0.0
	for si, a := range starts {
		end := len(pieces)
		if si+1 < len(starts) {
			end = starts[si+1]
		}
		iv := intervals.Interval{Lo: pieces[a].Iv.Lo, Hi: pieces[end-1].Iv.Hi}
		segMass := d.IntervalMass(iv) // mean value × length == interval mass
		out = append(out, dist.Piece{Iv: iv, Mass: segMass})
		mass += segMass
	}
	if mass <= 0 {
		return dist.Uniform(d.N())
	}
	for j := range out {
		out[j].Mass /= mass
	}
	return dist.MustPiecewiseConstant(d.N(), out)
}

// HistogramComplexity returns the number of pieces of the canonical
// (compacted) representation of d — the smallest k for which d ∈ H_k.
func HistogramComplexity(d *dist.PiecewiseConstant) int {
	return d.Compact().PieceCount()
}
