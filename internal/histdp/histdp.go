// Package histdp implements the dynamic programs over histogram structure
// that the tester and the evaluation harness rely on:
//
//   - ProjectTV: given a piecewise-constant distribution D̂ and a sub-domain
//     G, find the k-histogram minimizing the restricted total-variation
//     distance to D̂ on G. This is the "checking" step of Algorithm 1
//     (Step 10), which the paper discharges to a poly(k, 1/ε) dynamic
//     program (citing [CDGR16, Lemma 4.11]).
//   - ProjectL2: the classic V-optimal histogram DP [JKM+98], minimizing the
//     squared ℓ2 error; used by the histogram-construction substrate.
//
// For the TV program, breakpoints of the optimum may be assumed to lie on
// the piece boundaries of D̂: within a stretch where D̂ is constant,
// moving a candidate breakpoint to the boundary of the stretch (keeping the
// closer of the two values) never increases the restricted ℓ1 distance
// when the mass constraint is relaxed. The DP therefore optimizes over
// segmentations of D̂'s pieces into at most k runs, scoring each run by the
// weighted-median absolute deviation of D̂'s values inside G. The relaxed
// optimum (over non-negative piecewise-constant functions) lower-bounds the
// true distance to the class of k-histogram distributions; normalizing the
// relaxed optimizer gives a feasible k-histogram whose distance
// upper-bounds it. Both values are reported.
//
// Both programs, and the distance curve, run one k-segment sweep
// (segment) over rows of segment costs computed as it needs them: O(k·B)
// memory over B pieces, with no bound on B.
package histdp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dist"
	"repro/internal/intervals"
)

// Projection is the result of projecting a distribution onto H_k.
type Projection struct {
	// Relaxed is the DP optimum: the minimal restricted TV distance to a
	// non-negative k-piecewise-constant function. It lower-bounds Distance.
	Relaxed float64
	// Projected is the normalized optimizer — a genuine k-histogram
	// distribution.
	Projected *dist.PiecewiseConstant
	// Distance is the restricted TV distance between the input and
	// Projected; an upper bound on the true distance to H_k.
	Distance float64
	// Cuts are the chosen segment boundaries (interior, ascending).
	Cuts []int
}

// ProjectTV projects d onto the class of k-histograms, measuring distance
// by total variation restricted to g. See the package comment for the
// relaxation semantics. The DP checks ctx before every row of segment
// costs and returns ctx.Err() once ctx is done.
func ProjectTV(ctx context.Context, d *dist.PiecewiseConstant, k int, g *intervals.Domain) (*Projection, error) {
	if k < 1 {
		return nil, fmt.Errorf("histdp: k = %d must be positive", k)
	}
	t, err := newTVCost(d, g)
	if err != nil {
		return nil, err
	}
	if k >= len(t.vals) {
		// d itself is feasible (it is a distribution with <= k pieces).
		return &Projection{Relaxed: 0, Projected: d, Distance: 0, Cuts: d.Partition().Boundaries()}, nil
	}
	s, err := segment(ctx, len(t.vals), k, t.rows())
	if err != nil {
		return nil, err
	}
	return t.project(d, g, s.last(k-1), s.starts(k-1)), nil
}

// DistanceToHk returns lower and upper bounds on the true restricted TV
// distance from d to the class of k-histogram distributions (see the
// package comment: the DP relaxation brackets the constrained optimum).
func DistanceToHk(d *dist.PiecewiseConstant, k int, g *intervals.Domain) (lower, upper float64, err error) {
	proj, err := ProjectTV(context.Background(), d, k, g)
	if err != nil {
		return 0, 0, err
	}
	return proj.Relaxed, proj.Distance, nil
}

// DistanceCurve returns the relaxed distance of d to H_k for every
// k = 1..kMax in a single DP pass (curve[k-1] is the distance at k) —
// the scree curve driving "how many bins does this column need" analyses.
// Layer j of one sweep holds the best cover with at most j+1 segments,
// so the whole curve costs one projection at k = kMax.
func DistanceCurve(d *dist.PiecewiseConstant, kMax int, g *intervals.Domain) ([]float64, error) {
	if kMax < 1 {
		return nil, fmt.Errorf("histdp: kMax = %d must be positive", kMax)
	}
	t, err := newTVCost(d, g)
	if err != nil {
		return nil, err
	}
	curve := make([]float64, kMax) // zero from k = B on: d fits exactly
	layers := min(kMax, len(t.vals))
	s, err := segment(context.Background(), len(t.vals), layers, t.rows())
	if err != nil {
		return nil, err
	}
	for j := 0; j < layers; j++ {
		curve[j] = s.last(j) / 2
	}
	return curve, nil
}

// tvCost holds the inputs of the TV segment cost: per piece of d, its
// per-element probability and its weight, the number of its elements
// inside g.
type tvCost struct {
	pieces  []dist.Piece
	vals    []float64
	weights []float64
}

func newTVCost(d *dist.PiecewiseConstant, g *intervals.Domain) (tvCost, error) {
	if d.N() != g.N() {
		return tvCost{}, fmt.Errorf("histdp: domain mismatch %d vs %d", d.N(), g.N())
	}
	pieces := d.Pieces()
	t := tvCost{pieces: pieces, vals: make([]float64, len(pieces)), weights: make([]float64, len(pieces))}
	for j, pc := range pieces {
		t.vals[j] = pc.Mass / float64(pc.Iv.Len())
		w := 0
		for _, giv := range g.Intervals() {
			w += pc.Iv.Intersect(giv).Len()
		}
		t.weights[j] = float64(w)
	}
	return t, nil
}

// rows returns the row function of the TV segment cost: row(a, c) sets
// c[b] = min over v of Σ_{j=a..b} w_j·|vals_j−v| for a <= b < B, the
// weighted-median deviation of the run, extending a Fenwick pair over the
// global value ranks one piece at a time (O(B log B) per row).
func (t tvCost) rows() func(a int, c []float64) {
	vals, weights := t.vals, t.weights
	B := len(vals)
	ranks := rankOf(vals)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	fw := newFenwick(B)  // total weight per rank
	fwv := newFenwick(B) // weight·value per rank
	return func(a int, c []float64) {
		fw.reset()
		fwv.reset()
		totalW, totalWV := 0.0, 0.0
		for b := a; b < B; b++ {
			if weights[b] > 0 {
				fw.add(ranks[b], weights[b])
				fwv.add(ranks[b], weights[b]*vals[b])
				totalW += weights[b]
				totalWV += weights[b] * vals[b]
			}
			if totalW == 0 {
				c[b] = 0
				continue
			}
			// Smallest rank with cumulative weight >= totalW/2.
			r := fw.findPrefix(totalW / 2)
			med := sorted[r]
			wLo := fw.prefix(r)
			wvLo := fwv.prefix(r)
			// Σ w|v − med| = med·wLo − wvLo + (totalWV − wvLo) − med·(totalW − wLo)
			cost := med*wLo - wvLo + (totalWV - wvLo) - med*(totalW-wLo)
			if cost < 0 {
				cost = 0 // float cancellation guard
			}
			c[b] = cost
		}
	}
}

// project builds the Projection of d from the optimal cover's ℓ1 cost
// and segment starts. Per segment, the relaxed optimizer takes the
// weighted median of vals over in-g weight; zero-weight segments take d's
// average value so the projection stays faithful off g.
func (t tvCost) project(d *dist.PiecewiseConstant, g *intervals.Domain, l1 float64, starts []int) *Projection {
	B := len(t.vals)
	segIvs := make([]intervals.Interval, 0, len(starts))
	segVals := make([]float64, 0, len(starts))
	cuts := make([]int, 0, len(starts)-1)
	for si, a := range starts {
		end := B
		if si+1 < len(starts) {
			end = starts[si+1]
		}
		iv := intervals.Interval{Lo: t.pieces[a].Iv.Lo, Hi: t.pieces[end-1].Iv.Hi}
		v, ok := weightedMedian(t.vals[a:end], t.weights[a:end])
		if !ok {
			v = d.IntervalMass(iv) / float64(iv.Len())
		}
		segIvs = append(segIvs, iv)
		segVals = append(segVals, v)
		if si > 0 {
			cuts = append(cuts, iv.Lo)
		}
	}
	relaxedPieces := make([]dist.Piece, len(segIvs))
	mass := 0.0
	for j := range segIvs {
		relaxedPieces[j] = dist.Piece{Iv: segIvs[j], Mass: segVals[j] * float64(segIvs[j].Len())}
		mass += relaxedPieces[j].Mass
	}
	var projected *dist.PiecewiseConstant
	if mass <= 0 {
		projected = dist.Uniform(d.N())
	} else {
		for j := range relaxedPieces {
			relaxedPieces[j].Mass /= mass
		}
		projected = dist.MustPiecewiseConstant(d.N(), relaxedPieces)
	}
	return &Projection{
		Relaxed:   l1 / 2,
		Projected: projected,
		Distance:  dist.TVDomain(d, projected, g),
		Cuts:      cuts,
	}
}

// segmentation is the table of the k-segment DP over B pieces: layer j
// holds, for every b, the least cost of covering pieces 0..b with at most
// j+1 segments and the first piece of that cover's last segment.
type segmentation struct {
	B     int
	best  []float64 // best[j*B+b]
	start []int32   // start[j*B+b]
}

// segment runs the k-segment DP over B pieces in one sweep, with the
// segment costs supplied a row at a time: row(a, c) fills c[b] =
// cost(a, b) for a <= b < B. The outer loop runs over a, the first piece
// of the last segment; each row is offered to every layer j <= a that can
// end with a segment starting there, then dropped, so memory is O(k·B)
// whatever B is. For each (layer, b) candidates arrive in ascending a and
// the first strict minimum wins; once row b has been offered, column b is
// complete and the cover with fewer segments, layer j−1's, wins ties.
// That is the tie order of the layer-by-layer recurrence (fewer segments
// first, then a = j..b under a strict <), so both pick the same covers.
// ctx is checked before every row.
func segment(ctx context.Context, B, k int, row func(a int, c []float64)) (segmentation, error) {
	s := segmentation{B: B, best: make([]float64, k*B), start: make([]int32, k*B)}
	for i := B; i < len(s.best); i++ {
		s.best[i] = math.Inf(1)
	}
	c := make([]float64, B)
	rows := B
	if k == 1 {
		rows = 1 // one segment: only the run starting at piece 0
	}
	for a := 0; a < rows; a++ {
		if err := ctx.Err(); err != nil {
			return segmentation{}, err
		}
		row(a, c)
		ca := c[a:B]
		if a == 0 {
			copy(s.best[:B], ca) // layer 0; its starts are all 0
		}
		for j := 1; j <= min(a, k-1); j++ {
			base := s.best[(j-1)*B+a-1]
			best := s.best[j*B+a : (j+1)*B][:len(ca)]
			start := s.start[j*B+a : (j+1)*B][:len(ca)]
			for i, x := range ca {
				if v := base + x; v < best[i] {
					best[i], start[i] = v, int32(a)
				}
			}
		}
		for j := 1; j < k; j++ {
			if fewer := s.best[(j-1)*B+a]; fewer <= s.best[j*B+a] {
				s.best[j*B+a], s.start[j*B+a] = fewer, s.start[(j-1)*B+a]
			}
		}
	}
	return s, nil
}

// last returns the least cost of covering all B pieces with at most j+1
// segments.
func (s segmentation) last(j int) float64 { return s.best[j*s.B+s.B-1] }

// starts walks layer j's choices back from the last piece and returns the
// segment starts of its cover, ascending (the first is 0).
func (s segmentation) starts(j int) []int {
	out := make([]int, 0, j+1)
	for b := s.B - 1; b >= 0; j-- {
		a := int(s.start[j*s.B+b])
		out = append(out, a)
		b = a - 1
	}
	slices.Reverse(out)
	return out
}

// weightedMedian returns the weighted median of vals (ok=false when all
// weights are zero).
func weightedMedian(vals, weights []float64) (float64, bool) {
	type vw struct{ v, w float64 }
	items := make([]vw, 0, len(vals))
	total := 0.0
	for i := range vals {
		if weights[i] > 0 {
			items = append(items, vw{vals[i], weights[i]})
			total += weights[i]
		}
	}
	if total == 0 {
		return 0, false
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	cum := 0.0
	for _, it := range items {
		cum += it.w
		if cum >= total/2 {
			return it.v, true
		}
	}
	return items[len(items)-1].v, true
}

// rankOf maps each value to its rank in the sorted order (ties broken by
// index so that ranks are unique).
func rankOf(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	ranks := make([]int, len(vals))
	for r, i := range idx {
		ranks[i] = r
	}
	return ranks
}

// fenwick is a Fenwick (binary indexed) tree over float64 sums, with a
// findPrefix operation by binary lifting.
type fenwick struct {
	tree []float64
	size int
	logn int
}

func newFenwick(n int) *fenwick {
	logn := 0
	for 1<<(logn+1) <= n {
		logn++
	}
	return &fenwick{tree: make([]float64, n+1), size: n, logn: logn}
}

func (f *fenwick) reset() {
	for i := range f.tree {
		f.tree[i] = 0
	}
}

// add adds w at 0-based position i.
func (f *fenwick) add(i int, w float64) {
	for j := i + 1; j <= f.size; j += j & (-j) {
		f.tree[j] += w
	}
}

// prefix returns the sum over 0-based positions [0, i].
func (f *fenwick) prefix(i int) float64 {
	s := 0.0
	for j := i + 1; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// findPrefix returns the smallest 0-based position r such that
// prefix(r) >= target. If the total is below target it returns size-1.
func (f *fenwick) findPrefix(target float64) int {
	pos := 0
	rem := target
	for step := 1 << f.logn; step > 0; step >>= 1 {
		if pos+step <= f.size && f.tree[pos+step] < rem {
			pos += step
			rem -= f.tree[pos]
		}
	}
	if pos >= f.size {
		pos = f.size - 1
	}
	return pos // pos is the count of positions strictly before the answer
}
