// Package histbuild implements the classical database histogram
// constructions the paper's introduction motivates (selectivity
// estimation: [Koo80], [PIHS96], [JKM+98]) — equi-width, equi-depth,
// MaxDiff, and V-optimal — plus range-query selectivity estimation on the
// built sketch. Together with the tester-driven model selection in the
// public package, this realizes the end-to-end pipeline of Section 1.1:
// find the smallest adequate bin count, then build the histogram.
package histbuild

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/oracle"
)

// Method selects a histogram construction algorithm.
type Method string

// The supported construction methods.
const (
	EquiWidth Method = "equiwidth" // equal-length buckets
	EquiDepth Method = "equidepth" // equal-mass buckets
	MaxDiff   Method = "maxdiff"   // boundaries at the largest value jumps
	VOptimal  Method = "voptimal"  // least-squares optimal buckets [JKM+98]
)

// vOptMaxPieces bounds the input of the V-optimal DP, which costs
// O(k·B²) time over B pieces: a dense n-piece input would cost O(k·n²),
// so a finer input is first flattened onto this many equal-width buckets.
const vOptMaxPieces = 4096

// Methods lists all supported construction methods.
func Methods() []Method { return []Method{EquiWidth, EquiDepth, MaxDiff, VOptimal} }

// Build constructs a k-bucket histogram of d using the given method.
// The result is a distribution (total mass 1) that is piecewise constant
// on at most k intervals.
func Build(d dist.Distribution, k int, method Method) (*dist.PiecewiseConstant, error) {
	n := d.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("histbuild: k = %d out of [1, %d]", k, n)
	}
	switch method {
	case EquiWidth:
		return dist.Flatten(d, intervals.EquiWidth(n, k)), nil
	case EquiDepth:
		return dist.Flatten(d, equiDepthPartition(d, k)), nil
	case MaxDiff:
		return dist.Flatten(d, maxDiffPartition(d, k)), nil
	case VOptimal:
		pc := asPC(d)
		if pc.PieceCount() > vOptMaxPieces {
			pc = dist.Flatten(pc, intervals.EquiWidth(n, vOptMaxPieces))
		}
		proj, _, err := histdp.ProjectL2(pc, k)
		return proj, err
	default:
		return nil, fmt.Errorf("histbuild: unknown method %q", method)
	}
}

// BuildFromSamples constructs a k-bucket histogram from empirical counts.
func BuildFromSamples(counts *oracle.Counts, k int, method Method) (*dist.PiecewiseConstant, error) {
	return Build(counts.Empirical(), k, method)
}

// asPC converts any distribution to piecewise-constant representation.
func asPC(d dist.Distribution) *dist.PiecewiseConstant {
	if pc, ok := d.(*dist.PiecewiseConstant); ok {
		return pc
	}
	if dn, ok := d.(*dist.Dense); ok {
		return dn.ToPiecewiseConstant()
	}
	return dist.ToDense(d).ToPiecewiseConstant()
}

// equiDepthPartition places boundaries at the k-quantiles of d.
func equiDepthPartition(d dist.Distribution, k int) *intervals.Partition {
	n := d.N()
	total := dist.TotalMass(d)
	cuts := make([]int, 0, k-1)
	cum := 0.0
	next := 1
	for i := 0; i < n && next < k; {
		end := d.RunEnd(i)
		if end > n {
			end = n
		}
		p := d.Prob(i)
		// Within a constant run the crossing point is computable directly.
		for next < k {
			target := float64(next) * total / float64(k)
			if cum+p*float64(end-i) < target {
				break
			}
			var cross int
			if p <= 0 {
				cross = end
			} else {
				cross = i + int(math.Ceil((target-cum)/p))
			}
			if cross <= 0 {
				cross = 1
			}
			if cross >= n {
				cross = n - 1
			}
			if len(cuts) == 0 || cross > cuts[len(cuts)-1] {
				cuts = append(cuts, cross)
			}
			next++
		}
		cum += p * float64(end-i)
		i = end
	}
	return intervals.FromBoundaries(n, cuts)
}

// maxDiffPartition places the k−1 boundaries at the largest adjacent
// value differences of d.
func maxDiffPartition(d dist.Distribution, k int) *intervals.Partition {
	n := d.N()
	type jump struct {
		pos  int
		diff float64
	}
	var jumps []jump
	prev := d.Prob(0)
	for i := 0; i < n; {
		end := d.RunEnd(i)
		if end > n {
			end = n
		}
		v := d.Prob(i)
		if i > 0 && v != prev {
			jumps = append(jumps, jump{pos: i, diff: math.Abs(v - prev)})
		}
		prev = v
		// For Dense inputs RunEnd is i+1, so this walks all elements; for
		// piecewise inputs it only visits piece boundaries.
		i = end
	}
	sort.Slice(jumps, func(a, b int) bool { return jumps[a].diff > jumps[b].diff })
	if len(jumps) > k-1 {
		jumps = jumps[:k-1]
	}
	cuts := make([]int, len(jumps))
	for i, j := range jumps {
		cuts[i] = j.pos
	}
	return intervals.FromBoundaries(n, cuts)
}

// Selectivity answers range-query selectivity estimates from a histogram
// sketch: the estimated fraction of records with value in [lo, hi).
func Selectivity(h *dist.PiecewiseConstant, lo, hi int) float64 {
	return h.IntervalMass(intervals.Interval{Lo: lo, Hi: hi})
}

// QueryError compares estimated and true selectivities over a query set.
type QueryError struct {
	MeanAbs float64 // mean absolute selectivity error
	MaxAbs  float64 // worst-case absolute selectivity error
}

// EvaluateQueries measures the selectivity error of sketch h against the
// true distribution d over the given [lo, hi) queries.
func EvaluateQueries(d dist.Distribution, h *dist.PiecewiseConstant, queries []intervals.Interval) QueryError {
	if len(queries) == 0 {
		return QueryError{}
	}
	var sum, worst float64
	for _, q := range queries {
		got := Selectivity(h, q.Lo, q.Hi)
		want := d.IntervalMass(q)
		e := math.Abs(got - want)
		sum += e
		if e > worst {
			worst = e
		}
	}
	return QueryError{MeanAbs: sum / float64(len(queries)), MaxAbs: worst}
}
