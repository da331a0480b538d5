// Package intervals provides the interval, partition, and sub-domain
// algebra underlying histogram distributions and the sieving stage of the
// tester.
//
// The domain is {0, 1, ..., n-1} (the paper's [n] shifted to 0-based), and
// an Interval is half-open: [Lo, Hi). A Partition is an ordered list of
// contiguous intervals covering the whole domain; a Domain is an arbitrary
// union of disjoint intervals (the "sieved" sub-domain G of Algorithm 1).
package intervals

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is the half-open integer range [Lo, Hi).
type Interval struct {
	Lo, Hi int
}

// Len returns the number of integers in the interval.
func (iv Interval) Len() int { return iv.Hi - iv.Lo }

// Empty reports whether the interval contains no integers.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Contains reports whether i lies in the interval.
func (iv Interval) Contains(i int) bool { return i >= iv.Lo && i < iv.Hi }

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Interval{lo, hi}
}

// String formats the interval as [lo,hi).
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Partition is an ordered list of contiguous, non-empty intervals covering
// [0, n). The zero value is invalid; construct with NewPartition,
// FromBoundaries, or Singletons.
type Partition struct {
	n      int
	ivs    []Interval
	starts []int // starts[j] == ivs[j].Lo, for binary search
}

// NewPartition validates ivs as a partition of [0, n) and returns it.
func NewPartition(n int, ivs []Interval) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("intervals: domain size %d must be positive", n)
	}
	if len(ivs) == 0 {
		return nil, fmt.Errorf("intervals: empty partition of [0,%d)", n)
	}
	prev := 0
	for j, iv := range ivs {
		if iv.Lo != prev {
			return nil, fmt.Errorf("intervals: interval %d is %v, expected to start at %d", j, iv, prev)
		}
		if iv.Empty() {
			return nil, fmt.Errorf("intervals: interval %d is empty: %v", j, iv)
		}
		prev = iv.Hi
	}
	if prev != n {
		return nil, fmt.Errorf("intervals: partition covers [0,%d), domain is [0,%d)", prev, n)
	}
	p := &Partition{n: n, ivs: append([]Interval(nil), ivs...)}
	p.starts = make([]int, len(p.ivs))
	for j, iv := range p.ivs {
		p.starts[j] = iv.Lo
	}
	return p, nil
}

// MustPartition is NewPartition but panics on error; for tests and
// literals known to be valid.
func MustPartition(n int, ivs []Interval) *Partition {
	p, err := NewPartition(n, ivs)
	if err != nil {
		panic(err)
	}
	return p
}

// FromBoundaries builds the partition of [0, n) whose interval boundaries
// are the given interior cut points (each in (0, n), duplicates and
// out-of-range values ignored). An empty cuts slice yields the single
// interval [0, n).
func FromBoundaries(n int, cuts []int) *Partition {
	uniq := make([]int, 0, len(cuts)+2)
	uniq = append(uniq, 0)
	sorted := append([]int(nil), cuts...)
	sort.Ints(sorted)
	for _, c := range sorted {
		if c > 0 && c < n && c != uniq[len(uniq)-1] {
			uniq = append(uniq, c)
		}
	}
	uniq = append(uniq, n)
	ivs := make([]Interval, 0, len(uniq)-1)
	for j := 0; j+1 < len(uniq); j++ {
		ivs = append(ivs, Interval{uniq[j], uniq[j+1]})
	}
	return MustPartition(n, ivs)
}

// Singletons returns the finest partition of [0, n): n singleton intervals.
func Singletons(n int) *Partition {
	ivs := make([]Interval, n)
	for i := range ivs {
		ivs[i] = Interval{i, i + 1}
	}
	return MustPartition(n, ivs)
}

// Whole returns the coarsest partition: one interval [0, n).
func Whole(n int) *Partition {
	return MustPartition(n, []Interval{{0, n}})
}

// EquiWidth returns a partition of [0, n) into k intervals of (nearly)
// equal width. It panics if k is not in [1, n].
func EquiWidth(n, k int) *Partition {
	if k < 1 || k > n {
		panic(fmt.Sprintf("intervals: EquiWidth k=%d out of [1,%d]", k, n))
	}
	ivs := make([]Interval, 0, k)
	for j := 0; j < k; j++ {
		lo := j * n / k
		hi := (j + 1) * n / k
		ivs = append(ivs, Interval{lo, hi})
	}
	return MustPartition(n, ivs)
}

// N returns the size of the underlying domain.
func (p *Partition) N() int { return p.n }

// Count returns the number of intervals.
func (p *Partition) Count() int { return len(p.ivs) }

// Interval returns the j-th interval.
func (p *Partition) Interval(j int) Interval { return p.ivs[j] }

// Intervals returns a copy of the interval list.
func (p *Partition) Intervals() []Interval {
	return append([]Interval(nil), p.ivs...)
}

// Find returns the index of the interval containing domain element i.
// It panics if i is outside [0, n).
func (p *Partition) Find(i int) int {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("intervals: element %d outside [0,%d)", i, p.n))
	}
	// Largest j with starts[j] <= i.
	j := sort.SearchInts(p.starts, i+1) - 1
	return j
}

// Boundaries returns the interior cut points of the partition, i.e. the
// Lo of every interval except the first.
func (p *Partition) Boundaries() []int {
	cuts := make([]int, 0, len(p.ivs)-1)
	for _, iv := range p.ivs[1:] {
		cuts = append(cuts, iv.Lo)
	}
	return cuts
}

// Refine returns the common refinement of p and q (both over the same
// domain): the partition whose cut points are the union of both.
func (p *Partition) Refine(q *Partition) (*Partition, error) {
	if p.n != q.n {
		return nil, fmt.Errorf("intervals: refine over mismatched domains %d vs %d", p.n, q.n)
	}
	cuts := append(p.Boundaries(), q.Boundaries()...)
	return FromBoundaries(p.n, cuts), nil
}

// String renders the partition compactly; long partitions are abbreviated.
func (p *Partition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Partition(n=%d, K=%d)", p.n, len(p.ivs))
	if len(p.ivs) <= 8 {
		b.WriteString("{")
		for j, iv := range p.ivs {
			if j > 0 {
				b.WriteString(" ")
			}
			b.WriteString(iv.String())
		}
		b.WriteString("}")
	}
	return b.String()
}

// Domain is a union of disjoint, sorted, non-adjacent-merged intervals
// within [0, n): the sub-domain G that the sieve restricts statistics to.
// The zero Domain is empty over an unspecified universe; construct with
// NewDomain or FullDomain.
type Domain struct {
	n   int
	ivs []Interval
}

// FullDomain returns the domain equal to all of [0, n).
func FullDomain(n int) *Domain {
	return &Domain{n: n, ivs: []Interval{{0, n}}}
}

// EmptyDomain returns the empty sub-domain of [0, n).
func EmptyDomain(n int) *Domain {
	return &Domain{n: n, ivs: nil}
}

// NewDomain normalizes ivs (sorts, drops empties, merges overlapping or
// adjacent intervals) into a Domain over [0, n). Intervals are clipped to
// [0, n).
func NewDomain(n int, ivs []Interval) *Domain {
	clipped := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.Lo < 0 {
			iv.Lo = 0
		}
		if iv.Hi > n {
			iv.Hi = n
		}
		if !iv.Empty() {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(a, b int) bool { return clipped[a].Lo < clipped[b].Lo })
	merged := make([]Interval, 0, len(clipped))
	for _, iv := range clipped {
		if len(merged) > 0 && iv.Lo <= merged[len(merged)-1].Hi {
			if iv.Hi > merged[len(merged)-1].Hi {
				merged[len(merged)-1].Hi = iv.Hi
			}
			continue
		}
		merged = append(merged, iv)
	}
	return &Domain{n: n, ivs: merged}
}

// FromPartitionSubset returns the domain formed by the union of the
// partition intervals p.Interval(j) for which keep[j] is true.
func FromPartitionSubset(p *Partition, keep []bool) *Domain {
	if len(keep) != p.Count() {
		panic("intervals: keep mask length mismatch")
	}
	ivs := make([]Interval, 0, p.Count())
	for j, k := range keep {
		if k {
			ivs = append(ivs, p.Interval(j))
		}
	}
	return NewDomain(p.N(), ivs)
}

// N returns the size of the universe the domain lives in.
func (d *Domain) N() int { return d.n }

// Size returns the number of domain elements in d.
func (d *Domain) Size() int {
	total := 0
	for _, iv := range d.ivs {
		total += iv.Len()
	}
	return total
}

// Intervals returns the domain's own (sorted, disjoint) interval list,
// without a copy: callers must treat it as read-only. Its capacity is
// clipped to its length, so an append copies instead of writing past it.
func (d *Domain) Intervals() []Interval { return d.ivs[:len(d.ivs):len(d.ivs)] }

// Contains reports whether element i lies in the domain.
func (d *Domain) Contains(i int) bool {
	// Binary search for the last interval with Lo <= i.
	lo, hi := 0, len(d.ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.ivs[mid].Lo <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo > 0 && d.ivs[lo-1].Contains(i)
}

// Complement returns [0, n) minus d.
func (d *Domain) Complement() *Domain {
	out := make([]Interval, 0, len(d.ivs)+1)
	prev := 0
	for _, iv := range d.ivs {
		if iv.Lo > prev {
			out = append(out, Interval{prev, iv.Lo})
		}
		prev = iv.Hi
	}
	if prev < d.n {
		out = append(out, Interval{prev, d.n})
	}
	return &Domain{n: d.n, ivs: out}
}

// Intersect returns the elements in both domains.
func (d *Domain) Intersect(other *Domain) *Domain {
	if d.n != other.n {
		panic("intervals: intersect over mismatched universes")
	}
	out := make([]Interval, 0)
	i, j := 0, 0
	for i < len(d.ivs) && j < len(other.ivs) {
		iv := d.ivs[i].Intersect(other.ivs[j])
		if !iv.Empty() {
			out = append(out, iv)
		}
		if d.ivs[i].Hi < other.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return &Domain{n: d.n, ivs: out}
}

// Minus returns d with the elements of other removed.
func (d *Domain) Minus(other *Domain) *Domain {
	return d.Intersect(other.Complement())
}

// IsFull reports whether the domain is all of [0, n).
func (d *Domain) IsFull() bool {
	return len(d.ivs) == 1 && d.ivs[0] == (Interval{0, d.n})
}

// String renders the domain compactly.
func (d *Domain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Domain(n=%d, |G|=%d, pieces=%d)", d.n, d.Size(), len(d.ivs))
	return b.String()
}
