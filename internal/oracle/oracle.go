// Package oracle provides sample access to unknown distributions — the
// access model of distribution testing (Section 2 of the paper) — plus the
// bookkeeping the experiments need: exact accounting of how many samples a
// tester consumed, Poissonized batch draws, per-element count vectors, and
// fingerprints.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Oracle yields independent samples from an unknown distribution over
// {0, ..., n-1} and counts how many have been drawn. Implementations are
// not safe for concurrent use.
type Oracle interface {
	// N returns the domain size.
	N() int
	// Draw returns one sample.
	Draw() int
	// Samples returns the total number of samples drawn so far.
	Samples() int64
}

// Forker is an Oracle that can spawn independent clones for concurrent
// batch drawing (the replicates Fanout runs in parallel). Fork returns
// a clone with private randomness and a zeroed sample counter; the clone
// may be drawn from concurrently with other clones (but every individual
// oracle remains non-concurrency-safe on its own). Fork returns nil when
// the oracle — or an oracle it wraps — is inherently serial (Replay and
// arbitrary Source adapters are); callers must fall back to drawing from
// the parent serially in that case.
type Forker interface {
	Oracle
	// CanFork reports whether Fork will yield clones — false when the
	// oracle, or an oracle it wraps, is inherently serial. It is the
	// cheap capability probe: callers deciding whether to fan out should
	// ask CanFork rather than performing (and discarding) a trial Fork,
	// which may allocate a clone chain or consume factory work.
	CanFork() bool
	// Fork returns an independent clone drawing its randomness from r, or
	// nil if the oracle cannot be cloned (CanFork() == false).
	Fork(r *rng.RNG) Oracle
	// Absorb folds draws performed on clones back into the parent's
	// Samples() counter, preserving exact budget accounting. It must not
	// be called while clones are still drawing.
	Absorb(drawn int64)
}

// DrawN draws m samples from o.
func DrawN(o Oracle, m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = o.Draw()
	}
	return out
}

// DrawPoisson draws Poisson(mean) samples from o — the Poissonization
// trick of Section 2. The returned slice length is the Poisson variate.
func DrawPoisson(o Oracle, r *rng.RNG, mean float64) []int {
	return DrawN(o, r.Poisson(mean))
}

// DrawCounts draws Poisson(mean) samples from o and tallies them directly
// into a Counts, never materializing the intermediate sample slice. It
// consumes exactly the same randomness as
//
//	NewCounts(o.N(), DrawPoisson(o, r, mean))
//
// (one Poisson variate from r, then that many draws from o) and yields
// identical counts, so replay-backed oracles see an unchanged stream. It
// is DrawNCounts of the Poisson variate: the realized sample size picks
// the counts representation, dense for sizes comparable to the domain,
// sparse otherwise.
//
// The Counts comes from the buffer pool; the caller owns it and should
// Release it once the tally has been consumed (see Release).
func DrawCounts(o Oracle, r *rng.RNG, mean float64) *Counts {
	return DrawNCounts(o, r.Poisson(mean))
}

// CountStrategy selects how Poissonized count vectors are synthesized for
// oracles backed by a KNOWN sampler.
type CountStrategy uint8

const (
	// CountExact draws every sample individually (one alias-table draw
	// per sample), so the randomness stream — and therefore every replay
	// oracle, regression pin, and bit-identical-Trace guarantee — is
	// unchanged. This is the default and the only strategy valid for
	// replay/Source-backed oracles, whose samples are data, not
	// randomness.
	CountExact CountStrategy = iota
	// CountClosedForm synthesizes the count vector directly from the
	// Poissonization guarantee: per-element counts of a Poisson(mean)
	// batch are independent Poisson(mean·p_i), so a known k-histogram
	// sampler can materialize a batch in O(k + Σ_j min(t_j, width_j))
	// RNG calls instead of O(m) per-sample draws (see
	// Sampler.DrawPoissonCountsClosedForm). The counts are
	// distributionally identical to CountExact but come from a different
	// randomness stream, so per-seed decisions differ (while operating
	// characteristics agree; pinned by the equivalence suite). Oracles
	// without the CountDrawer capability fall back to CountExact.
	CountClosedForm
)

// String returns the flag/wire spelling of the strategy.
func (cs CountStrategy) String() string {
	switch cs {
	case CountExact:
		return "exact"
	case CountClosedForm:
		return "closed-form"
	}
	return fmt.Sprintf("CountStrategy(%d)", uint8(cs))
}

// ParseCountStrategy parses the flag/wire spelling of a strategy. The
// empty string means CountExact (the default everywhere).
func ParseCountStrategy(s string) (CountStrategy, error) {
	switch s {
	case "", "exact":
		return CountExact, nil
	case "closed-form", "closed_form", "closedform":
		return CountClosedForm, nil
	}
	return CountExact, fmt.Errorf("oracle: unknown count strategy %q (want \"exact\" or \"closed-form\")", s)
}

// CountDrawer is an Oracle that can synthesize a Poissonized count vector
// in closed form, without drawing the underlying samples one at a time.
// Only oracles that KNOW their distribution (the alias-table Sampler) can
// implement it; wrappers that reshape the sample stream (Permuted) and
// data-backed oracles (Replay, Source adapters) cannot, and take the
// per-draw fallback in DrawCountsWith.
type CountDrawer interface {
	Oracle
	// DrawPoissonCountsClosedForm returns a pooled count vector whose
	// joint distribution is identical to DrawCounts(o, r, mean)'s, while
	// consuming O(k + occupied) randomness instead of one draw per
	// sample. The realized total is folded into Samples() exactly, so
	// budget accounting matches the per-draw path. The caller owns the
	// Counts; Release it once consumed.
	DrawPoissonCountsClosedForm(r *rng.RNG, mean float64) *Counts
}

// EffectiveStrategy resolves the strategy DrawCountsWith will actually
// use for o: CountClosedForm requires the CountDrawer capability, and
// every other oracle falls back to CountExact. Forks preserve the
// capability (a Sampler forks to a Sampler), so a decision made on a
// parent oracle holds for its clones.
func EffectiveStrategy(o Oracle, cs CountStrategy) CountStrategy {
	if cs == CountClosedForm {
		if _, ok := o.(CountDrawer); ok {
			return CountClosedForm
		}
	}
	return CountExact
}

// DrawCountsWith is DrawCounts with an explicit synthesis strategy:
// CountExact is DrawCounts verbatim; CountClosedForm uses the oracle's
// CountDrawer capability when present and falls back to the exact
// per-draw path otherwise (Replay and wrapped oracles). The caller owns
// the returned Counts; Release it once consumed.
func DrawCountsWith(o Oracle, r *rng.RNG, mean float64, cs CountStrategy) *Counts {
	if cs == CountClosedForm {
		if cd, ok := o.(CountDrawer); ok {
			return cd.DrawPoissonCountsClosedForm(r, mean)
		}
	}
	return DrawCounts(o, r, mean)
}

// Sampler samples from a known dist.Distribution using Walker–Vose alias
// tables built over the distribution's constant runs: a k-histogram costs
// O(k) setup and O(1) per draw regardless of n.
type Sampler struct {
	n     int
	r     *rng.RNG
	runs  []aliasRun // immutable, shared with forks
	kCut  uint64     // Lemire rejection threshold for len(runs): 2⁶⁴ mod len(runs)
	count int64

	// cfTotals is DrawPoissonCountsClosedForm's per-run total scratch:
	// lazily grown, private per sampler instance (forks never share it),
	// so repeated closed-form batches are allocation-free in steady
	// state.
	cfTotals []int
}

// aliasRun is column j of the alias table packed with constant run j. A
// draw picks a column uniformly, keeps its run with probability prob or
// takes run alias instead, then places the sample uniformly in
// [lo, lo+width).
type aliasRun struct {
	keep  uint64 // keepCut(prob), the coin fill flips
	alias int
	lo    int
	width uint64
	cut   uint64  // Lemire rejection threshold for width: 2⁶⁴ mod width
	prob  float64 // the coin draw flips
	w     float64 // normalized run weight mass_j/total
}

var _ Oracle = (*Sampler)(nil)

// NewSampler builds a sampler for d using randomness from r. It panics if
// d has non-positive total mass. The distribution is normalized implicitly:
// sampling probabilities are proportional to d's masses.
func NewSampler(d dist.Distribution, r *rng.RNG) *Sampler {
	n := d.N()
	var lo []int
	var mass []float64
	total := 0.0
	for i := 0; i < n; {
		end := d.RunEnd(i)
		if end > n {
			end = n
		}
		m := d.Prob(i) * float64(end-i)
		lo = append(lo, i)
		mass = append(mass, m)
		total += m
		i = end
	}
	if total <= 0 {
		panic("oracle: sampler over zero-mass distribution")
	}
	alias, prob := buildAlias(mass, total)
	runs := make([]aliasRun, len(lo))
	for j := range runs {
		hi := n
		if j+1 < len(lo) {
			hi = lo[j+1]
		}
		width := uint64(hi - lo[j])
		runs[j] = aliasRun{
			keep: keepCut(prob[j]), alias: alias[j],
			lo: lo[j], width: width, cut: -width % width,
			prob: prob[j], w: mass[j] / total,
		}
	}
	k := uint64(len(runs))
	return &Sampler{n: n, r: r, runs: runs, kCut: -k % k}
}

// keepCut returns ⌈p·2⁵³⌉ clamped to [0, 2⁵³], so that for every 53-bit
// a, a >= keepCut(p) exactly when a·2⁻⁵³ >= p: the coin
// rng.Float64() >= p decided on the Uint64()>>11 it is built from. Both
// scalings by 2^±53 are exact, so no draw can come out differently.
func keepCut(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case !(p < 1): // NaN included: Float64() >= NaN never holds
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// buildAlias constructs Walker–Vose alias tables for the normalized weights
// mass/total.
func buildAlias(mass []float64, total float64) (alias []int, prob []float64) {
	k := len(mass)
	alias = make([]int, k)
	prob = make([]float64, k)
	scaled := make([]float64, k)
	small := make([]int, 0, k)
	large := make([]int, 0, k)
	for i, m := range mass {
		scaled[i] = m / total * float64(k)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return alias, prob
}

// N returns the domain size.
func (s *Sampler) N() int { return s.n }

// Draw returns one sample.
func (s *Sampler) Draw() int {
	s.count++
	return s.draw()
}

// draw is the uncounted alias-table draw of the sparse batch path, and
// the reference the fused dense loop of fill is checked against.
func (s *Sampler) draw() int {
	j := s.r.Intn(len(s.runs))
	if s.r.Float64() >= s.runs[j].prob {
		j = s.runs[j].alias
	}
	run := &s.runs[j]
	if run.width == 1 {
		return run.lo
	}
	return run.lo + s.r.Intn(int(run.width))
}

// drawCounts tallies m exact draws into a pooled Counts: a dense backing
// is filled by the two-phase tallyDense, a sparse one draw by draw.
func (s *Sampler) drawCounts(m int) *Counts {
	c := acquireCountsSized(s.n, m)
	s.count += int64(m)
	if c.dense != nil {
		s.tallyDense(c, m)
		return c
	}
	for i := 0; i < m; i++ {
		c.bump(s.draw())
	}
	return c
}

// tallyChunk is how many values the dense batch kernels draw before
// they scatter them: 8 KiB of int32, which stays in L1 beside the
// run table.
const tallyChunk = 2048

// tallyDense adds m exact draws to the dense backing of c, a chunk at a
// time: fill draws the chunk into a buffer, then scatter tallies it.
// Kept apart, the generator's dependency chain never waits on the
// cache miss of a count slot in a backing larger than L2, and the
// scatter's misses overlap one another. The draws are those of m
// draw() calls, in order, so every count and the stream position
// afterwards are bit-identical to the per-draw path.
func (s *Sampler) tallyDense(c *Counts, m int) {
	var buf [tallyChunk]int32
	for m > 0 {
		chunk := buf[:min(m, tallyChunk)]
		s.fill(chunk)
		c.scatter(chunk)
		m -= len(chunk)
	}
}

// fill stores len(buf) exact draws in buf. It is that many draw() calls
// fused into one loop and consumes exactly the Uint64 sequence they
// consume: the generator is stepped by value in a local (so its state
// stays in registers) and written back once, and the bounded draws are
// Lemire's method on the thresholds precomputed in the table. Values
// fit in int32 because only dense backings (n <= denseLimit) are
// filled this way.
func (s *Sampler) fill(buf []int32) {
	runs, k, kCut := s.runs, uint64(len(s.runs)), s.kCut
	g := *s.r
	var x uint64
	for i := range buf {
		x, g = g.Next()
		j, frac := bits.Mul64(x, k)
		for frac < kCut {
			x, g = g.Next()
			j, frac = bits.Mul64(x, k)
		}
		// The alias coin defeats the branch predictor, so the column
		// switches to its alias without a branch: toAlias is all ones
		// exactly when Uint64()>>11 >= keep (both sides below 2⁵³+1, so
		// the signed difference cannot overflow).
		col := &runs[j]
		x, g = g.Next()
		toAlias := uint64(int64(col.keep-1-x>>11) >> 63)
		j ^= (j ^ uint64(col.alias)) & toAlias
		run := &runs[j]
		v := run.lo
		if run.width > 1 {
			x, g = g.Next()
			off, frac := bits.Mul64(x, run.width)
			for frac < run.cut {
				x, g = g.Next()
				off, frac = bits.Mul64(x, run.width)
			}
			v += int(off)
		}
		buf[i] = int32(v)
	}
	*s.r = g
}

// placeDense adds t samples placed uniformly on the run to the dense
// backing of c: t calls of lo + Intn(width), drawn a chunk at a time
// into buf and scattered like tallyDense's.
func (s *Sampler) placeDense(c *Counts, run *aliasRun, t int, buf []int32) {
	g := *s.r
	var x uint64
	for t > 0 {
		chunk := buf[:min(t, len(buf))]
		for i := range chunk {
			x, g = g.Next()
			off, frac := bits.Mul64(x, run.width)
			for frac < run.cut {
				x, g = g.Next()
				off, frac = bits.Mul64(x, run.width)
			}
			chunk[i] = int32(run.lo + int(off))
		}
		c.scatter(chunk)
		t -= len(chunk)
	}
	*s.r = g
}

// poissonRun adds an independent Poisson(lam) count for each of the
// width elements from lo to c and returns their sum: width calls of
// rng.Poisson(lam), drawn a chunk at a time into buf by
// rng.PoissonFill, which pays Poisson's set-up once per chunk.
func (s *Sampler) poissonRun(c *Counts, lo, width int, lam float64, buf []int) int {
	drawn := 0
	for base := 0; base < width; base += len(buf) {
		chunk := buf[:min(width-base, len(buf))]
		s.r.PoissonFill(chunk, lam)
		for i, ci := range chunk {
			if ci > 0 {
				c.bumpN(lo+base+i, ci)
				drawn += ci
			}
		}
	}
	return drawn
}

// DrawPoissonCountsClosedForm implements CountDrawer: it synthesizes the
// Poissonized count vector directly from the sampler's known run
// structure instead of drawing m alias samples. Poissonization factorizes
// a Poisson(mean) batch into independent per-element counts
// N_i ~ Poisson(mean·p_i) (Section 2 of the paper), so per constant run j
// with weight w_j and width_j elements:
//
//   - sparse runs (expected count t_j = mean·w_j below the width): draw
//     the run total Poisson(mean·w_j) from r — one RNG call — and place
//     each of the t_j samples uniformly, O(t_j) work;
//   - dense runs (t_j >= width_j): draw each element's count
//     Poisson(mean·w_j/width_j) directly, O(width_j) work. This is the
//     exact factorized form of conditionally splitting the run total with
//     sequential Binomials — identical joint law — at O(1) per element
//     (PTRS) instead of the O(log) Beta recursion an exact Binomial
//     costs per split.
//
// Total cost is O(k + Σ_j min(t_j, width_j)) RNG calls versus the exact
// path's O(mean) alias draws. Within-run randomness comes from the
// sampler's own stream (mirroring the exact path's split between r and
// the sampler stream). The realized total — distributed Poisson(mean)
// exactly, as a sum of independent Poissons — is folded into Samples(),
// so budget accounting stays exact. The Counts comes from the buffer
// pool; Release it once consumed.
func (s *Sampler) DrawPoissonCountsClosedForm(r *rng.RNG, mean float64) *Counts {
	// First pass: realize the sparse-run totals (one Poisson call from r
	// per run — the closed form's "k RNG calls") so the Counts backing
	// can be sized on the realized sample size, matching the per-draw
	// path's dense/sparse crossover. Dense runs synthesize per-element
	// counts in the second pass; their expectation stands in for sizing.
	k := len(s.runs)
	if cap(s.cfTotals) < k {
		s.cfTotals = make([]int, k)
	}
	totals := s.cfTotals[:k]
	size := 0
	for j := range s.runs {
		width := int(s.runs[j].width)
		t := mean * s.runs[j].w
		if width > 1 && t >= float64(width) {
			totals[j] = -1 // dense run: materialized per element below
			size += int(t)
			continue
		}
		totals[j] = r.Poisson(t)
		size += totals[j]
	}
	c := acquireCountsSized(s.n, size)
	var values [tallyChunk]int32
	var counts [tallyChunk]int
	drawn := 0
	for j, tj := range totals {
		run := &s.runs[j]
		lo, width := run.lo, int(run.width)
		if tj < 0 {
			// Dense run: independent per-element Poisson thinning.
			drawn += s.poissonRun(c, lo, width, mean*run.w/float64(width), counts[:])
			continue
		}
		drawn += tj
		switch {
		case tj == 0:
		case width == 1:
			c.bumpN(lo, tj)
		case c.dense != nil:
			// Sparse run: uniform placement of the realized total.
			s.placeDense(c, run, tj, values[:])
		default:
			for i := 0; i < tj; i++ {
				c.bump(lo + s.r.Intn(width))
			}
		}
	}
	s.count += int64(drawn)
	return c
}

// Samples returns how many samples have been drawn.
func (s *Sampler) Samples() int64 { return s.count }

// ResetCount zeroes the sample counter (e.g. between experiment trials).
func (s *Sampler) ResetCount() { s.count = 0 }

// CanFork reports that samplers always clone (the alias tables are
// immutable and shared).
func (s *Sampler) CanFork() bool { return true }

// Fork returns an independent sampler over the same distribution, sharing
// the immutable alias table (and run weights) but drawing from r with a
// zeroed counter.
func (s *Sampler) Fork(r *rng.RNG) Oracle {
	return &Sampler{n: s.n, r: r, runs: s.runs, kCut: s.kCut}
}

// Absorb folds clone draws back into the sampler's counter.
func (s *Sampler) Absorb(drawn int64) { s.count += drawn }

var (
	_ Forker      = (*Sampler)(nil)
	_ CountDrawer = (*Sampler)(nil)
)

// Permuted wraps an oracle, relabelling samples through a fixed
// permutation sigma of the domain — the embedding step of the paper's
// support-size reduction (Section 4.2): the tester sees samples from
// D ∘ σ⁻¹.
type Permuted struct {
	inner Oracle
	sigma []int
}

var _ Oracle = (*Permuted)(nil)

// NewPermuted returns an oracle emitting sigma(x) for each sample x of
// inner. len(sigma) must equal inner.N().
func NewPermuted(inner Oracle, sigma []int) (*Permuted, error) {
	if len(sigma) != inner.N() {
		return nil, fmt.Errorf("oracle: permutation of size %d over domain %d", len(sigma), inner.N())
	}
	return &Permuted{inner: inner, sigma: sigma}, nil
}

// N returns the domain size.
func (p *Permuted) N() int { return p.inner.N() }

// Draw returns sigma(inner.Draw()).
func (p *Permuted) Draw() int { return p.sigma[p.inner.Draw()] }

// Samples returns the inner oracle's count.
func (p *Permuted) Samples() int64 { return p.inner.Samples() }

// CanFork reports whether the inner oracle can clone.
func (p *Permuted) CanFork() bool {
	f, ok := p.inner.(Forker)
	return ok && f.CanFork()
}

// Fork clones the permuted oracle when the inner oracle supports it; the
// clone shares the immutable permutation table.
func (p *Permuted) Fork(r *rng.RNG) Oracle {
	f, ok := p.inner.(Forker)
	if !ok {
		return nil
	}
	c := f.Fork(r)
	if c == nil {
		return nil
	}
	return &Permuted{inner: c, sigma: p.sigma}
}

// Absorb folds clone draws into the inner oracle's counter.
func (p *Permuted) Absorb(drawn int64) {
	if f, ok := p.inner.(Forker); ok {
		f.Absorb(drawn)
	}
}

var _ Forker = (*Permuted)(nil)

// ErrReplayExhausted is the value Replay.Draw panics with when the
// recording runs out. Callers that run a tester over recorded data (e.g.
// histtest.TestSamples) discriminate on this exact value when recovering,
// so unrelated panics propagate instead of being misreported as a
// too-small dataset.
var ErrReplayExhausted = errors.New("oracle: replay exhausted")

// Replay replays a recorded sequence of samples (e.g. a dataset read from
// disk by the CLI). Draw panics with ErrReplayExhausted when the recording
// is exhausted; callers should check Remaining first.
type Replay struct {
	n     int
	data  []int
	next  int
	count int64
}

var _ Oracle = (*Replay)(nil)

// NewReplay validates that every sample lies in [0, n) and returns a
// replay oracle.
func NewReplay(n int, data []int) (*Replay, error) {
	for i, v := range data {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("oracle: sample %d = %d outside [0,%d)", i, v, n)
		}
	}
	return &Replay{n: n, data: data}, nil
}

// N returns the domain size.
func (rp *Replay) N() int { return rp.n }

// Draw returns the next recorded sample.
func (rp *Replay) Draw() int {
	if rp.next >= len(rp.data) {
		panic(ErrReplayExhausted)
	}
	v := rp.data[rp.next]
	rp.next++
	rp.count++
	return v
}

// Samples returns how many samples have been replayed.
func (rp *Replay) Samples() int64 { return rp.count }

// Remaining returns how many recorded samples are left.
func (rp *Replay) Remaining() int { return len(rp.data) - rp.next }

// denseLimit caps the domain size for which Counts uses the dense
// representation: a []int32 of this length is 16 MiB.
const denseLimit = 1 << 22

// Counts is a per-element occurrence vector over [0, n). Exactly one of
// two backings is live: a dense []int32 (chosen when the sample size is
// comparable to a moderately sized domain — the sieve and final-test hot
// path) or a sparse map (large domains or thin samples). Both expose the
// same API and identical iteration order; NewCounts and DrawCounts choose
// automatically, NewDenseCounts/NewSparseCounts force a backing.
//
// A Counts is not safe for concurrent use: a Walk writes its block into
// the Counts' own buffer.
type Counts struct {
	n        int
	dense    []int32
	m        map[int]int
	distinct int // dense-mode distinct tally (sparse mode uses len(m))
	total    int
	released bool // set by Release; guards the double-release panic

	// Walk state, kept with the Counts (and through the pool) so that a
	// walk allocates nothing: the sparse backing's sorted keys, the
	// block a walk hands out, and whether a walk is live.
	keys    []int
	blk     [walkBlock]ElemCount
	walking bool
}

// useDense reports whether a tally of m samples over [0, n) should use the
// dense backing: the domain must be modest, and the O(n) allocate/clear/walk
// cost of the dense path must not swamp the O(m) tally work.
//
// The m >= n/64 crossover is empirical — see BenchmarkDenseSparseCrossover
// (densebench_test.go). At n ∈ {2¹⁶, 2²⁰} the dense path wins at every
// ratio down to m = n/64 (1.5× there, 8–12× at m = n), because the sparse
// map pays ~80 ns per insert plus a sort per walk, while the dense side
// pays ~0.7 ns per domain element to clear and walk; extrapolating those
// slopes puts the true break-even near m ≈ n/100. n/64 is the thinnest
// measured point, kept with margin for cache-hostile domains.
func useDense(n, m int) bool {
	return n <= denseLimit && m >= n/64
}

// newCountsSized returns an empty Counts with the backing chosen for m
// samples over [0, n).
func newCountsSized(n, m int) *Counts {
	if useDense(n, m) {
		return &Counts{n: n, dense: make([]int32, n)}
	}
	return &Counts{n: n, m: make(map[int]int, m)}
}

// bump tallies one in-range sample. It maintains the dense/sparse
// backing, the distinct tally, and the running total for every counting
// path except the Sampler's dense batches, which scatter a chunk at a
// time with the tallies in locals (FuzzSamplerBatchTally checks the two
// agree). Callers must guarantee v ∈ [0, n); add wraps bump with the
// bounds check for arbitrary-oracle inputs. The first-touch test stays a
// branch: CountsReplay.tally bumps four times per step, and a
// branch-free form read-modify-writes c.distinct on every one of them.
func (c *Counts) bump(v int) {
	if c.dense != nil {
		if c.dense[v] == 0 {
			c.distinct++
		}
		c.dense[v]++
	} else {
		c.m[v]++
	}
	c.total++
}

// scatter tallies the in-range values of buf into the dense backing:
// bump for each value, with the backing, distinct tally and total held
// in locals for the chunk.
func (c *Counts) scatter(buf []int32) {
	dense, distinct := c.dense, c.distinct
	for _, v := range buf {
		if dense[v] == 0 {
			distinct++
		}
		dense[v]++
	}
	c.distinct = distinct
	c.total += len(buf)
}

// bumpN tallies k occurrences of the in-range element v at once (the
// closed-form synthesizer's run totals and dense per-element counts).
//
// The dense backing accumulates into an int32, and bumpN is the one
// path that can plausibly reach its ceiling: a closed-form synthesis of
// a heavy single-element run near the MaxSamples budget (~2³¹) lands
// the whole batch on one element in a single call. Overflow must panic
// rather than wrap — a wrapped count silently corrupts every statistic
// downstream. (The per-draw bump path cannot realistically get there:
// it would need 2³¹ individual draws onto one element, which the budget
// guard makes a multi-hour run, and guarding it would tax every sample.)
func (c *Counts) bumpN(v, k int) {
	if c.dense != nil {
		if c.dense[v] == 0 {
			c.distinct++
		}
		nv := int64(c.dense[v]) + int64(k)
		if nv > math.MaxInt32 {
			panic(fmt.Sprintf("oracle: count of element %d overflows the dense int32 backing (%d + %d > %d)",
				v, c.dense[v], k, math.MaxInt32))
		}
		c.dense[v] = int32(nv)
	} else {
		c.m[v] += k
	}
	c.total += k
}

// add tallies one sample, panicking on out-of-range values (arbitrary
// Source-backed oracles can emit anything).
func (c *Counts) add(v int) {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("oracle: sample %d outside [0,%d)", v, c.n))
	}
	c.bump(v)
}

// NewCounts tallies the occurrence of each element in samples, choosing
// the dense or sparse backing by domain and sample size.
func NewCounts(n int, samples []int) *Counts {
	c := newCountsSized(n, len(samples))
	for _, s := range samples {
		c.add(s)
	}
	return c
}

// NewDenseCounts tallies samples into a dense []int32 backing regardless
// of the size heuristic (tests and benchmarks; n must be modest).
func NewDenseCounts(n int, samples []int) *Counts {
	c := &Counts{n: n, dense: make([]int32, n)}
	for _, s := range samples {
		c.add(s)
	}
	return c
}

// NewSparseCounts tallies samples into a map backing regardless of the
// size heuristic.
func NewSparseCounts(n int, samples []int) *Counts {
	c := &Counts{n: n, m: make(map[int]int, len(samples))}
	for _, s := range samples {
		c.add(s)
	}
	return c
}

// N returns the domain size.
func (c *Counts) N() int { return c.n }

// Total returns the number of samples tallied.
func (c *Counts) Total() int { return c.total }

// Dense reports whether the counts use the dense backing.
func (c *Counts) Dense() bool { return c.dense != nil }

// Of returns the occurrence count of element i.
func (c *Counts) Of(i int) int {
	if c.dense != nil {
		if i < 0 || i >= c.n {
			return 0
		}
		return int(c.dense[i])
	}
	return c.m[i]
}

// Distinct returns the number of distinct elements observed.
func (c *Counts) Distinct() int {
	if c.dense != nil {
		return c.distinct
	}
	return len(c.m)
}

// ElemCount is one observed element of a Counts and its count (> 0).
type ElemCount struct{ Elem, Count int }

// walkBlock is how many pairs one block of a Walk holds: 4 KiB, which
// stays in L1 beside the consumer's own state.
const walkBlock = 256

// Walk is one ascending pass over the observed elements of a Counts,
// handed out a block at a time. Consumers loop over each block inline,
// with their own forward cursors:
//
//	w := c.Walk()
//	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
//		for _, e := range blk {
//			// e.Elem ascends across blocks; e.Count > 0
//		}
//	}
//
// Every block but the last holds walkBlock pairs. A block is the Counts'
// own buffer, valid until the next call to Next. The walk ends when Next
// returns an empty block; starting another walk of the same Counts before
// then panics.
type Walk struct {
	c   *Counts
	pos int // next dense slot, or next index into c.keys
}

// Walk starts a walk over c's observed elements. A sparse backing's keys
// are collected and sorted here, into a buffer the Counts keeps.
func (c *Counts) Walk() Walk {
	if c.walking {
		panic("oracle: Walk of a Counts whose previous walk has not ended")
	}
	c.walking = true
	if c.dense == nil {
		keys := slices.Grow(c.keys[:0], len(c.m))
		for k := range c.m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.keys = keys
	}
	return Walk{c: c}
}

// Next returns the next block of (element, count) pairs in ascending
// element order, or an empty block, which ends the walk, once every
// observed element has been handed out.
func (w *Walk) Next() []ElemCount {
	c := w.c
	blk := &c.blk
	var n uint
	if c.dense != nil {
		// Branch-free compaction: every slot is stored at position n,
		// and n moves past it only if the slot is occupied, so partial
		// occupancy costs no mispredicted branch.
		base, rest := w.pos, c.dense[w.pos:]
		i := 0
		for ; i < len(rest) && n < walkBlock; i++ {
			v := rest[i]
			blk[n] = ElemCount{base + i, int(v)}
			n += uint(uint32(-v) >> 31) // 1 iff v > 0; counts are never negative
		}
		w.pos += i
	} else {
		keys := c.keys[w.pos:min(w.pos+walkBlock, len(c.keys))]
		for t, k := range keys {
			blk[t] = ElemCount{k, c.m[k]}
		}
		n = uint(len(keys))
		w.pos += len(keys)
	}
	if n == 0 {
		c.walking = false
	}
	return blk[:n]
}

// ForEach calls f for every observed element, ascending, with its
// count: a walk one pair at a time, for tests and cold callers.
func (c *Counts) ForEach(f func(elem, count int)) {
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			f(e.Elem, e.Count)
		}
	}
}

// InRange returns the number of samples that fell in [lo, hi). It walks
// every observed element, so callers needing many range queries should
// use Empirical instead.
func (c *Counts) InRange(lo, hi int) int {
	total := 0
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			if e.Elem >= lo && e.Elem < hi {
				total += e.Count
			}
		}
	}
	return total
}

// Empirical returns the empirical distribution of the counts as a Dense
// distribution (mass count/total per element). It panics if no samples
// were tallied.
func (c *Counts) Empirical() *dist.Dense {
	if c.total == 0 {
		panic("oracle: empirical distribution of zero samples")
	}
	p := make([]float64, c.n)
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			p[e.Elem] = float64(e.Count) / float64(c.total)
		}
	}
	return dist.MustDense(p)
}

// Fingerprint returns the collision fingerprint of the counts: fp[j] is
// the number of distinct elements that appeared exactly j times (j >= 1).
// Symmetric-property testers (uniqueness/collision statistics) consume
// exactly this.
func (c *Counts) Fingerprint() map[int]int {
	fp := make(map[int]int)
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			fp[e.Count]++
		}
	}
	return fp
}

// PairCollisions returns the number of unordered sample pairs that
// collided: Σ_i C(count_i, 2).
func (c *Counts) PairCollisions() int64 {
	var total int64
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			total += int64(e.Count) * int64(e.Count-1) / 2
		}
	}
	return total
}
