package oracle

import (
	"fmt"

	"repro/internal/rng"
)

// CountsReplay replays an ACCUMULATED count vector as a sample stream:
// each Draw removes one uniformly random remaining event from the
// multiset the Counts describes — an exact uniform shuffle of the
// recorded events, realized lazily, without ever materializing the
// sample slice. It is the bridge between the streaming-ingestion
// accumulators (internal/stream) and the tester: a firehose of raw
// events is tallied into per-element counts, and the tester draws from
// the tally exactly as it would from a shuffled recording of the same
// events.
//
// Statistically this is sampling WITHOUT replacement, the same access
// model as Replay over a recorded dataset (whose order the tester must
// not be sensitive to); when the recorded multiset is much larger than
// the tester's budget the stream is indistinguishable from i.i.d. draws
// from the empirical distribution. Like Replay, Draw panics with
// ErrReplayExhausted once every recorded event has been consumed, so
// callers surface "need more samples" identically on both paths.
//
// The draw order is a pure function of the count CONTENTS and the RNG
// stream: the index is built from a walk of the Counts (ascending
// elements on both backings), so two Counts holding the same tallies —
// one dense, one sparse; one accumulated shard-by-shard, one folded
// serially — yield bit-identical streams from equal seeds. This is what
// makes a stream-ingested verdict reproducible against a direct run over
// the same counts.
//
// A CountsReplay is not safe for concurrent use and cannot fork (the
// without-replacement state is inherently serial), mirroring Replay.
type CountsReplay struct {
	n     int
	elems []int32 // distinct elements, ascending
	tree  []int64 // Fenwick tree over remaining per-element counts, padded: see NewCountsReplay
	rem   int64
	r     *rng.RNG
	count int64
}

var _ Oracle = (*CountsReplay)(nil)

// NewCountsReplay builds a replay oracle over the tallies of c, drawing
// its shuffle randomness from r. The Counts is read once during
// construction and not retained, so the caller remains free to Release
// it immediately afterwards.
func NewCountsReplay(c *Counts, r *rng.RNG) *CountsReplay {
	// The tree has top+1 entries, top the smallest power of two >= the
	// distinct count, so node top is the root of every descent and holds
	// the remaining total.
	top := 1
	for top < c.Distinct() {
		top <<= 1
	}
	cr := &CountsReplay{
		n:     c.N(),
		elems: make([]int32, 0, c.Distinct()),
		tree:  make([]int64, top+1),
		r:     r,
	}
	w := c.Walk()
	for blk := w.Next(); len(blk) > 0; blk = w.Next() {
		for _, e := range blk {
			cr.elems = append(cr.elems, int32(e.Elem))
			cr.tree[len(cr.elems)] = int64(e.Count) // 1-based tree index
			cr.rem += int64(e.Count)
		}
	}
	// Linear-time Fenwick construction, padding included: every node below
	// the root is complete once its children have pushed to it, and then
	// pushes its own sum to its parent.
	for i := 1; i < top; i++ {
		cr.tree[i+(i&-i)] += cr.tree[i]
	}
	return cr
}

// N returns the domain size.
func (cr *CountsReplay) N() int { return cr.n }

// Draw removes and returns one uniformly random remaining event. It
// panics with ErrReplayExhausted when the tally is spent.
func (cr *CountsReplay) Draw() int {
	if cr.rem <= 0 {
		panic(ErrReplayExhausted)
	}
	// Uniform rank in [0, rem), then the classic Fenwick descent to the
	// first element whose cumulative count exceeds it.
	target := int64(cr.r.Intn(int(cr.rem)))
	idx := 0
	mask := 1
	for mask<<1 <= len(cr.elems) {
		mask <<= 1
	}
	for ; mask > 0; mask >>= 1 {
		next := idx + mask
		if next < len(cr.tree) && cr.tree[next] <= target {
			target -= cr.tree[next]
			idx = next
		}
	}
	// idx is 0-based after the descent: the descent lands on the last
	// position whose prefix sum is <= target, so the hit is idx (1-based
	// idx+1).
	for i := idx + 1; i < len(cr.tree); i += i & -i {
		cr.tree[i]--
	}
	cr.rem--
	cr.count++
	return int(cr.elems[idx])
}

// tally adds m <= Remaining() draws to c, four at a time. It is m Draw()
// calls interleaved, and it leaves the tree, the counters and the
// shuffle stream exactly where those calls would:
//
//   - the four ranks are drawn first, in stream order, from the bounds
//     four Draw() calls use;
//   - the four descents start at the root, which holds rem and is never
//     passed, and walk down level by level. A node is read and written
//     only at the level of its lowest set bit, and lane j takes its step
//     there after lane j−1, so each lane reads every node as the
//     sequential draws would leave it;
//   - a descent decrements each node it does not pass. Those are the
//     nodes whose range holds the drawn position, the set Draw()'s
//     update loop visits, so no second pass is needed.
//
// The step is branch-free because its direction is a coin flip to the
// branch predictor; four lanes keep four cache misses in flight where a
// single branch-free descent would wait for each in turn. The m mod 4
// draws left over go through Draw().
func (cr *CountsReplay) tally(c *Counts, m int) {
	tree, elems, top := cr.tree, cr.elems, len(cr.tree)-1
	rem, i := cr.rem, 0
	for ; i+4 <= m; i += 4 {
		t0 := int64(cr.r.Intn(int(rem)))
		t1 := int64(cr.r.Intn(int(rem - 1)))
		t2 := int64(cr.r.Intn(int(rem - 2)))
		t3 := int64(cr.r.Intn(int(rem - 3)))
		rem -= 4
		tree[top] -= 4
		var i0, i1, i2, i3 int
		for mask := top >> 1; mask > 0; mask >>= 1 {
			i0, t0 = descend(tree, i0, mask, t0)
			i1, t1 = descend(tree, i1, mask, t1)
			i2, t2 = descend(tree, i2, mask, t2)
			i3, t3 = descend(tree, i3, mask, t3)
		}
		c.bump(int(elems[i0]))
		c.bump(int(elems[i1]))
		c.bump(int(elems[i2]))
		c.bump(int(elems[i3]))
	}
	cr.rem = rem
	cr.count += int64(i)
	for ; i < m; i++ {
		c.bump(cr.Draw())
	}
}

// descend takes one level of a Fenwick descent without a branch: it
// passes node idx+mask when that node's remaining count is <= t, and
// otherwise decrements it. t < rem and counts are non-negative, so t−v
// cannot overflow and its sign bit is the direction.
func descend(tree []int64, idx, mask int, t int64) (int, int64) {
	next := idx + mask
	v := tree[next]
	stay := (t - v) >> 63 // −1 when v > t: the drawn position is in next's range
	tree[next] = v + stay
	return idx + mask&^int(stay), t - v&^stay
}

// Samples returns how many events have been drawn.
func (cr *CountsReplay) Samples() int64 { return cr.count }

// Remaining returns how many recorded events are left.
func (cr *CountsReplay) Remaining() int64 { return cr.rem }

// Total returns the number of events the replay started with.
func (cr *CountsReplay) Total() int64 { return cr.rem + cr.count }

// AcquireCounts returns an empty pooled Counts sized for m samples over
// [0, n), with the dense/sparse backing chosen by the same crossover
// heuristic every internal batch draw uses. It is the snapshot adapter
// for external accumulators (internal/stream): fill it with AddN, hand
// it to the tester (e.g. via NewCountsReplay), then Release it. The
// caller owns the Counts exactly as with DrawCounts.
func AcquireCounts(n, m int) *Counts {
	if n < 1 {
		panic(fmt.Sprintf("oracle: AcquireCounts over empty domain n=%d", n))
	}
	return acquireCountsSized(n, m)
}

// AddN tallies k occurrences of element v — the ingest adapter external
// accumulators use to fold their shards into a Counts. It panics on
// out-of-range elements and negative k; k = 0 is a no-op. Dense-backing
// overflow panics exactly as the internal tally paths do (see bumpN).
func (c *Counts) AddN(v, k int) {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("oracle: element %d outside [0,%d)", v, c.n))
	}
	if k < 0 {
		panic(fmt.Sprintf("oracle: negative count %d for element %d", k, v))
	}
	if k == 0 {
		return
	}
	c.bumpN(v, k)
}

// UseDense reports the dense/sparse crossover decision for a tally of m
// samples over [0, n) — exported so external accumulators (the
// streaming-ingestion shards) make the same representation choice as
// the internal counting paths.
func UseDense(n, m int) bool { return useDense(n, m) }
