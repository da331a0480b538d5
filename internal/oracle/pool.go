package oracle

import (
	randv2 "math/rand/v2"
	"sync"
	"sync/atomic"
)

// Counts buffer pooling.
//
// The χ² counting loop is the hot path of the whole system: every sieve
// replicate and every final test materializes a per-element count vector,
// and at production scale the dense backing is a []int32 of length n
// (400 KB at n = 10⁵). Re-allocating it per batch dominates wall-clock
// long before the Theorem 3.1 work bound does, so the batch drawing
// entry points (DrawCounts, DrawNCounts) acquire their Counts from a
// sync.Pool and callers hand them back with Release.
//
// Ownership contract:
//
//   - The caller of a Draw*Counts function owns the returned Counts.
//   - Calling Release transfers ownership to the pool; the Counts must
//     not be used afterwards. Release-before-last-use is an aliasing bug
//     (a concurrent acquirer may be tallying into the same backing), so
//     double-Release PANICS rather than being ignored — it is always a
//     lifecycle error, and silently pooling the same buffer twice would
//     hand two future acquirers aliased memory.
//   - Never calling Release is always safe: the buffer is simply
//     garbage-collected and the pool never learns about it. Code that
//     retains a Counts indefinitely (or returns it to a caller with
//     unknown lifetime) should just not release it.
//
// Reuse cannot change observable behavior: dense backings are zeroed at
// acquire time, sparse maps are cleared (clear() keeps the allocated
// buckets), and the representation choice depends only on (n, m) —
// never on what the recycled buffer used to hold.

// densePool recycles Counts with a dense []int32 backing; sparsePool
// recycles map-backed Counts. Two pools so an acquire never has to
// discard a mismatched backing.
var (
	densePool  = sync.Pool{New: func() any { return new(Counts) }}
	sparsePool = sync.Pool{New: func() any { return new(Counts) }}
)

// poolStatShards stripes the process-global pool accounting counters
// behind PoolStatsSnapshot. A hit is an acquire served by a recycled
// backing of sufficient capacity; a miss had to allocate. Acquires and
// Releases balance exactly for code that releases every pooled buffer —
// the leak-detection tests assert that delta-acquires == delta-releases
// around a tester run (including a cancelled one).
//
// The counters are striped because they sit on the batch-draw hot path
// of EVERY concurrent tester run: each sieve replicate bumps acquire +
// hit/miss + release, so under a parallel sieve (or many concurrent
// histd requests) a single counter line ping-pongs between cores 2–3
// times per batch. Each stripe is padded to its own cache line;
// PoolStatsSnapshot sums the stripes, so totals stay exact while no two
// cores need to agree on one line per bump.
const poolStatShards = 32 // power of two, comfortably above typical core counts

// poolStatShard is one stripe of the pool counters. The four Int64s
// occupy 32 bytes; the trailing pad keeps every stripe on its own
// 64-byte cache line.
type poolStatShard struct {
	acquires, hits, misses, releases atomic.Int64
	_                                [32]byte
}

var poolStats [poolStatShards]poolStatShard

// poolStatStripe picks a stripe for the calling goroutine. math/rand/v2's
// global generator is backed by runtime-internal per-thread state, so the
// pick itself is contention-free; a uniformly random stripe keeps any
// number of concurrent workers spread across the lines. Stripe choice is
// pure diagnostics routing — it never touches the repro rng streams, so
// determinism of draws and Traces is unaffected.
func poolStatStripe() *poolStatShard {
	return &poolStats[randv2.Uint32N(poolStatShards)]
}

// PoolStats is a snapshot of the Counts pool counters.
type PoolStats struct {
	// Acquires counts pooled acquisitions (every Draw*Counts call).
	Acquires int64
	// Hits are acquires served by a recycled backing; Misses allocated.
	Hits, Misses int64
	// Releases counts buffers handed back to the pool. Note Release on a
	// Counts built by NewCounts/NewDenseCounts/NewSparseCounts also feeds
	// the pool and counts here, without a matching acquire.
	Releases int64
}

// PoolStatsSnapshot returns the current process-global pool counters,
// summed across the stripes. Deltas around a quiesced region attribute
// exactly; under concurrent runs the attribution is approximate (the
// totals remain exact).
func PoolStatsSnapshot() PoolStats {
	var s PoolStats
	for i := range poolStats {
		s.Acquires += poolStats[i].acquires.Load()
		s.Hits += poolStats[i].hits.Load()
		s.Misses += poolStats[i].misses.Load()
		s.Releases += poolStats[i].releases.Load()
	}
	return s
}

// acquireCountsSized returns an empty pooled Counts with the backing
// chosen for m samples over [0, n) — the pooled counterpart of
// newCountsSized, with identical representation choice.
func acquireCountsSized(n, m int) *Counts {
	stripe := poolStatStripe()
	stripe.acquires.Add(1)
	if useDense(n, m) {
		c := densePool.Get().(*Counts)
		if cap(c.dense) >= n {
			stripe.hits.Add(1)
			c.dense = c.dense[:n]
			clear(c.dense)
		} else {
			stripe.misses.Add(1)
			c.dense = make([]int32, n)
		}
		c.n, c.m, c.distinct, c.total, c.released, c.walking = n, nil, 0, 0, false, false
		return c
	}
	c := sparsePool.Get().(*Counts)
	if c.m == nil {
		stripe.misses.Add(1)
		c.m = make(map[int]int, m)
	} else {
		stripe.hits.Add(1)
		clear(c.m)
	}
	c.n, c.dense, c.distinct, c.total, c.released, c.walking = n, nil, 0, 0, false, false
	return c
}

// Release returns the Counts' backing to the buffer pool for reuse by a
// later batch draw. The Counts must not be used after Release; releasing
// twice panics (see the ownership contract above). Releasing a Counts
// built by NewCounts/NewDenseCounts/NewSparseCounts is allowed — their
// backings feed the same pool.
func (c *Counts) Release() {
	if c.released {
		panic("oracle: Counts released twice")
	}
	c.released = true
	if c.dense != nil {
		poolStatStripe().releases.Add(1)
		densePool.Put(c)
	} else if c.m != nil {
		poolStatStripe().releases.Add(1)
		sparsePool.Put(c)
	}
}

// releaseOnPanic is deferred by the batch tally loops: when the oracle's
// Draw panics mid-tally (a Replay running dry, a Source emitting an
// out-of-range value), the half-filled pooled buffer is handed back
// before the panic propagates, so recovering callers (histtest's replay
// path) leak nothing. On a normal return it is a no-op.
func releaseOnPanic(c *Counts) {
	if r := recover(); r != nil {
		c.Release()
		panic(r)
	}
}

// DrawNCounts draws exactly m samples from o and tallies them into a
// pooled Counts, never materializing the intermediate sample slice. It
// consumes exactly the same randomness as
//
//	NewCounts(o.N(), DrawN(o, m))
//
// (m sequential draws from o) and yields identical counts. A Sampler
// batch and a CountsReplay batch that fits in Remaining() take their
// oracle's batch kernel; every other batch is drawn one by one, so a
// replay that runs dry panics after the same draws. The caller owns the
// result; Release it when the tally has been consumed.
func DrawNCounts(o Oracle, m int) *Counts {
	switch o := o.(type) {
	case *Sampler:
		return o.drawCounts(m)
	case *CountsReplay:
		if int64(m) <= o.rem {
			c := acquireCountsSized(o.n, m)
			o.tally(c, m)
			return c
		}
	}
	c := acquireCountsSized(o.N(), m)
	defer releaseOnPanic(c)
	for i := 0; i < m; i++ {
		c.add(o.Draw())
	}
	return c
}
