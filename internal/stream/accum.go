// Package stream turns live event streams into the count vectors the
// tester runs over — the streaming-histogram setting the paper's
// introduction cites ([GGI+02], [GKS06]): a sharded Accumulator with
// sliding-window generations, zero-allocation ndjson and binary ingest
// decoders, and the Registry of live streams the serving layer exposes
// at /v1/streams. A Snapshot folds the window into an oracle.Counts that
// oracle.NewCountsReplay replays without replacement.
package stream

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/oracle"
)

// Sharded streaming count accumulator.
//
// The ingestion engine's job is to turn a firehose of raw events — POSTed
// by clients in batches — into the per-element count vector the tester
// runs over, at a per-event cost of roughly one integer increment and
// with no contention between concurrent ingest batches. The layout:
//
//   - The domain [0, n) is split across a fixed power-of-two number of
//     shards. Dense accumulators give each shard a CONTIGUOUS element
//     range backed by a private []int64 (separately allocated, so two
//     shards never share a cache line — the same discipline as the
//     striped pool counters); sparse accumulators (huge domains) give
//     each shard an open-addressed int32→int64 table addressed by a
//     mixed hash of the element.
//   - Ingest partitions a decoded batch into per-shard staging buffers
//     (reused via a pool, no per-event allocation), then applies each
//     shard's stage under that shard's lock: the lock is taken once per
//     (batch, shard), so concurrent batches contend only when they carry
//     events for the same shard at the same instant.
//   - Sliding windows keep G generation sub-tallies per shard. Ingest
//     lands in the current generation; Rotate advances the clock and
//     clears the slot that falls out of the window; Snapshot folds every
//     live generation. G = 1 means an infinite (never-rotated) window.
//
// Concurrency contract: Ingest may be called from any number of
// goroutines concurrently. Rotate and Snapshot take the accumulator's
// exclusive lock, so they observe (and delimit) a quiescent tally —
// ingest batches are atomic with respect to snapshots.
type Accumulator struct {
	n      int
	shards []accShard
	gens   int
	width  int  // dense: elements per shard (contiguous ranges)
	dense  bool // backing choice, fixed at construction
	mask   uint32

	// mu is the ingest/snapshot phase lock: Ingest holds it shared (the
	// per-shard locks serialize same-shard writers), Rotate and Snapshot
	// hold it exclusively so the generation clock and the fold observe a
	// quiescent accumulator.
	mu        sync.RWMutex
	cur       int   // current generation slot, advanced by Rotate under mu
	rotations int64 // Rotate calls so far

	// stagePool recycles the per-batch partition scratch so steady-state
	// ingest performs no allocation.
	stagePool sync.Pool
}

// accShard is one shard: a lock plus one tally per generation. The
// trailing pad keeps adjacent shards' locks off a shared cache line.
type accShard struct {
	mu       sync.Mutex
	gens     []genTally
	ingested int64 // all-time events applied through this shard
	_        [40]byte
}

// genTally is one generation's counts for one shard: exactly one of
// dense/sparse is live.
type genTally struct {
	dense  []int64
	sparse openTable
	total  int64
}

// AccumConfig configures an Accumulator.
type AccumConfig struct {
	// N is the domain size (events are values in [0, N)). Required.
	N int
	// Shards is the shard count; rounded up to a power of two. 0 means
	// 4× GOMAXPROCS (rounded up), bounded below by 1.
	Shards int
	// Generations is the number of window sub-tallies (1 = infinite
	// window, never rotated). 0 means 1.
	Generations int
	// ForceSparse forces the open-addressed backing regardless of the
	// dense/sparse crossover heuristic (tests; huge-domain simulations).
	ForceSparse bool
}

// maxShards bounds the shard fan-out; beyond the core count shards only
// buy reduced lock contention, and 1024 padded shards is already far
// past any realistic ingest parallelism.
const maxShards = 1024

// NewAccumulator builds an accumulator for the given config.
func NewAccumulator(cfg AccumConfig) (*Accumulator, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("stream: accumulator domain %d must be positive", cfg.N)
	}
	gens := cfg.Generations
	if gens <= 0 {
		gens = 1
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
	}
	if shards > maxShards {
		shards = maxShards
	}
	s := 1
	for s < shards {
		s <<= 1
	}
	if s > cfg.N { // never more shards than elements
		s = 1
		for s*2 <= cfg.N {
			s <<= 1
		}
	}
	a := &Accumulator{
		n:      cfg.N,
		gens:   gens,
		mask:   uint32(s - 1),
		shards: make([]accShard, s),
		// The backing follows the same crossover the tester's own count
		// vectors use; ingest tallies are expected to be at least
		// domain-sized, so the decision reduces to "is the domain small
		// enough for dense".
		dense: !cfg.ForceSparse && oracle.UseDense(cfg.N, cfg.N),
		width: (cfg.N + s - 1) / s,
	}
	for i := range a.shards {
		sh := &a.shards[i]
		sh.gens = make([]genTally, gens)
		if a.dense {
			lo, hi := a.shardRange(i)
			for g := range sh.gens {
				sh.gens[g].dense = make([]int64, hi-lo)
			}
		}
	}
	a.stagePool.New = func() any {
		st := &staging{buf: make([][]int32, len(a.shards))}
		return st
	}
	return a, nil
}

// staging is the per-batch partition scratch: one reused value buffer
// per shard.
type staging struct {
	buf [][]int32
}

// shardRange returns the dense element range [lo, hi) shard i owns
// (possibly empty for trailing shards when n is not a multiple of the
// shard count).
func (a *Accumulator) shardRange(i int) (lo, hi int) {
	lo = i * a.width
	if lo > a.n {
		lo = a.n
	}
	hi = lo + a.width
	if hi > a.n {
		hi = a.n
	}
	return lo, hi
}

// shardOf maps an element to its shard: contiguous ranges for dense
// backings (preserves range locality within a shard), a mixed hash for
// sparse ones (spreads skewed domains across the shards).
func (a *Accumulator) shardOf(v int32) int {
	if a.dense {
		return int(v) / a.width
	}
	return int(uint32(uint64(uint32(v))*0x9e3779b97f4a7c15>>33) & a.mask)
}

// N returns the domain size.
func (a *Accumulator) N() int { return a.n }

// Dense reports whether the accumulator uses the dense backing.
func (a *Accumulator) Dense() bool { return a.dense }

// Shards returns the shard count.
func (a *Accumulator) Shards() int { return len(a.shards) }

// Generations returns the window sub-tally count.
func (a *Accumulator) Generations() int { return a.gens }

// Ingest applies one decoded batch of events. Every value must lie in
// [0, n) — the decoders guarantee this; Ingest panics otherwise (an
// out-of-range value reaching this point is a bug, not client input).
// Safe for concurrent use; the batch is applied atomically with respect
// to Rotate and Snapshot.
func (a *Accumulator) Ingest(values []int32) {
	if len(values) == 0 {
		return
	}
	a.mu.RLock()
	defer a.mu.RUnlock()
	cur := a.cur

	if len(a.shards) == 1 {
		// Single shard: skip the partition pass entirely.
		a.applyShard(&a.shards[0], 0, cur, values)
		return
	}

	st := a.stagePool.Get().(*staging)
	for _, v := range values {
		s := a.shardOf(v)
		st.buf[s] = append(st.buf[s], v)
	}
	for i := range st.buf {
		if len(st.buf[i]) == 0 {
			continue
		}
		a.applyShard(&a.shards[i], i, cur, st.buf[i])
		st.buf[i] = st.buf[i][:0]
	}
	a.stagePool.Put(st)
}

// applyShard folds one shard's staged values into its current
// generation under the shard lock.
func (a *Accumulator) applyShard(sh *accShard, idx, cur int, values []int32) {
	sh.mu.Lock()
	g := &sh.gens[cur]
	if g.dense != nil {
		lo := idx * a.width
		for _, v := range values {
			if int(v) < 0 || int(v) >= a.n {
				sh.mu.Unlock()
				panic(fmt.Sprintf("stream: event %d outside [0,%d)", v, a.n))
			}
			g.dense[int(v)-lo]++
		}
	} else {
		for _, v := range values {
			if int(v) < 0 || int(v) >= a.n {
				sh.mu.Unlock()
				panic(fmt.Sprintf("stream: event %d outside [0,%d)", v, a.n))
			}
			g.sparse.add(v, 1)
		}
	}
	g.total += int64(len(values))
	sh.ingested += int64(len(values))
	sh.mu.Unlock()
}

// Rotate advances the window clock: the oldest generation falls out of
// the window and its slot is cleared to receive new events. With a
// single generation, Rotate clears the whole tally (a tumbling window).
// Returns the number of events that fell out.
func (a *Accumulator) Rotate() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.cur = (a.cur + 1) % a.gens
	var dropped int64
	for i := range a.shards {
		g := &a.shards[i].gens[a.cur]
		dropped += g.total
		if g.dense != nil {
			clear(g.dense)
		} else {
			g.sparse.reset()
		}
		g.total = 0
	}
	a.rotations++
	return dropped
}

// Rotations returns how many times the window has rotated.
func (a *Accumulator) Rotations() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.rotations
}

// WindowEvents returns the number of events currently inside the window
// (all live generations).
func (a *Accumulator) WindowEvents() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var total int64
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		for g := range sh.gens {
			total += sh.gens[g].total
		}
		sh.mu.Unlock()
	}
	return total
}

// TotalEvents returns every event ever ingested (monotone; rotations do
// not subtract).
func (a *Accumulator) TotalEvents() int64 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var total int64
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		total += sh.ingested
		sh.mu.Unlock()
	}
	return total
}

// SnapshotStats describes one Snapshot fold.
type SnapshotStats struct {
	// Events is the number of events in the snapshot (the Counts total).
	Events int64
	// Distinct is the number of distinct elements observed.
	Distinct int
	// OccupiedShards is the number of shards holding at least one event.
	OccupiedShards int
}

// Snapshot folds the live window into a pooled oracle.Counts — the
// count vector the tester runs over. The fold holds the exclusive phase
// lock, so the snapshot is a consistent cut: every batch is either
// fully in or fully out. The caller owns the returned Counts and should
// Release it once the run is done (the tester reads it only during
// oracle construction, so releasing right after NewCountsReplay is
// safe).
//
// The per-element tallies — and therefore the Counts contents — are
// identical to a serial fold of every ingested batch into one map, for
// any interleaving of concurrent ingests (pinned by the equivalence
// property test): addition commutes, and the shard layout only changes
// WHERE a count lives, never its value.
func (a *Accumulator) Snapshot() (*oracle.Counts, SnapshotStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var stats SnapshotStats
	for i := range a.shards {
		sh := &a.shards[i]
		occupied := false
		for g := range sh.gens {
			if sh.gens[g].total > 0 {
				occupied = true
				stats.Events += sh.gens[g].total
			}
		}
		if occupied {
			stats.OccupiedShards++
		}
	}
	c := oracle.AcquireCounts(a.n, int(stats.Events))
	for i := range a.shards {
		sh := &a.shards[i]
		lo := i * a.width
		for g := range sh.gens {
			gt := &sh.gens[g]
			if gt.total == 0 {
				continue
			}
			if gt.dense != nil {
				for off, cnt := range gt.dense {
					if cnt != 0 {
						c.AddN(lo+off, int(cnt))
					}
				}
			} else {
				gt.sparse.forEach(func(v int32, cnt int64) {
					c.AddN(int(v), int(cnt))
				})
			}
		}
	}
	stats.Distinct = c.Distinct()
	return c, stats
}
