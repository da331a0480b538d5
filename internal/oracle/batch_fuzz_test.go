package oracle

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// fuzzHistogram builds a histogram over [0, n) from raw fuzz bytes: byte
// b opens a run of width 1 when its low bit is set and 1 + (b>>1)&7
// otherwise, with mass b>>4, so singleton and zero-mass runs are common.
// A final run of mass 1 covers whatever the bytes leave, and no bytes at
// all give the single-run uniform (K = 1).
func fuzzHistogram(n int, shape []byte) *dist.PiecewiseConstant {
	var pieces []dist.Piece
	lo := 0
	for _, b := range shape {
		if lo == n {
			break
		}
		w := 1
		if b&1 == 0 {
			w += int(b >> 1 & 7)
		}
		hi := min(lo+w, n)
		pieces = append(pieces, dist.Piece{Iv: intervals.Interval{Lo: lo, Hi: hi}, Mass: float64(b >> 4)})
		lo = hi
	}
	if lo < n {
		pieces = append(pieces, dist.Piece{Iv: intervals.Interval{Lo: lo, Hi: n}, Mass: 1})
	} else {
		pieces[len(pieces)-1].Mass++ // keep the total positive
	}
	return dist.MustPiecewiseConstant(n, pieces)
}

// FuzzSamplerBatchTally checks the fused dense tally against the
// single-sample path it replaces: for random cut points, masses, seeds
// and batch sizes on both sides of the n/64 dense/sparse crossover, m
// Draw() calls tallied by NewDenseCounts, DrawNCounts, and tallyDense
// forced onto a dense backing must agree on every count, Total,
// Distinct and Samples(), and leave the sampler stream at the same
// position.
func FuzzSamplerBatchTally(f *testing.F) {
	comb := make([]byte, 0, 128) // 64 pairs of a width-1 and a width-2 run
	for p := 0; p < 64; p++ {
		comb = append(comb, byte(1+p%5)<<4|1, byte(p%3)<<4|2)
	}
	f.Add(uint16(192), comb, uint64(1), uint16(2))       // comb, below n/64
	f.Add(uint16(192), comb, uint64(2), uint16(500))     // comb, dense
	f.Add(uint16(4096), []byte{}, uint64(3), uint16(63)) // K = 1, one below n/64
	f.Add(uint16(4096), []byte{}, uint64(4), uint16(64)) // K = 1, at n/64
	f.Add(uint16(1), []byte{}, uint64(5), uint16(100))   // single-element domain
	f.Add(uint16(2048), []byte{0x50, 0x31, 0xe0, 0x01, 0x7e}, uint64(6), uint16(5000))
	// Batches one short of, at, and one past one and two tally chunks.
	for i, m := range []int{tallyChunk - 1, tallyChunk, tallyChunk + 1, 2*tallyChunk - 1, 2 * tallyChunk, 2*tallyChunk + 1} {
		f.Add(uint16(4096), comb, uint64(7+i), uint16(m))
	}
	f.Fuzz(func(t *testing.T, nRaw uint16, shape []byte, seed uint64, mRaw uint16) {
		n := int(nRaw)%4096 + 1
		m := int(mRaw) % (4*n + 64)
		d := fuzzHistogram(n, shape)

		ref := NewSampler(d, rng.New(seed))
		samples := make([]int, m)
		for i := range samples {
			samples[i] = ref.Draw()
		}
		want := NewDenseCounts(n, samples)

		batch := NewSampler(d, rng.New(seed))
		got := DrawNCounts(batch, m)
		defer got.Release()
		if got.Dense() != useDense(n, m) {
			t.Fatalf("n=%d m=%d: DrawNCounts dense = %v", n, m, got.Dense())
		}
		forced := NewSampler(d, rng.New(seed))
		kernel := NewDenseCounts(n, nil)
		forced.tallyDense(kernel, m)

		for name, c := range map[string]*Counts{"DrawNCounts": got, "tallyDense": kernel} {
			if c.Total() != want.Total() || c.Distinct() != want.Distinct() {
				t.Fatalf("%s: Total/Distinct = %d/%d, per-draw %d/%d",
					name, c.Total(), c.Distinct(), want.Total(), want.Distinct())
			}
			for i := 0; i < n; i++ {
				if c.Of(i) != want.Of(i) {
					t.Fatalf("%s: Of(%d) = %d, per-draw %d", name, i, c.Of(i), want.Of(i))
				}
			}
		}
		if batch.Samples() != ref.Samples() {
			t.Fatalf("Samples() = %d, per-draw %d", batch.Samples(), ref.Samples())
		}
		next := ref.r.Uint64()
		if b, k := batch.r.Uint64(), forced.r.Uint64(); b != next || k != next {
			t.Fatalf("next Uint64: DrawNCounts %#x, tallyDense %#x, per-draw %#x", b, k, next)
		}
	})
}

// fuzzTallies builds the same tallies on a dense and on a sparse backing
// over [0, n): pairs times it steps the element by 1 + a (wrapping, so
// repeats add up) and tallies it 1 + b mod 16 times, for (a, b) the next
// byte pair of pattern, cycling. A short pattern thus reaches a large
// tree while staying cheap to fuzz and to minimize; no pattern gives an
// empty window.
func fuzzTallies(n, pairs int, pattern []byte) (dense, sparse *Counts) {
	dense, sparse = NewDenseCounts(n, nil), NewSparseCounts(n, nil)
	pattern = pattern[:len(pattern)&^1]
	if len(pattern) == 0 {
		return dense, sparse
	}
	elem := 0
	for i := 0; i < pairs; i++ {
		j := 2 * i % len(pattern)
		elem = (elem + 1 + int(pattern[j])) % n
		dense.AddN(elem, 1+int(pattern[j+1]&15))
		sparse.AddN(elem, 1+int(pattern[j+1]&15))
	}
	return dense, sparse
}

// drawExhausting runs one batch, reporting an ErrReplayExhausted panic
// as exhausted and letting every other panic through.
func drawExhausting[T any](draw func() T) (v T, exhausted bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != ErrReplayExhausted {
				panic(r)
			}
			exhausted = true
		}
	}()
	return draw(), false
}

// FuzzReplayBatchTally checks the CountsReplay batch kernel against the
// single-sample path it replaces. Arbitrary tallies on both backings are
// replayed twice from one seed: once through DrawNCounts and DrawCounts
// batches of sizes taken from split bytes, once through Draw() alone.
// After every batch the two must agree on every count, Total, Distinct,
// the backing, Samples(), Remaining() and the whole Fenwick tree, root
// and padding included. A last DrawNCounts batch of Remaining() − 1,
// Remaining() or Remaining() + 1 must exhaust exactly when the per-draw
// path does, and both shuffle and Poisson streams must end at the same
// position.
func FuzzReplayBatchTally(f *testing.F) {
	f.Add(uint32(128), uint16(0), []byte{}, uint64(1), []byte{3}, uint8(2))                 // empty window
	f.Add(uint32(5), uint16(1), []byte{3, 200}, uint64(2), []byte{7, 6, 1}, uint8(1))       // one distinct
	f.Add(uint32(300), uint16(3), []byte{1, 9, 147, 40}, uint64(3), []byte{9, 8}, uint8(0)) // three: padded
	f.Add(uint32(8192), uint16(1024), []byte{0, 7, 1, 14, 2, 21}, uint64(4), []byte{200, 33, 120}, uint8(2))
	f.Add(uint32(1<<16), uint16(1025), []byte{0, 7, 1, 14, 2, 21}, uint64(5), []byte{255, 2, 90}, uint8(1))
	f.Fuzz(func(t *testing.T, nRaw uint32, pairs uint16, pattern []byte, seed uint64, splits []byte, end uint8) {
		n := int(nRaw%(1<<16)) + 1
		dense, sparse := fuzzTallies(n, int(pairs%2048), pattern)
		for _, window := range []*Counts{dense, sparse} {
			got, want := NewCountsReplay(window, rng.New(seed)), NewCountsReplay(window, rng.New(seed))
			gotR, wantR := rng.New(seed+1), rng.New(seed+1)
			for i := 0; i <= len(splits); i++ {
				var c *Counts
				var m int
				var exhausted bool
				if i == len(splits) {
					m = max(int(got.Remaining())-1+int(end%3), 0)
					c, exhausted = drawExhausting(func() *Counts { return DrawNCounts(got, m) })
				} else if size := int(splits[i] >> 1); splits[i]&1 == 0 {
					m = size
					if size >= 8 {
						m = int(int64(size) * got.Remaining() / 127)
					}
					c, exhausted = drawExhausting(func() *Counts { return DrawNCounts(got, m) })
				} else {
					m = wantR.Poisson(float64(size))
					c, exhausted = drawExhausting(func() *Counts { return DrawCounts(got, gotR, float64(size)) })
				}
				tally := map[int]int{}
				_, wantExhausted := drawExhausting(func() int {
					for j := 0; j < m; j++ {
						tally[want.Draw()]++
					}
					return 0
				})
				if exhausted != wantExhausted {
					t.Fatalf("batch %d (m=%d): exhausted = %v, per-draw %v", i, m, exhausted, wantExhausted)
				}
				if got.Samples() != want.Samples() || got.Remaining() != want.Remaining() {
					t.Fatalf("batch %d (m=%d): Samples/Remaining = %d/%d, per-draw %d/%d",
						i, m, got.Samples(), got.Remaining(), want.Samples(), want.Remaining())
				}
				if !slices.Equal(got.tree, want.tree) {
					t.Fatalf("batch %d (m=%d): Fenwick tree differs from the per-draw one", i, m)
				}
				if exhausted {
					break
				}
				if c.Total() != m || c.Distinct() != len(tally) || c.Dense() != useDense(n, m) {
					t.Fatalf("batch %d: Total/Distinct/Dense = %d/%d/%v, per-draw %d/%d/%v",
						i, c.Total(), c.Distinct(), c.Dense(), m, len(tally), useDense(n, m))
				}
				for e, k := range tally {
					if c.Of(e) != k {
						t.Fatalf("batch %d: Of(%d) = %d, per-draw %d", i, e, c.Of(e), k)
					}
				}
				c.Release()
			}
			if g, w := got.r.Uint64(), want.r.Uint64(); g != w {
				t.Fatalf("next shuffle Uint64 %#x, per-draw %#x", g, w)
			}
			if g, w := gotR.Uint64(), wantR.Uint64(); g != w {
				t.Fatalf("next Poisson Uint64 %#x, per-draw %#x", g, w)
			}
		}
	})
}
