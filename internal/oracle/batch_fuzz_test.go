package oracle

import (
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
