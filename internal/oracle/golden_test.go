package oracle

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// Golden stream pins. Every other bit-identity test compares two paths
// inside one build, so a sampler that consumed its randomness stream
// differently would still agree with itself there. These cases compare
// against constants recorded from the per-draw implementation instead:
// for each (sampler, entry point, size) the FNV-64a digest covers the
// ForEach sequence, Total, Distinct and backing of two consecutive
// batches, then Samples() and the next Uint64 of both the sampler's
// stream and the Poisson stream. The constants must never be edited —
// a mismatch means a stream changed, and every seed-pinned verdict
// downstream changed with it.

// goldenEight is the 8-run histogram of the hot-path benchmarks.
func goldenEight(n int) *dist.PiecewiseConstant {
	masses := []float64{0.25, 0.05, 0.15, 0.02, 0.2, 0.08, 0.15, 0.1}
	pieces := make([]dist.Piece, len(masses))
	w := n / len(masses)
	for j, m := range masses {
		hi := (j + 1) * w
		if j == len(masses)-1 {
			hi = n
		}
		pieces[j] = dist.Piece{Iv: intervals.Interval{Lo: j * w, Hi: hi}, Mass: m}
	}
	return dist.MustPiecewiseConstant(n, pieces)
}

// goldenComb is a 64-pair comb over [0, 192): every pair is a width-1
// run followed by a width-2 run, and every third width-2 run is empty,
// so the singleton shortcut, the within-run Intn and zero-probability
// alias columns are all on the stream.
func goldenComb() *dist.PiecewiseConstant {
	pieces := make([]dist.Piece, 0, 128)
	for p := 0; p < 64; p++ {
		lo := 3 * p
		pieces = append(pieces,
			dist.Piece{Iv: intervals.Interval{Lo: lo, Hi: lo + 1}, Mass: float64(1 + p%5)},
			dist.Piece{Iv: intervals.Interval{Lo: lo + 1, Hi: lo + 3}, Mass: float64(p % 3)},
		)
	}
	return dist.MustPiecewiseConstant(192, pieces)
}

// goldenCDKLInline returns the two specs of the cdkl-inline served
// workload over n = 2²⁰: the eight-histogram flattened onto 1024 equal
// buckets (every run sparse at a closed-form mean of 512,000, t up to
// ~1000), and its 512-pair comb, whose kept blocks are dense runs at
// λ ≈ 2 beside empty ones. Neither's dense backing fits in L2.
func goldenCDKLInline() (ref, comb *dist.PiecewiseConstant) {
	const n = 1 << 20
	ref = dist.Flatten(goldenEight(n), intervals.EquiWidth(n, 1024))
	comb, _ = gen.BlockComb(ref, 512, 1)
	return ref, comb
}

type goldenDigest struct{ buf []byte }

func (g *goldenDigest) int(v int64) { g.buf = binary.LittleEndian.AppendUint64(g.buf, uint64(v)) }

func (g *goldenDigest) counts(c *Counts) {
	dense := int64(0)
	if c.Dense() {
		dense = 1
	}
	g.int(dense)
	g.int(int64(c.Total()))
	g.int(int64(c.Distinct()))
	c.ForEach(func(e, k int) {
		g.int(int64(e))
		g.int(int64(k))
	})
}

func (g *goldenDigest) sum() uint64 {
	h := fnv.New64a()
	h.Write(g.buf)
	return h.Sum64()
}

func TestGoldenSamplerStreams(t *testing.T) {
	cdklRef, cdklComb := goldenCDKLInline()
	samplers := map[string]dist.Distribution{
		"eight":    goldenEight(100_000),
		"comb":     goldenComb(),
		"unif":     dist.Uniform(4096),
		"cdklRef":  cdklRef,
		"cdklComb": cdklComb,
	}
	ops := map[string]func(s *Sampler, r *rng.RNG, size int) *Counts{
		"DrawCounts":  func(s *Sampler, r *rng.RNG, size int) *Counts { return DrawCounts(s, r, float64(size)) },
		"DrawNCounts": func(s *Sampler, _ *rng.RNG, size int) *Counts { return DrawNCounts(s, size) },
		"ClosedForm": func(s *Sampler, r *rng.RNG, size int) *Counts {
			return s.DrawPoissonCountsClosedForm(r, float64(size))
		},
	}
	// size is the batch length (DrawNCounts) or Poisson mean; dense
	// records which side of the n/64 crossover the first batch lands on
	// (n/64 = 1562 for eight, 3 for comb, 64 for unif, 16384 for the
	// cdkl specs). The cdkl rows draw at the learn size of the
	// cdkl-inline workload (478,800), around one and nine 2048-value
	// tally chunks, and at its closed-form mean (512,000); the unif
	// closed-form rows add a sparse run whose total crosses 2048 (mean
	// 3000) and dense runs at λ ≈ 14.6, past inversion's λ < 10
	// (mean 60,000).
	cases := []struct {
		sampler, op string
		size        int
		dense       bool
		want        uint64
	}{
		{"eight", "DrawCounts", 1000, false, 0xea5ed06e9dbe824c},
		{"eight", "DrawCounts", 200_000, true, 0xe50357fd70a51c14},
		{"eight", "DrawNCounts", 1561, false, 0x2478cc8128bc55f7},
		{"eight", "DrawNCounts", 1562, true, 0x59adb437a85ac62d},
		{"eight", "DrawNCounts", 200_000, true, 0xda77f6653a1b1b9f},
		{"eight", "ClosedForm", 1000, false, 0x6e74acac48dc629f},
		{"eight", "ClosedForm", 200_000, true, 0x9725cfb9c408e78d},
		{"comb", "DrawCounts", 1, false, 0x567254502f8df279},
		{"comb", "DrawCounts", 500, true, 0xbe5ac35663ea4d77},
		{"comb", "DrawNCounts", 2, false, 0x26bb55cc300820f4},
		{"comb", "DrawNCounts", 3, true, 0xbecbb999294adf59},
		{"comb", "DrawNCounts", 5000, true, 0x2e97324865e63257},
		{"comb", "ClosedForm", 1, false, 0xda3ac5d5556964fb},
		{"comb", "ClosedForm", 5000, true, 0x34b720651aa07d18},
		{"unif", "DrawCounts", 20, false, 0xc941341f24ffc06a},
		{"unif", "DrawCounts", 5000, true, 0xb118eb05eb034b08},
		{"unif", "DrawNCounts", 63, false, 0x6eebf992d7e14d42},
		{"unif", "DrawNCounts", 64, true, 0x0acc8672fd6076a9},
		{"unif", "ClosedForm", 20, false, 0x467c475459c933f3},
		{"unif", "ClosedForm", 5000, true, 0x6559b10bcaa07114},
		{"cdklRef", "DrawNCounts", 478_800, true, 0xd9eb871d1333239b},
		{"cdklRef", "DrawNCounts", 2047, false, 0xa5c2fdc9b64a68e3},
		{"cdklRef", "DrawNCounts", 2048, false, 0xf5ce38d8c344a699},
		{"cdklRef", "DrawNCounts", 2049, false, 0x712784ab26c5f811},
		{"cdklRef", "DrawNCounts", 18_431, true, 0x9939ddfd903d4695},
		{"cdklRef", "DrawNCounts", 18_432, true, 0x205d5fc9f135d098},
		{"cdklRef", "DrawNCounts", 18_433, true, 0x7aabb36d80aa7e07},
		{"cdklComb", "DrawNCounts", 478_800, true, 0x91aa08e3132fa52f},
		{"cdklComb", "DrawNCounts", 18_432, true, 0x912eb37cbdb29a22},
		{"cdklRef", "ClosedForm", 512_000, true, 0x7e483e787abcbea3},
		{"cdklComb", "ClosedForm", 512_000, true, 0xbf97e5a14db4e871},
		{"unif", "ClosedForm", 3000, true, 0xaa238235ee01f79f},
		{"unif", "ClosedForm", 60_000, true, 0xacd72bc855041c02},
	}
	for i, tc := range cases {
		seed := uint64(1000 + 10*i)
		s := NewSampler(samplers[tc.sampler], rng.New(seed))
		r := rng.New(seed + 1)
		var g goldenDigest
		for batch := 0; batch < 2; batch++ {
			c := ops[tc.op](s, r, tc.size)
			if batch == 0 && c.Dense() != tc.dense {
				t.Errorf("%s/%s/%d: first batch dense = %v, want %v", tc.sampler, tc.op, tc.size, c.Dense(), tc.dense)
			}
			g.counts(c)
			c.Release()
		}
		g.int(s.Samples())
		g.int(int64(s.r.Uint64()))
		g.int(int64(r.Uint64()))
		if got := g.sum(); got != tc.want {
			t.Errorf("%s/%s/%d: digest %#016x, want %#016x", tc.sampler, tc.op, tc.size, got, tc.want)
		}
	}
}

// TestGoldenSamplerDraw pins the single-sample path every batch entry
// point is checked against: 4096 Draw() values per sampler, then the
// sampler stream's next Uint64.
func TestGoldenSamplerDraw(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    dist.Distribution
		want uint64
	}{
		{"eight", goldenEight(100_000), 0x02a7399df8cef2e8},
		{"comb", goldenComb(), 0xf6f5db1c8aa09ed1},
		{"unif", dist.Uniform(4096), 0x339ceab7f2d40831},
	} {
		s := NewSampler(tc.d, rng.New(77))
		var g goldenDigest
		for i := 0; i < 4096; i++ {
			g.int(int64(s.Draw()))
		}
		g.int(s.Samples())
		g.int(int64(s.r.Uint64()))
		if got := g.sum(); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// goldenReplayWindow builds the tallies TestGoldenCountsReplayStreams
// replays: one distinct element; three (a Fenwick tree that is not a
// power of two long); 1024 (one that is); the stream-mixed shape, 2²¹
// events of a 4-histogram over n = 1000 on a dense backing; and a sparse
// backing over n = 2²⁰ holding about 5000 distinct elements.
func goldenReplayWindow(name string) *Counts {
	switch name {
	case "one":
		c := AcquireCounts(128, 128)
		c.AddN(17, 12_000)
		return c
	case "three":
		c := AcquireCounts(300, 300)
		c.AddN(2, 3000)
		c.AddN(150, 5000)
		c.AddN(299, 1500)
		return c
	case "pow2":
		c := AcquireCounts(4096, 4096)
		for i := 0; i < 1024; i++ {
			c.AddN(4*i+1, 1+i*7%29)
		}
		return c
	case "mixed":
		pieces := make([]dist.Piece, 4)
		for j, m := range []float64{0.4, 0.1, 0.3, 0.2} {
			pieces[j] = dist.Piece{Iv: intervals.Interval{Lo: 250 * j, Hi: 250 * (j + 1)}, Mass: m}
		}
		return DrawNCounts(NewSampler(dist.MustPiecewiseConstant(1000, pieces), rng.New(5)), 1<<21)
	case "sparse":
		const n = 1 << 20
		c := AcquireCounts(n, 0)
		r := rng.New(9)
		for i := 0; i < 5000; i++ {
			c.AddN(r.Intn(n), 1+r.Intn(16))
		}
		return c
	}
	panic("unknown window " + name)
}

// TestGoldenCountsReplayStreams pins the without-replacement replay the
// stream verdict path reads, against constants recorded from the
// per-draw Fenwick replay: 4096 Draw() values, or two consecutive
// DrawNCounts / DrawCounts batches (one when the batch is the whole
// window), then Samples(), Remaining() and the next Uint64 of both the
// shuffle stream and the Poisson stream. DrawNCounts sizes sit on both
// sides of each window's n/64 crossover and at exactly Remaining()
// (size -1). The constants must never be edited.
func TestGoldenCountsReplayStreams(t *testing.T) {
	cases := []struct {
		window, op string
		size       int
		dense      bool
		want       uint64
	}{
		{"one", "Draw", 4096, false, 0x8824aafd43a7afa0},
		{"one", "DrawNCounts", 1, false, 0x815d6a3ee631885f},
		{"one", "DrawNCounts", 2, true, 0xd6b47d003c665e51},
		{"one", "DrawNCounts", -1, true, 0x78a95fdcdc6ed9f9},
		{"one", "DrawCounts", 3000, true, 0x473323092b1f8bcf},
		{"three", "Draw", 4096, false, 0x36dc248772482a15},
		{"three", "DrawNCounts", 3, false, 0x5f14827a94025a20},
		{"three", "DrawNCounts", 4, true, 0x91789fad44b6100d},
		{"three", "DrawNCounts", 4001, true, 0x5584994e84c69dd3},
		{"three", "DrawNCounts", -1, true, 0x78a07fae6faf2d21},
		{"three", "DrawCounts", 2000, true, 0xa5f808a073b63968},
		{"pow2", "Draw", 4096, false, 0x2f3a945f41ddd3b4},
		{"pow2", "DrawNCounts", 63, false, 0xb268fc7a2a57d48d},
		{"pow2", "DrawNCounts", 64, true, 0x49daf5f9a3bf3476},
		{"pow2", "DrawNCounts", 5003, true, 0x49e555d02ea0ed9d},
		{"pow2", "DrawNCounts", -1, true, 0xb50e093411c1a094},
		{"pow2", "DrawCounts", 4000, true, 0x80ff831205665c03},
		{"mixed", "Draw", 4096, false, 0x40e808c6895a5e5d},
		{"mixed", "DrawNCounts", 14, false, 0x908546de25f5ca5e},
		{"mixed", "DrawNCounts", 15, true, 0xd3dcbffdd8654f76},
		{"mixed", "DrawNCounts", 65_537, true, 0x9690c6beaea1b969},
		{"mixed", "DrawNCounts", -1, true, 0xf8d36096ea7c83dd},
		{"mixed", "DrawCounts", 65_536, true, 0x1dc2055b79aae7de},
		{"sparse", "Draw", 4096, false, 0x91dcff90d6de57b2},
		{"sparse", "DrawNCounts", 16_383, false, 0x8e40be5931e844a4},
		{"sparse", "DrawNCounts", 16_384, true, 0x79380212e1e70a57},
		{"sparse", "DrawNCounts", -1, true, 0x5b2d7da790a02588},
		{"sparse", "DrawCounts", 10_000, false, 0x760008d1639d8fe4},
	}
	for i, tc := range cases {
		seed := uint64(2000 + 10*i)
		window := goldenReplayWindow(tc.window)
		cr := NewCountsReplay(window, rng.New(seed))
		window.Release()
		r := rng.New(seed + 1)
		var g goldenDigest
		switch tc.op {
		case "Draw":
			for j := 0; j < tc.size; j++ {
				g.int(int64(cr.Draw()))
			}
		default:
			for batch := 0; batch < 2 && cr.Remaining() > 0; batch++ {
				var c *Counts
				switch {
				case tc.op == "DrawCounts":
					c = DrawCounts(cr, r, float64(tc.size))
				case tc.size < 0:
					c = DrawNCounts(cr, int(cr.Remaining()))
				default:
					c = DrawNCounts(cr, tc.size)
				}
				if batch == 0 && c.Dense() != tc.dense {
					t.Errorf("%s/%s/%d: first batch dense = %v, want %v", tc.window, tc.op, tc.size, c.Dense(), tc.dense)
				}
				g.counts(c)
				c.Release()
			}
		}
		g.int(cr.Samples())
		g.int(cr.Remaining())
		g.int(int64(cr.r.Uint64()))
		g.int(int64(r.Uint64()))
		if got := g.sum(); got != tc.want {
			t.Errorf("%s/%s/%d: digest %#016x, want %#016x", tc.window, tc.op, tc.size, got, tc.want)
		}
	}
}
