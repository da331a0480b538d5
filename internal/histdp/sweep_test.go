package histdp

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/rng"
)

// refDP is the layer-by-layer k-segment recurrence that segment replaced,
// kept as its reference. It fills a B×B table from the same row function,
// then computes layer j = 1..k−1 column by column: for each b it starts
// from layer j−1's cover (fewer segments) and tries a = j..b in ascending
// order under a strict <. It stops after the first layer j >= 1 whose
// cover of all B pieces satisfies exit, as ProjectTV (cost == 0) and
// ProjectL2 (cost <= 0) used to; a nil exit runs every layer. It returns
// the cost of covering all B pieces at each layer it ran, and the segment
// starts of the last layer's cover.
func refDP(B, k int, row func(a int, c []float64), exit func(float64) bool) (last []float64, starts []int) {
	cost := make([][]float64, B)
	for a := range cost {
		cost[a] = make([]float64, B)
		row(a, cost[a])
	}
	prev := append([]float64(nil), cost[0]...)
	cur := make([]float64, B)
	choice := make([][]int32, k)
	for j := range choice {
		choice[j] = make([]int32, B)
	}
	last = append(last, prev[B-1])
	for j := 1; j < k; j++ {
		for b := 0; b < B; b++ {
			best, bestA := prev[b], choice[j-1][b]
			for a := j; a <= b; a++ {
				if c := prev[a-1] + cost[a][b]; c < best {
					best, bestA = c, int32(a)
				}
			}
			cur[b], choice[j][b] = best, bestA
		}
		prev, cur = cur, prev
		last = append(last, prev[B-1])
		if exit != nil && exit(prev[B-1]) {
			break
		}
	}
	b := B - 1
	for j := len(last) - 1; j >= 0; j-- {
		a := int(choice[j][b])
		starts = append(starts, a)
		b = a - 1
		if b < 0 {
			break
		}
	}
	for i, j := 0, len(starts)-1; i < j; i, j = i+1, j-1 {
		starts[i], starts[j] = starts[j], starts[i]
	}
	if starts[0] != 0 {
		starts = append([]int{0}, starts...)
	}
	return last, starts
}

// refProjectTV is ProjectTV with its DP run by refDP.
func refProjectTV(d *dist.PiecewiseConstant, k int, g *intervals.Domain) (*Projection, error) {
	t, err := newTVCost(d, g)
	if err != nil {
		return nil, err
	}
	if k >= len(t.vals) {
		return ProjectTV(context.Background(), d, k, g) // no DP on this path
	}
	last, starts := refDP(len(t.vals), k, t.rows(), func(v float64) bool { return v == 0 })
	return t.project(d, g, last[len(last)-1], starts), nil
}

// refDistanceCurve is DistanceCurve with its DP run by refDP.
func refDistanceCurve(d *dist.PiecewiseConstant, kMax int, g *intervals.Domain) []float64 {
	t, err := newTVCost(d, g)
	if err != nil {
		panic(err)
	}
	curve := make([]float64, kMax)
	last, _ := refDP(len(t.vals), min(kMax, len(t.vals)), t.rows(), nil)
	for j, v := range last {
		curve[j] = v / 2
	}
	return curve
}

// refProjectL2 is ProjectL2 with its DP run by refDP.
func refProjectL2(d *dist.PiecewiseConstant, k int) (*dist.PiecewiseConstant, float64) {
	pieces := d.Pieces()
	if k >= len(pieces) {
		proj, sse, _ := ProjectL2(d, k)
		return proj, sse
	}
	last, starts := refDP(len(pieces), k, l2Rows(pieces), func(v float64) bool { return v <= 0 })
	return l2Project(d, pieces, starts), last[len(last)-1]
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func samePieces(a, b *dist.PiecewiseConstant) bool {
	pa, pb := a.Pieces(), b.Pieces()
	if a.N() != b.N() || len(pa) != len(pb) {
		return false
	}
	for j := range pa {
		if pa[j].Iv != pb[j].Iv || !sameBits(pa[j].Mass, pb[j].Mass) {
			return false
		}
	}
	return true
}

// checkSweep compares ProjectTV at k, DistanceCurve at kMax and ProjectL2
// at k with the same programs run by refDP, bit for bit.
func checkSweep(t *testing.T, d *dist.PiecewiseConstant, g *intervals.Domain, k, kMax int) {
	t.Helper()
	got, err := ProjectTV(context.Background(), d, k, g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refProjectTV(d, k, g)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.Relaxed, want.Relaxed) || !sameBits(got.Distance, want.Distance) {
		t.Fatalf("B=%d k=%d: ProjectTV relaxed %v distance %v, recurrence %v %v",
			d.PieceCount(), k, got.Relaxed, got.Distance, want.Relaxed, want.Distance)
	}
	if !slices.Equal(got.Cuts, want.Cuts) || !samePieces(got.Projected, want.Projected) {
		t.Fatalf("B=%d k=%d: ProjectTV cuts %v, recurrence %v", d.PieceCount(), k, got.Cuts, want.Cuts)
	}

	curve, err := DistanceCurve(d, kMax, g)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range refDistanceCurve(d, kMax, g) {
		if !sameBits(curve[j], v) {
			t.Fatalf("B=%d kMax=%d: DistanceCurve[%d] = %v, recurrence %v", d.PieceCount(), kMax, j, curve[j], v)
		}
	}

	proj, sse, err := ProjectL2(d, k)
	if err != nil {
		t.Fatal(err)
	}
	wantProj, wantSSE := refProjectL2(d, k)
	if !sameBits(sse, wantSSE) || !samePieces(proj, wantProj) {
		t.Fatalf("B=%d k=%d: ProjectL2 sse %v over %d pieces, recurrence %v over %d",
			d.PieceCount(), k, sse, proj.PieceCount(), wantSSE, wantProj.PieceCount())
	}
}

// sweepInput builds a piecewise-constant input from per-piece lengths and
// values. Each value is a multiple of 2⁻²⁰ and each length is at most 4,
// so a piece's mass is exact and its per-element value comes back
// exactly: equal values tie exactly, and runs of them fit exactly.
func sweepInput(lens []int, vals []float64) *dist.PiecewiseConstant {
	pieces := make([]dist.Piece, len(lens))
	lo := 0
	for j, ln := range lens {
		pieces[j] = dist.Piece{Iv: intervals.Interval{Lo: lo, Hi: lo + ln}, Mass: vals[j] * float64(ln)}
		lo += ln
	}
	return dist.MustPiecewiseConstant(lo, pieces)
}

// TestSweepMatchesLayerRecurrence compares the one sweep with the
// recurrence it replaced on seeded random inputs: B from 2 to 600 pieces,
// tied and zero values, runs that fit exactly at some k (the old early
// exits), restricted domains that leave pieces with no weight, k up to
// B+2 and kMax up to B+3.
func TestSweepMatchesLayerRecurrence(t *testing.T) {
	r := rng.New(24)
	for trial := 0; trial < 2000; trial++ {
		var B, kTop int
		switch x := r.Intn(40); {
		case x < 28:
			B, kTop = 2+r.Intn(30), 1<<30
		case x < 39:
			B, kTop = 32+r.Intn(170), 40
		default:
			B, kTop = 200+r.Intn(401), 16
		}
		lens := make([]int, B)
		vals := make([]float64, B)
		levels := r.Intn(5) // 0: any value; else that many distinct values
		stay := r.Float64() // chance a piece repeats its left neighbour's value
		for j := range lens {
			lens[j] = 1 + r.Intn(4)
			switch {
			case j > 0 && r.Float64() < stay:
				vals[j] = vals[j-1]
			case levels == 0:
				vals[j] = float64(r.Intn(1<<20)) / (1 << 20)
			default:
				vals[j] = float64(r.Intn(levels)) / 4
			}
		}
		d := sweepInput(lens, vals)
		n := d.N()
		g := intervals.FullDomain(n)
		if r.Bernoulli(0.5) {
			ivs := make([]intervals.Interval, r.Intn(4))
			for i := range ivs {
				lo := r.Intn(n)
				ivs[i] = intervals.Interval{Lo: lo, Hi: lo + 1 + r.Intn(n-lo)}
			}
			g = intervals.NewDomain(n, ivs)
		}
		k := 1 + r.Intn(min(B+2, kTop))
		kMax := 1 + r.Intn(min(B+3, kTop))
		checkSweep(t, d, g, k, kMax)
	}
}

// FuzzSegmentSweep is TestSweepMatchesLayerRecurrence over fuzzed small
// inputs: each byte of pieces is one piece, its top two bits the length
// less one and its low six bits the value in 64ths; bit j of gMask drops
// piece j from the domain (pieces from 16 on always stay).
func FuzzSegmentSweep(f *testing.F) {
	f.Add([]byte{1, 1, 2, 2, 3, 3}, uint8(2), uint8(4), uint16(0))
	f.Add([]byte{0, 64, 128, 0, 7, 7, 200, 9}, uint8(3), uint8(9), uint16(0b1010))
	f.Add([]byte{5, 5, 5, 5, 5}, uint8(1), uint8(7), uint16(0b11111))
	f.Fuzz(func(t *testing.T, pieces []byte, kRaw, kMaxRaw uint8, gMask uint16) {
		if len(pieces) == 0 || len(pieces) > 40 {
			t.Skip()
		}
		lens := make([]int, len(pieces))
		vals := make([]float64, len(pieces))
		for j, p := range pieces {
			lens[j] = 1 + int(p>>6)
			vals[j] = float64(p&63) / 64
		}
		d := sweepInput(lens, vals)
		var ivs []intervals.Interval
		for j, pc := range d.Pieces() {
			if j >= 16 || gMask&(1<<j) == 0 {
				ivs = append(ivs, pc.Iv)
			}
		}
		g := intervals.NewDomain(d.N(), ivs)
		B := len(pieces)
		checkSweep(t, d, g, 1+int(kRaw)%(B+2), 1+int(kMaxRaw)%(B+3))
	})
}

// TestSegmentHonorsContext: the sweep checks ctx before every row, so a
// cancellation during row N ends it after exactly N rows, and a context
// cancelled beforehand runs none; ProjectTV hands its ctx to the sweep.
func TestSegmentHonorsContext(t *testing.T) {
	const B, k, stop = 300, 16, 37
	ctx, cancel := context.WithCancel(context.Background())
	rows := 0
	_, err := segment(ctx, B, k, func(int, []float64) {
		if rows++; rows == stop {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || rows != stop {
		t.Fatalf("cancelled in row %d: err = %v after %d rows, want context.Canceled after %d", stop, err, rows, stop)
	}

	rows = 0
	_, err = segment(ctx, B, k, func(int, []float64) { rows++ })
	if !errors.Is(err, context.Canceled) || rows != 0 {
		t.Fatalf("pre-cancelled: err = %v after %d rows, want context.Canceled after 0", err, rows)
	}

	d := sweepInput([]int{1, 2, 3, 1}, []float64{0.1, 0.4, 0.2, 0.3})
	if _, err := ProjectTV(ctx, d, 2, intervals.FullDomain(d.N())); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProjectTV under a cancelled ctx: err = %v, want context.Canceled", err)
	}
}
