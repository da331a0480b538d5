package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// TestGoldenTraces pins the full Trace of one seeded run per engine
// against values recorded from the per-draw sampler, float fields by
// their bits. The in-build bit-identity tests compare two paths of one
// build; this one fails when the exact draw stream itself changes —
// the partition, learn, sieve and final batches all read it. The replay
// rows run the same engines over a CountsReplay of a 2²³-event window,
// the oracle a stream test reads, against values recorded from the
// per-draw Fenwick replay. The constants must never be edited.
func TestGoldenTraces(t *testing.T) {
	bits := math.Float64frombits
	for _, tc := range []struct {
		engine  string
		replay  bool
		samples int64
		want    Trace
	}{
		{"adk", false, 4301951, Trace{
			N: 4096, K: 108, B: bits(0x4054e5b8eaa8d7df), SieveRoundsRun: 2,
			PartitionSamples: 4293, LearnSamples: 497664, SieveSamples: 3538503, TestSamples: 261491,
			RemovedHeavy: 1, RemovedRounds: 1, RemovedMass: bits(0x3f91db3066225bd9),
			CheckRelaxed: bits(0x3f758a66134eed00),
			FinalZ:       bits(0x40549d76901a3492), FinalThresh: bits(0x4080000000000001),
		}},
		{"cdkl22", false, 583987, Trace{
			N: 4096, K: 108, B: bits(0x4054e5b8eaa8d7df),
			PartitionSamples: 4293, LearnSamples: 497664, TestSamples: 82030,
			CheckRelaxed: bits(0x3f83207f36c67980),
			FinalZ:       bits(0x403412ffde9028b1), FinalThresh: bits(0x4080000000000000),
		}},
		{"adk", true, 4306559, Trace{
			N: 4096, K: 109, B: bits(0x4054e5b8eaa8d7df), SieveRoundsRun: 2,
			PartitionSamples: 4293, LearnSamples: 502272, SieveSamples: 3538503, TestSamples: 261491,
			RemovedRounds: 2, RemovedMass: bits(0x3f913b52f36eb12b),
			CheckRelaxed: bits(0x3f79ee3ee982d314),
			FinalZ:       bits(0xc03bd306eb68c2e4), FinalThresh: bits(0x4080000000000001),
		}},
		{"cdkl22", true, 588595, Trace{
			N: 4096, K: 109, B: bits(0x4054e5b8eaa8d7df),
			PartitionSamples: 4293, LearnSamples: 502272, TestSamples: 82030,
			CheckRelaxed: bits(0x3f8032d4cfb3ad26),
			FinalZ:       bits(0x4037b952149c72e8), FinalThresh: bits(0x4080000000000000),
		}},
	} {
		cfg := PracticalConfig()
		cfg.Engine = tc.engine
		var o oracle.Oracle = oracle.NewSampler(threeHistogram(4096), rng.New(31))
		if tc.replay {
			window := oracle.DrawNCounts(o, 1<<23)
			o = oracle.NewCountsReplay(window, rng.New(33))
			window.Release()
		}
		res, err := Test(o, rng.New(32), 3, 0.5, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		got := res.Trace
		if !res.Accept || got != tc.want || math.Float64bits(got.FinalZ) != math.Float64bits(tc.want.FinalZ) {
			t.Errorf("%s: accept=%v trace\n got  %+v\n want %+v", tc.engine, res.Accept, got, tc.want)
		}
		if o.Samples() != tc.samples {
			t.Errorf("%s: oracle drew %d, want %d", tc.engine, o.Samples(), tc.samples)
		}
	}

	// The cdkl-inline rows: CDKL'22 with closed-form counts on the served
	// workload's two specs over n = 2²⁰, k = 8, ε = 0.8. Their learn batch
	// (478,800 exact draws) and partition batch tally into a 4 MiB dense
	// backing, past L2; the closed-form flatness batch has sparse runs
	// on the reference and dense ones on the comb.
	ref, combSpec := cdklInlineSpecs()
	for _, tc := range []struct {
		spec    string
		accept  bool
		samples int64
		want    Trace
	}{
		{"reference", true, 1000975, Trace{
			N: 1 << 20, K: 266, B: bits(0x4068ea1a18e2093a),
			PartitionSamples: 12204, LearnSamples: 478800, TestSamples: 509971,
			CheckRelaxed: bits(0x3f8a5e2ddde22feb),
			FinalZ:       bits(0x4092b3adfaf3fdd4), FinalThresh: bits(0x40c0000000000000),
		}},
		{"comb", false, 1003197, Trace{
			N: 1 << 20, K: 266, B: bits(0x4068ea1a18e2093a),
			PartitionSamples: 12204, LearnSamples: 478800, TestSamples: 512193,
			CheckRelaxed: bits(0x3fa91dbdd1f5d751),
			FinalZ:       bits(0x411e3c4f7dd088f5), FinalThresh: bits(0x40c0000000000000),
			RejectStage:  "test",
			RejectReason: "trimmed flatness statistic 495379.9 above threshold 8192.0 (forgave 7 of 266 intervals)",
		}},
	} {
		d := ref
		if tc.spec == "comb" {
			d = combSpec
		}
		cfg := PracticalConfig()
		cfg.Engine, cfg.CountStrategy = "cdkl22", oracle.CountClosedForm
		o := oracle.NewSampler(d, rng.New(41))
		res, err := Test(o, rng.New(42), 8, 0.8, cfg)
		if err != nil {
			t.Fatalf("cdkl22/%s: %v", tc.spec, err)
		}
		got := res.Trace
		if res.Accept != tc.accept || got != tc.want || math.Float64bits(got.FinalZ) != math.Float64bits(tc.want.FinalZ) {
			t.Errorf("cdkl22/%s: accept=%v trace\n got  %#v\n want %#v", tc.spec, res.Accept, got, tc.want)
		}
		if o.Samples() != tc.samples {
			t.Errorf("cdkl22/%s: oracle drew %d, want %d", tc.spec, o.Samples(), tc.samples)
		}
	}
}

// cdklInlineSpecs returns the cdkl-inline served workload's specs over
// n = 2²⁰: the 8-histogram of the hot-path benchmarks flattened onto
// 1024 equal buckets, and its 512-pair block comb.
func cdklInlineSpecs() (ref, comb *dist.PiecewiseConstant) {
	const n = 1 << 20
	masses := []float64{0.25, 0.05, 0.15, 0.02, 0.2, 0.08, 0.15, 0.1}
	pieces := make([]dist.Piece, len(masses))
	for j, m := range masses {
		pieces[j] = dist.Piece{Iv: intervals.Interval{Lo: j * n / 8, Hi: (j + 1) * n / 8}, Mass: m}
	}
	ref = dist.Flatten(dist.MustPiecewiseConstant(n, pieces), intervals.EquiWidth(n, 1024))
	comb, _ = gen.BlockComb(ref, 512, 1)
	return ref, comb
}
