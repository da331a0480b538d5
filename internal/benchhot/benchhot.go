// Package benchhot holds the hot-path micro-benchmark bodies shared by
// the repo-root testing.B benchmarks (go test -bench) and cmd/histbench
// -bench-json, which runs the same bodies via testing.Benchmark and
// records their medians in BENCH.json — the ledger tracking allocs/op
// and ns/op of the steady-state tester across changes.
package benchhot

import (
	"context"
	"math"
	"testing"

	"repro/internal/chisq"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// EightHistogram returns a well-separated 8-histogram over [0, n) — the
// production-scale workload of the hot-path benchmarks.
func EightHistogram(n int) *dist.PiecewiseConstant {
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

// CoreTestHotPath measures the steady-state cost of repeated tester
// invocations at production scale (n = 10⁵, k = 8): one shared
// core.Arena, one shared alias-table prototype, fresh RNG streams per
// iteration, under the adk engine (Algorithm 1) named explicitly so the
// entry keeps measuring it if the default engine ever changes. With
// -benchmem the allocs/op figure is the headline number BENCH.json
// tracks.
func CoreTestHotPath(b *testing.B, workers int) {
	coreTestHotPath(b, "adk", workers, oracle.CountExact)
}

// CoreTestHotPathClosedForm is the same workload with the count vectors
// synthesized from the sampler's run structure (oracle.CountClosedForm)
// instead of drawn sample by sample — the BENCH.json entry that pins the
// closed-form speedup.
func CoreTestHotPathClosedForm(b *testing.B, workers int) {
	coreTestHotPath(b, "adk", workers, oracle.CountClosedForm)
}

// CoreTestHotPathEngine is the same workload under the named engine.
func CoreTestHotPathEngine(b *testing.B, engine string, workers int) {
	coreTestHotPath(b, engine, workers, oracle.CountExact)
}

func coreTestHotPath(b *testing.B, engine string, workers int, cs oracle.CountStrategy) {
	const n, k = 100_000, 8
	const eps = 0.8
	cfg := core.PracticalConfig()
	cfg.Engine = engine
	cfg.SieveReps = 0 // derive Θ(log k) replicates as the paper does
	cfg.Workers = workers
	cfg.MaxSamples = 1 << 33
	cfg.CountStrategy = cs
	proto := oracle.NewSampler(EightHistogram(n), rng.New(0))
	arena := core.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := proto.Fork(rng.New(uint64(i)*2 + 1))
		res, err := arena.Test(s, rng.New(uint64(i)*2+2), k, eps, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accept {
			b.Fatalf("iteration %d: 8-histogram rejected at stage %s", i, res.Trace.RejectStage)
		}
	}
}

// CDKLInlineSpecs returns the two specs of the cdkl-inline served
// workload over n = 2²⁰: the 8-histogram flattened onto 1024 equal
// buckets, and its 512-pair block comb. Their 4 MiB dense count backing
// does not fit in L2, which sets them apart from every n = 10⁵ entry.
func CDKLInlineSpecs() (ref, comb *dist.PiecewiseConstant) {
	const n = 1 << 20
	ref = dist.Flatten(EightHistogram(n), intervals.EquiWidth(n, 1024))
	comb, _ = gen.BlockComb(ref, 512, 1)
	return ref, comb
}

// CoreTestHotPathCDKLInline is the cdkl-inline request run in-process:
// CDKL'22 with closed-form counts at k = 8, ε = 0.8 on the two
// CDKLInlineSpecs, alternating reference and comb by iteration as the
// served traffic does, with one shared Arena and one alias-table
// prototype per spec. Its exact partition and learn batches tally into
// the 4 MiB backing; the reference accepts and the comb rejects at
// every seed the benchmark uses.
func CoreTestHotPathCDKLInline(b *testing.B) {
	const k, eps = 8, 0.8
	ref, comb := CDKLInlineSpecs()
	protos := [2]*oracle.Sampler{oracle.NewSampler(ref, rng.New(0)), oracle.NewSampler(comb, rng.New(0))}
	cfg := core.PracticalConfig()
	cfg.Engine, cfg.CountStrategy = "cdkl22", oracle.CountClosedForm
	arena := core.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := protos[i%2].Fork(rng.New(uint64(i)*2 + 1))
		res, err := arena.Test(s, rng.New(uint64(i)*2+2), k, eps, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Accept != (i%2 == 0) {
			b.Fatalf("iteration %d: accept = %v on the %s", i, res.Accept, [2]string{"reference", "comb"}[i%2])
		}
	}
}

// DrawNCountsDense2p20 measures one exact DrawNCounts batch at the
// cdkl-inline learn size (478,800 draws) over the 1024-bucket
// reference, n = 2²⁰: the two-phase tally into a dense backing past L2.
func DrawNCountsDense2p20(b *testing.B) {
	ref, _ := CDKLInlineSpecs()
	s := oracle.NewSampler(ref, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.DrawNCounts(s, 478_800).Release()
	}
}

// ZPerIntervalCDKLInline times chisq.ZPerIntervalInto over the
// cdkl-inline flatness batch: the reference spec at n = 2²⁰, closed-form
// counts of mean 512,000 (about 36% of the slots occupied), the default
// flatness ε_f = ε/2 at ε = 0.8.
func ZPerIntervalCDKLInline(b *testing.B) {
	const epsF = 0.8 / 2
	ref, _ := CDKLInlineSpecs()
	chi := core.PracticalConfig().Chi
	n := float64(ref.N())
	zPerInterval(b, ref, chi.SampleMean(ref.N(), epsF), chi.TruncFactor*epsF/n)
}

// ZPerIntervalSieve1e5 times chisq.ZPerIntervalInto over one adk sieve
// batch of the n = 10⁵ 8-histogram at ε = 0.8: closed-form counts of
// the sieve mean (about 2.3·10⁶), so every slot is occupied.
func ZPerIntervalSieve1e5(b *testing.B) {
	const eps = 0.8
	h := EightHistogram(100_000)
	cfg := core.PracticalConfig()
	n := float64(h.N())
	alpha := cfg.Alpha(eps)
	zPerInterval(b, h, cfg.SieveMFactor*math.Sqrt(n)/(alpha*alpha), cfg.Chi.TruncFactor*eps/n)
}

// zPerInterval times the per-interval statistic over one batch of the
// given mean from h, against the partition and D̂ that PracticalConfig's
// partition and learn stages produce at k = 8, ε = 0.8. Everything but
// the statistic is built before the timer starts.
func zPerInterval(b *testing.B, h *dist.PiecewiseConstant, mean, tau float64) {
	s, r, p, dhat := learned(b, h, 8, 0.8)
	counts := oracle.DrawCountsWith(s, r, mean, oracle.CountClosedForm)
	defer counts.Release()
	g := intervals.FullDomain(h.N())
	zs := make([]float64, 0, p.Count())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zs = chisq.ZPerIntervalInto(zs[:0], counts, dhat, p, g, mean, tau)
	}
}

// learned runs PracticalConfig's partition and learn stages on h at
// (k, eps) and returns the sampler and RNG they drew from, the partition
// and D̂.
func learned(b *testing.B, h *dist.PiecewiseConstant, k int, eps float64) (*oracle.Sampler, *rng.RNG, *intervals.Partition, *dist.PiecewiseConstant) {
	cfg := core.PracticalConfig()
	s, r := oracle.NewSampler(h, rng.New(1)), rng.New(2)
	part, err := learn.ApproxPart(s, r, cfg.PartB(k, eps), cfg.PartSampleC)
	if err != nil {
		b.Fatal(err)
	}
	dhat, _ := learn.Learn(s, r, part.Partition, eps/cfg.LearnEpsDivisor, cfg.LearnSampleC)
	return s, r, part.Partition, dhat
}

// ProjectTVCDKLInline times the check-stage DP of a cdkl-inline run:
// histdp.ProjectTV at k = 8 on the full domain, over the D̂ learned from
// the cdkl-inline reference at ε = 0.8.
func ProjectTVCDKLInline(b *testing.B) {
	ref, _ := CDKLInlineSpecs()
	projectTV(b, ref, 8, 0.8)
}

// ProjectTVUniform2p20 times the same DP at k = 32 over the D̂ learned
// from the uniform distribution over n = 2²⁰ at ε = 0.5, ten times the
// pieces of the cdkl-inline D̂.
func ProjectTVUniform2p20(b *testing.B) {
	projectTV(b, dist.Uniform(1<<20), 32, 0.5)
}

// projectTV times histdp.ProjectTV at k over the D̂ that PracticalConfig's
// partition and learn stages produce from h at (k, eps), built before the
// timer starts.
func projectTV(b *testing.B, h *dist.PiecewiseConstant, k int, eps float64) {
	_, _, _, dhat := learned(b, h, k, eps)
	g := intervals.FullDomain(h.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := histdp.ProjectTV(context.Background(), dhat, k, g); err != nil {
			b.Fatal(err)
		}
	}
}

// DrawCountsPooled measures one pooled Poissonized dense batch draw at
// n = m = 10⁵ — the unit of work the sieve repeats Θ(log k · log k)
// times per tester invocation. Steady state is zero-allocation: the
// count buffer cycles through the oracle pool.
func DrawCountsPooled(b *testing.B) {
	const n = 100_000
	s := oracle.NewSampler(EightHistogram(n), rng.New(1))
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := oracle.DrawCounts(s, r, n)
		if c.Total() < 0 {
			b.Fatal("impossible")
		}
		c.Release()
	}
}

// DrawCountsClosedForm measures one closed-form Poissonized batch at the
// sieve's production scale: mean m = 20n = 2·10⁶, the regime where the
// CoreTestHotPath workload actually spends its time (PracticalConfig
// puts the per-round sieve mean at ≈23n). Closed-form cost is
// O(k + Σ min(t_j, width_j)) <= O(k + n) — independent of m — while the
// per-draw path scales linearly in m, so compare this against 20×
// DrawCountsPooled's ns/op. (At m = n the two paths cost about the same
// and the synthesis has nothing to save; the win is m >> n.)
func DrawCountsClosedForm(b *testing.B) {
	const n = 100_000
	const mean = 20 * n
	s := oracle.NewSampler(EightHistogram(n), rng.New(1))
	r := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := oracle.DrawCountsWith(s, r, mean, oracle.CountClosedForm)
		if c.Total() < 0 {
			b.Fatal("impossible")
		}
		c.Release()
	}
}

// replayBatch is the mean of one DrawCountsReplay batch.
const replayBatch = 1 << 16

// ReplayStreamWindow is the window of the stream-mixed served workload:
// 2²¹ events of its 4-histogram over n = 1000, so all 10³ elements are
// present and the replay's Fenwick array fits in L1.
func ReplayStreamWindow() *oracle.Counts {
	h, err := dist.FromWeights(intervals.FromBoundaries(1000, []int{250, 500, 750}), []float64{0.4, 0.1, 0.3, 0.2})
	if err != nil {
		panic(err)
	}
	return oracle.DrawNCounts(oracle.NewSampler(h, rng.New(1)), 1<<21)
}

// ReplayWideWindow holds 2²⁰ distinct elements with 1 to 15 events each
// (about 2²³ in all): the replay's 8 MiB Fenwick array no longer fits
// in L2, so the descent's cache misses set its cost.
func ReplayWideWindow() *oracle.Counts {
	const n = 1 << 20
	c := oracle.AcquireCounts(n, n)
	for i := 0; i < n; i++ {
		c.AddN(i, 1+i%15)
	}
	return c
}

// DrawCountsReplay measures one DrawCounts batch of mean 2¹⁶ from a
// CountsReplay over window — the unit of work the sieve and the learner
// repeat when they test a stream. The replay is rebuilt, inside the
// timed loop as a stream test pays for it, whenever fewer than 2·2¹⁶
// events remain.
func DrawCountsReplay(b *testing.B, window *oracle.Counts) {
	shuffle, r := rng.New(1), rng.New(2)
	cr := oracle.NewCountsReplay(window, shuffle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cr.Remaining() < 2*replayBatch {
			cr = oracle.NewCountsReplay(window, shuffle)
		}
		c := oracle.DrawCounts(cr, r, replayBatch)
		if c.Total() < 0 {
			b.Fatal("impossible")
		}
		c.Release()
	}
}
