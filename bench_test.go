// Benchmark harness: one testing.B benchmark per experiment table of the
// reproduction (see DESIGN.md's experiment index and EXPERIMENTS.md for
// recorded results). Each benchmark executes the registered experiment in
// Quick mode and reports the tables through b.Log, so
//
//	go test -bench=E -benchtime=1x
//
// regenerates every table. cmd/histbench runs the same experiments at
// full fidelity with nicer output.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/benchhot"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exper"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// runExperiment executes one registered experiment per benchmark
// iteration and logs its rendered tables.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exper.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(exper.RunConfig{Seed: uint64(42 + i), Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			var buf bytes.Buffer
			for _, tb := range tables {
				if err := tb.Render(&buf); err != nil {
					b.Fatal(err)
				}
			}
			b.Logf("%s: %s\n%s", id, e.Claim, buf.String())
		}
	}
}

// BenchmarkE1SampleComplexityVsN regenerates the Theorem 1.1 √n-scaling
// table.
func BenchmarkE1SampleComplexityVsN(b *testing.B) { runExperiment(b, "E1") }

// BenchmarkE2SampleComplexityVsK regenerates the Theorem 1.1 k-scaling
// table.
func BenchmarkE2SampleComplexityVsK(b *testing.B) { runExperiment(b, "E2") }

// BenchmarkE3BaselineComparison regenerates the Section 1.2 comparison
// against ILR12, CDGR16, and the naive learner.
func BenchmarkE3BaselineComparison(b *testing.B) { runExperiment(b, "E3") }

// BenchmarkE4PaninskiHardness regenerates the Proposition 4.1 hardness
// tables for the Q_ε family.
func BenchmarkE4PaninskiHardness(b *testing.B) { runExperiment(b, "E4") }

// BenchmarkE5SupportSizeReduction regenerates the Proposition 4.2 /
// Lemma 4.4 reduction tables.
func BenchmarkE5SupportSizeReduction(b *testing.B) { runExperiment(b, "E5") }

// BenchmarkE6OperatingCharacteristic regenerates the Section 2
// accept-rate-vs-distance curve.
func BenchmarkE6OperatingCharacteristic(b *testing.B) { runExperiment(b, "E6") }

// BenchmarkE7RunningTime regenerates the Theorem 3.1 running-time table.
func BenchmarkE7RunningTime(b *testing.B) { runExperiment(b, "E7") }

// BenchmarkE8SievingAblation regenerates the Section 3.2.1 sieve
// ablation.
func BenchmarkE8SievingAblation(b *testing.B) { runExperiment(b, "E8") }

// BenchmarkE9LearnerChiSq regenerates the Lemma 3.5 learner-error curve.
func BenchmarkE9LearnerChiSq(b *testing.B) { runExperiment(b, "E9") }

// BenchmarkE10ModelSelection regenerates the Section 1.1 model-selection
// pipeline table.
func BenchmarkE10ModelSelection(b *testing.B) { runExperiment(b, "E10") }

// BenchmarkE11PoissonizationAblation regenerates the Section 2
// Poissonization ablation.
func BenchmarkE11PoissonizationAblation(b *testing.B) { runExperiment(b, "E11") }

// BenchmarkE12CheckAblation regenerates the Step-10 check ablation.
func BenchmarkE12CheckAblation(b *testing.B) { runExperiment(b, "E12") }

// BenchmarkE13KnownPartition regenerates the Section 1.2 known-vs-unknown
// partition comparison.
func BenchmarkE13KnownPartition(b *testing.B) { runExperiment(b, "E13") }

// BenchmarkE14EngineHeadToHead regenerates the adk-vs-cdkl22 operating
// characteristic and samples-to-decision comparison.
func BenchmarkE14EngineHeadToHead(b *testing.B) { runExperiment(b, "E14") }

// BenchmarkE15TwoSampleCloseness regenerates the DKN'17-reduction vs
// naive full-domain CDVV14 two-sample closeness comparison.
func BenchmarkE15TwoSampleCloseness(b *testing.B) { runExperiment(b, "E15") }

// benchEightHistogram returns a well-separated 8-histogram over [0, n)
// for the sieve hot-path benchmark.
func benchEightHistogram(n int) *dist.PiecewiseConstant {
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

// benchSieveWorkers runs the full tester at production scale (n = 10⁵,
// k = 8) with the derived Θ(log k) sieve replicates, the axis the
// Workers knob parallelizes. Compare
//
//	go test -bench=SieveWorkers -benchtime=3x
//
// between the Serial and Parallel variants: on a multi-core machine the
// parallel run should be well over 1.5× faster, with bit-identical
// decisions per seed (asserted below).
func benchSieveWorkers(b *testing.B, workers int) {
	const n, k = 100_000, 8
	const eps = 0.8
	cfg := core.PracticalConfig()
	cfg.SieveReps = 0 // derive Θ(log k) replicates as the paper does
	cfg.Workers = workers
	cfg.MaxSamples = 1 << 33
	d := benchEightHistogram(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := oracle.NewSampler(d, rng.New(uint64(i)*2+1))
		res, err := core.Test(s, rng.New(uint64(i)*2+2), k, eps, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accept {
			b.Fatalf("iteration %d: 8-histogram rejected at stage %s", i, res.Trace.RejectStage)
		}
	}
}

func BenchmarkSieveWorkersSerial(b *testing.B)   { benchSieveWorkers(b, 1) }
func BenchmarkSieveWorkersParallel(b *testing.B) { benchSieveWorkers(b, 0) }

// BenchmarkCoreTestHotPath measures the steady-state cost of repeated
// tester invocations at production scale (n = 10⁵, k = 8) — the
// configuration the BENCH.json ledger tracks (see `make bench-json`).
// Run with -benchmem; the allocs/op figure is the headline number.
func BenchmarkCoreTestHotPath(b *testing.B) { benchhot.CoreTestHotPath(b, 1) }

// BenchmarkCoreTestHotPathParallel is the same workload with the sieve
// replicates fanned out across all cores. The fixed-count Parallel2/4
// variants mirror the ledger entries, which pin the worker count so the
// numbers are comparable across machines.
func BenchmarkCoreTestHotPathParallel(b *testing.B)  { benchhot.CoreTestHotPath(b, 0) }
func BenchmarkCoreTestHotPathParallel2(b *testing.B) { benchhot.CoreTestHotPath(b, 2) }
func BenchmarkCoreTestHotPathParallel4(b *testing.B) { benchhot.CoreTestHotPath(b, 4) }

// BenchmarkCoreTestHotPathEngineCDKL22 runs the same workload under the
// CDKL'22 engine. It has no sieve at all, so its wall clock is dominated
// by partition + learn + one flatness batch.
func BenchmarkCoreTestHotPathEngineCDKL22(b *testing.B) {
	benchhot.CoreTestHotPathEngine(b, "cdkl22", 1)
}

// BenchmarkCoreTestHotPathClosedForm is the serial workload with count
// vectors synthesized in closed form from the sampler's run structure
// (oracle.CountClosedForm) instead of drawn sample by sample.
func BenchmarkCoreTestHotPathClosedForm(b *testing.B) { benchhot.CoreTestHotPathClosedForm(b, 1) }

// BenchmarkCoreTestHotPathClosedFormParallel4 combines both engines'
// speedups: closed-form counting within each replicate, four sieve
// workers across replicates.
func BenchmarkCoreTestHotPathClosedFormParallel4(b *testing.B) {
	benchhot.CoreTestHotPathClosedForm(b, 4)
}

// BenchmarkDrawCountsPooled measures one pooled Poissonized dense batch
// draw at n = m = 10⁵ — zero allocations in steady state.
func BenchmarkDrawCountsPooled(b *testing.B) { benchhot.DrawCountsPooled(b) }

// BenchmarkDrawCountsClosedForm measures the same batch synthesized in
// O(k + occupied) RNG calls; the ratio to BenchmarkDrawCountsPooled is
// the per-batch closed-form speedup.
func BenchmarkDrawCountsClosedForm(b *testing.B) { benchhot.DrawCountsClosedForm(b) }

// BenchmarkDrawCountsReplayDistinct1e3 and ...Distinct2p20 measure one
// DrawCounts batch of mean 2¹⁶ from a stream window's CountsReplay: the
// stream-mixed window (10³ distinct elements) and a window whose 2²⁰
// distinct elements put the Fenwick array out of L2.
func BenchmarkDrawCountsReplayDistinct1e3(b *testing.B) {
	benchhot.DrawCountsReplay(b, benchhot.ReplayStreamWindow())
}
func BenchmarkDrawCountsReplayDistinct2p20(b *testing.B) {
	benchhot.DrawCountsReplay(b, benchhot.ReplayWideWindow())
}

// BenchmarkDrawNCountsDense2p20 measures one exact learn-size batch
// (478,800 draws) over the cdkl-inline 1024-bucket reference at
// n = 2²⁰, whose dense backing does not fit in L2;
// BenchmarkCoreTestHotPathEngineCDKL22ClosedForm2p20 runs the
// cdkl-inline requests in-process (CDKL'22, closed form, reference and
// comb alternating).
func BenchmarkDrawNCountsDense2p20(b *testing.B) { benchhot.DrawNCountsDense2p20(b) }
func BenchmarkCoreTestHotPathEngineCDKL22ClosedForm2p20(b *testing.B) {
	benchhot.CoreTestHotPathCDKLInline(b)
}

// BenchmarkZPerIntervalCDKLInline2p20 and BenchmarkZPerIntervalSieve1e5
// time one per-interval χ² statistic, the walk of a batch's counts
// included: over the cdkl-inline flatness batch (n = 2²⁰, about 36% of
// the slots occupied) and over a fully occupied adk sieve batch at
// n = 10⁵.
func BenchmarkZPerIntervalCDKLInline2p20(b *testing.B) { benchhot.ZPerIntervalCDKLInline(b) }
func BenchmarkZPerIntervalSieve1e5(b *testing.B)       { benchhot.ZPerIntervalSieve1e5(b) }

// BenchmarkProjectTVCDKLInline2p20 and BenchmarkProjectTVUniform2p20K32
// time the check-stage DP over a learned D̂: the cdkl-inline reference at
// k = 8, ε = 0.8, and the uniform distribution at k = 32, ε = 0.5, both
// over n = 2²⁰.
func BenchmarkProjectTVCDKLInline2p20(b *testing.B) { benchhot.ProjectTVCDKLInline(b) }
func BenchmarkProjectTVUniform2p20K32(b *testing.B) { benchhot.ProjectTVUniform2p20(b) }

// BenchmarkIngestSoak and its ParallelN variants measure aggregate
// sharded-accumulator ingest throughput — the events/s numbers of the
// ledger's ingest entries; N goroutines pour 4096-event batches into one
// shared accumulator.
func BenchmarkIngestSoak(b *testing.B)          { benchhot.IngestSoak(b, 1) }
func BenchmarkIngestSoakParallel2(b *testing.B) { benchhot.IngestSoak(b, 2) }
func BenchmarkIngestSoakParallel4(b *testing.B) { benchhot.IngestSoak(b, 4) }

// BenchmarkIngestDecodeBinary / NDJSON include the wire-format parsing
// in front of the accumulator — the full request-body→tally path.
func BenchmarkIngestDecodeBinary(b *testing.B) { benchhot.IngestDecodeBinary(b) }
func BenchmarkIngestDecodeNDJSON(b *testing.B) { benchhot.IngestDecodeNDJSON(b) }

// TestSieveWorkersBenchmarkDeterminism pins the benchmark's claim that
// serial and parallel runs decide identically per seed.
func TestSieveWorkersBenchmarkDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale tester run")
	}
	const n, k = 100_000, 8
	const eps = 0.8
	cfg := core.PracticalConfig()
	cfg.SieveReps = 0
	cfg.MaxSamples = 1 << 33
	d := benchEightHistogram(n)
	run := func(workers int) core.Trace {
		cfg.Workers = workers
		s := oracle.NewSampler(d, rng.New(1))
		res, err := core.Test(s, rng.New(2), k, eps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	if serial, parallel := run(1), run(0); serial != parallel {
		t.Fatalf("trace differs across workers:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
