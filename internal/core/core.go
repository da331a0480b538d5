package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/histdp"
	"repro/internal/intervals"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// Stage names identify where a rejection (or the final acceptance)
// happened; they appear in Trace.RejectStage.
const (
	StageSieveHeavy  = "sieve-heavy"  // more than k intervals above the heavy cutoff
	StageSieveStuck  = "sieve-stuck"  // residual target unreachable by removals
	StageDiscardMass = "discard-mass" // sieve wanted to discard too much mass
	StageCheck       = "check"        // learned D̂ is far from H_k on G
	StageTest        = "test"         // final χ²-vs-TV test rejected
)

// Trace records what one tester invocation did — stage sample counts,
// sieve activity, and the deciding statistics. The experiment harness
// aggregates these.
type Trace struct {
	N, K           int     // domain size, partition size
	B              float64 // ApproxPart parameter
	SieveRoundsRun int

	PartitionSamples int64
	LearnSamples     int64
	SieveSamples     int64
	TestSamples      int64

	RemovedHeavy    int     // stage-1 removals
	HeavySingletons int     // heavy intervals the sieve could not remove (singletons)
	RemovedRounds   int     // stage-2 removals
	RemovedMass     float64 // D̂-mass of removed intervals

	CheckRelaxed float64 // DP distance of D̂ to H_k on G
	FinalZ       float64 // final test statistic (0 if not reached)
	FinalThresh  float64

	RejectStage  string // empty on accept
	RejectReason string
}

// TotalSamples returns the total sample count across all stages.
func (t *Trace) TotalSamples() int64 {
	return t.PartitionSamples + t.LearnSamples + t.SieveSamples + t.TestSamples
}

// Result is the outcome of one invocation of the tester.
type Result struct {
	Accept bool
	Trace  Trace
	// Learned is the hypothesis D̂ built by the learning stage (nil when
	// the trivial k >= n path accepted).
	Learned *dist.PiecewiseConstant
	// Domain is the sieved sub-domain G the final decision was made on.
	Domain *intervals.Domain
}

// Arena holds the reusable scratch buffers of Test: the per-replicate
// statistic matrix, the median column, the per-interval medians, and the
// sieve's keep mask and removal ordering. A fresh Arena is an empty set of
// buffers; buffers grow to the high-water mark of the invocations run
// through it and are reused across sieve rounds and across Test calls, so
// repeated invocations at a fixed configuration are allocation-free in
// steady state.
//
// An Arena is NOT safe for concurrent use — one goroutine per Arena (the
// parallel sieve inside a single Test call is fine: replicate rows are
// disjoint). Reuse cannot change behavior: every buffer is fully
// re-initialized per use, and no randomness is consumed by scratch
// management, so a shared-arena run yields bit-identical Traces to a
// fresh-allocation run (pinned by TestArenaReuseMatchesFresh).
type Arena struct {
	med    [][]float64 // reps × K replicate statistics (rows into medBuf)
	medBuf []float64
	zs     []float64 // per-interval medians
	col    []float64 // reps-length median scratch column
	keep   []bool    // sieve keep mask
	order  []int     // removal ordering / heavy-index scratch
	fan    oracle.Fanout
	batch  sieveBatch // the sieve's replicate body, handed to fan by pointer

	// Observability state of the in-flight TestContext call. A nil ob is
	// the zero-overhead fast path: no events, no clock reads, no extra
	// allocations. The fields live on the Arena (not in closures) so
	// attaching an observer adds no captures — and therefore no heap
	// cells — to the hot-path closures. Every sieve replicate tallies its
	// counting-path choices into its goroutine's obTally slot, serial
	// runs into slot 0, and emitRound sums the obWorkers slots the round
	// used, so no atomics sit on the batch path.
	ob        obs.Observer
	obRun     uint64
	obStart   time.Time
	obWorkers int       // goroutines the current sieve round ran on
	obTallies []obTally // per-goroutine round tallies
}

// obTally is one goroutine's private counting-path tally for the current
// sieve round. The four counters occupy 32 bytes; the pad keeps each
// slot on its own 64-byte cache line, so concurrent workers tallying
// every batch never false-share.
type obTally struct {
	dense, sparse, exact, closedForm int64
	_                                [32]byte
}

// batch tallies one replicate batch's counting-path (dense/sparse
// backing) and count-synthesis strategy. Plain increments: the slot is
// owned by exactly one worker until the round's join.
func (t *obTally) batch(counts *oracle.Counts, cs oracle.CountStrategy) {
	if counts.Dense() {
		t.dense++
	} else {
		t.sparse++
	}
	if cs == oracle.CountClosedForm {
		t.closedForm++
	} else {
		t.exact++
	}
}

// NewArena returns an empty Arena ready to thread through Test calls.
func NewArena() *Arena { return &Arena{} }

// grow sizes the scratch for a K-interval partition with reps replicates.
func (a *Arena) grow(K, reps int) {
	if cap(a.zs) < K {
		a.zs = make([]float64, K)
	}
	a.zs = a.zs[:K]
	if cap(a.col) < reps {
		a.col = make([]float64, reps)
	}
	a.col = a.col[:reps]
	if cap(a.keep) < K {
		a.keep = make([]bool, K)
	}
	a.keep = a.keep[:K]
	if cap(a.order) < K {
		a.order = make([]int, 0, K)
	}
	// Rows are carved at a cache-line-multiple stride (64 bytes = 8
	// float64s), not packed back-to-back: packed rows put replicate t's
	// tail and replicate t+1's head on the same cache line, so two
	// workers appending statistics false-share at every row boundary.
	// The padding is pure layout — each row still exposes exactly K
	// elements of capacity, so nothing downstream changes.
	stride := (K + 7) &^ 7
	if cap(a.medBuf) < reps*stride {
		a.medBuf = make([]float64, reps*stride)
	}
	if cap(a.med) < reps {
		a.med = make([][]float64, reps)
	}
	a.med = a.med[:reps]
	if a.ob != nil {
		if cap(a.obTallies) < reps {
			a.obTallies = make([]obTally, reps)
		}
		a.obTallies = a.obTallies[:reps]
	}
	for t := 0; t < reps; t++ {
		// Zero-length rows with disjoint capacity windows: each replicate
		// appends its K statistics into its own region, so the parallel
		// sieve writes never alias.
		a.med[t] = a.medBuf[t*stride : t*stride : t*stride+K]
	}
}

// emit delivers e to the attached observer, stamping the run ID and the
// monotonic elapsed time. It is a no-op — no event construction survives,
// no clock is read, nothing allocates — when no observer is attached.
func (a *Arena) emit(e obs.Event) {
	if a.ob == nil {
		return
	}
	e.Run = a.obRun
	e.Elapsed = time.Since(a.obStart)
	a.ob.Observe(e)
}

// emitRound reports one sieve decision batch (round 0 is the stage-3a
// heavy pass): removals, realized draw count, worker fan-out, and the
// counting-path / pool deltas accumulated since the given marks.
func (a *Arena) emitRound(o oracle.Oracle, round, removed, reps int, sampMark int64, poolMark oracle.PoolStats) {
	if a.ob == nil {
		return
	}
	var sum obTally
	for _, t := range a.obTallies[:a.obWorkers] {
		sum.dense += t.dense
		sum.sparse += t.sparse
		sum.exact += t.exact
		sum.closedForm += t.closedForm
	}
	ps := oracle.PoolStatsSnapshot()
	a.emit(obs.Event{
		Kind:       obs.KindSieveRound,
		Stage:      obs.StageSieve,
		Round:      round,
		Removed:    removed,
		Samples:    o.Samples() - sampMark,
		Workers:    a.obWorkers,
		Replicates: reps,
		Dense:      int(sum.dense),
		Sparse:     int(sum.sparse),
		Exact:      int(sum.exact),
		ClosedForm: int(sum.closedForm),
		PoolHits:   ps.Hits - poolMark.Hits,
		PoolMisses: ps.Misses - poolMark.Misses,
	})
}

// fail emits the RunEnd failure event (cancellations included) and
// returns err.
func (a *Arena) fail(samples int64, err error) (*Result, error) {
	if a.ob != nil {
		a.emit(obs.Event{Kind: obs.KindRunEnd, Samples: samples, Err: err.Error()})
	}
	return nil, err
}

// check is the check stage of both engines (Step 10 of Algorithm 1):
// the DP distance of D̂ to H_k on g, run under ctx and recorded in
// tr.CheckRelaxed. It returns the reject reason, naming g by on, when
// that distance exceeds tol, and "" when it does not.
func (a *Arena) check(ctx context.Context, tr *Trace, dhat *dist.PiecewiseConstant, k int, g *intervals.Domain, tol float64, on string) (string, error) {
	a.emit(obs.Event{Kind: obs.KindStageEnter, Stage: obs.StageCheck})
	proj, err := histdp.ProjectTV(ctx, dhat, k, g)
	if err != nil {
		return "", fmt.Errorf("core: check DP failed: %w", err)
	}
	tr.CheckRelaxed = proj.Relaxed
	a.emit(obs.Event{Kind: obs.KindStageExit, Stage: obs.StageCheck})
	if proj.Relaxed > tol {
		return fmt.Sprintf("distance of D̂ to H_k on %s is %.5f > tolerance %.5f", on, proj.Relaxed, tol), nil
	}
	return "", nil
}

// Test runs the engine selected by cfg.Engine (Algorithm 1 of the
// source paper by default): decide whether the distribution behind o is
// a k-histogram (accept) or ε-far from every k-histogram (reject), each
// with probability at least 2/3 under the configured constants.
//
// Each engine's stages draw fresh samples; Trace records the per-stage
// accounting. See engine_adk.go for the default pipeline's mapping to
// the paper's listing and engine_cdkl.go for the CDKL'22 tester.
//
// Test allocates its scratch afresh; callers invoking the tester
// repeatedly should reuse an Arena via Arena.Test, which is equivalent
// (bit-identical Trace) but allocation-free in steady state.
func Test(o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	return NewArena().TestContext(context.Background(), o, r, k, eps, cfg)
}

// TestContext is Test honoring ctx: the run aborts with ctx.Err() at
// sieve-round, batch-draw and DP-row granularity (see Arena.TestContext).
func TestContext(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	return NewArena().TestContext(ctx, o, r, k, eps, cfg)
}

// Test runs the selected engine using a's scratch buffers (see Test for
// the algorithm contract).
func (a *Arena) Test(o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	return a.TestContext(context.Background(), o, r, k, eps, cfg)
}

// TestContext runs the selected engine using a's scratch buffers,
// honoring ctx (see Test for the algorithm contract).
//
// TestContext is the shared driver of the Engine contract: it resolves
// cfg.Engine, validates the inputs, attaches the observer and emits
// RunStart, resolves the trivial k >= n accept, guards the engine's
// nominal budget against cfg.MaxSamples, and then hands off to the
// engine's pipeline. Everything an engine does beyond its statistic —
// budget conservation, pooled-buffer release, worker-count determinism,
// event grammar — is specified by the Engine contract and asserted for
// every registered engine by the conformance suite.
//
// Cancellation contract: the context is checked before every Poissonized
// batch draw, at every round boundary and before every row of the
// check-stage DP, so a cancelled run returns ctx.Err() within one
// decision round or one DP row of the cancellation. In-flight
// replicate batches complete and release their pooled count buffers
// before the error returns — a cancelled run retains no pooled Counts
// (asserted by TestCancellationReleasesPooledCounts) — and clone draws
// are folded back into o's counter, so sample accounting stays exact.
// A nil ctx means context.Background().
func (a *Arena) TestContext(ctx context.Context, o oracle.Oracle, r *rng.RNG, k int, eps float64, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	eng, err := EngineFor(cfg.Engine)
	if err != nil {
		return nil, err
	}
	n := o.N()
	if k < 1 {
		return nil, fmt.Errorf("core: k = %d must be positive", k)
	}
	if eps <= 0 || eps > 1 {
		return nil, fmt.Errorf("core: eps = %v must be in (0, 1]", eps)
	}
	a.ob = cfg.Observer
	if a.ob != nil {
		a.obRun = obs.NextRunID()
		a.obStart = time.Now()
		a.emit(obs.Event{Kind: obs.KindRunStart, N: n, K: k, Eps: eps})
	}
	if k >= n {
		// Every distribution over [n] is an n-histogram.
		a.emit(obs.Event{Kind: obs.KindRunEnd, Accept: true})
		return &Result{Accept: true, Domain: intervals.FullDomain(n)}, nil
	}
	if err := CheckBudget(n, k, eps, cfg); err != nil {
		return a.fail(0, err)
	}
	if err := ctx.Err(); err != nil {
		return a.fail(0, err)
	}
	return eng.run(ctx, a, o, r, k, eps, cfg)
}

// maxCheckCells bounds the check-stage DP at admission: k layers over
// the partIntervals(b) intervals the nominal budgets assume, or over n
// if fewer (a partition of [n] has at most n intervals), 12 bytes a
// cell in histdp's sweep. Heavy singletons can lift the realized count
// to 11b/3 + 2, so the table stays under about 40 MB. k = 32, ε = 0.25
// and k = 64, ε = 0.5 need 0.29M and 0.69M cells under PracticalConfig;
// every k < n passes over n <= 1448. Config.Scale does not move the
// bound: b depends on k and ε alone.
const maxCheckCells = 1 << 21

// partIntervals is the nominal interval count of ApproxPart at b:
// K <= 7b/3 + 2, heavy singletons aside.
func partIntervals(b float64) int64 {
	return learn.TotalSamples(learn.SampleCount(7*b/3), 2)
}

// CheckBudget is the driver's budget guard: it errs exactly when Test
// over a domain of size n at (k, eps) under cfg would refuse to start,
// because the selected engine's nominal budget exceeds cfg.MaxSamples
// or because the check-stage DP over the nominal partition would hold
// more than maxCheckCells cells. k >= n passes, since the driver
// accepts it without drawing. Callers that want to refuse a run before
// queueing it use this.
func CheckBudget(n, k int, eps float64, cfg Config) error {
	if k >= n {
		return nil
	}
	if est := ExpectedSamples(n, k, eps, cfg); est > cfg.maxSamples() {
		return fmt.Errorf("core: nominal budget %d samples exceeds the guard %d; lower the constants (Config.Scale) or raise Config.MaxSamples", est, cfg.maxSamples())
	}
	K := partIntervals(cfg.PartB(k, eps))
	if K > int64(n) {
		K = int64(n)
	}
	if cells := float64(k) * float64(K); cells > maxCheckCells {
		return fmt.Errorf("core: the check-stage DP over k = %d layers and about %d intervals needs %.3g cells, over the guard %d; lower k or raise eps", k, K, cells, maxCheckCells)
	}
	return nil
}

// ExpectedSamples returns the nominal total sample budget of one Test
// invocation under cfg's selected engine (the default ADK engine:
// partition + learn + sieve rounds + final test, matching the Theorem
// 3.1 accounting). Useful for sizing experiments without running the
// tester. An unresolvable cfg.Engine falls back to the default engine's
// accounting — the run itself will surface the error.
func ExpectedSamples(n, k int, eps float64, cfg Config) int64 {
	eng, err := EngineFor(cfg.Engine)
	if err != nil {
		eng = engines[DefaultEngine]
	}
	return eng.ExpectedSamples(n, k, eps, cfg)
}
