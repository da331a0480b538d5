package core

import (
	"context"
	"errors"
	"flag"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// The cross-engine conformance suite: every invariant PRs 1–7
// established piecemeal for the ADK pipeline, asserted table-driven
// against EVERY registered engine. A new engine registers itself in
// engine.go and inherits the whole battery; an engine that silently
// drops out of the registry fails TestConformanceRegistryPinned (and,
// in CI, the -conformance-engines list in the Makefile).

// conformanceEngines lets CI demand coverage by name: `make test` passes
// -conformance-engines=adk,cdkl22, so a deregistered engine is a loud
// failure instead of a silently shrunk table. Empty means all registered.
var conformanceEngines = flag.String("conformance-engines", "", "comma-separated engine names the conformance suite must cover (empty: all registered)")

// conformanceTargets resolves the engine set under test. When the flag
// is set, the named set must match the registry EXACTLY in both
// directions: a name the registry lacks and a registered engine the
// list omits are both fatal.
func conformanceTargets(t *testing.T) []string {
	t.Helper()
	if *conformanceEngines == "" {
		return Engines()
	}
	var names []string
	seen := map[string]bool{}
	for _, n := range strings.Split(*conformanceEngines, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := EngineFor(n); err != nil {
			t.Fatalf("-conformance-engines names %q: %v", n, err)
		}
		names = append(names, n)
		seen[n] = true
	}
	for _, n := range Engines() {
		if !seen[n] {
			t.Fatalf("registered engine %q missing from -conformance-engines=%s", n, *conformanceEngines)
		}
	}
	return names
}

// TestConformanceRegistryPinned pins the registry contents, so adding or
// removing an engine is an explicit test edit, and pins the resolution
// rules the serving layers rely on.
func TestConformanceRegistryPinned(t *testing.T) {
	want := []string{"adk", "cdkl22"}
	if got := Engines(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Engines() = %v, want %v", got, want)
	}
	eng, err := EngineFor("")
	if err != nil || eng.Name() != DefaultEngine {
		t.Fatalf("EngineFor(\"\") = %v, %v; want the default %q", eng, err, DefaultEngine)
	}
	for _, name := range Engines() {
		eng, err := EngineFor(name)
		if err != nil || eng.Name() != name {
			t.Fatalf("EngineFor(%q) = %v, %v", name, eng, err)
		}
	}
	if _, err := EngineFor("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("EngineFor(\"nope\") err = %v, want an error naming the input", err)
	}
}

// TestConformanceUnknownEngineDrawsNothing: an unknown Config.Engine is
// an error before any oracle draw — never a silent fallback.
func TestConformanceUnknownEngineDrawsNothing(t *testing.T) {
	cfg := PracticalConfig()
	cfg.Engine = "definitely-not-an-engine"
	r := rng.New(7)
	s := oracle.NewSampler(threeHistogram(512), r)
	res, err := Test(s, r, 3, 0.5, cfg)
	if err == nil || res != nil {
		t.Fatalf("unknown engine: res=%v err=%v, want nil result and an error", res, err)
	}
	if s.Samples() != 0 {
		t.Fatalf("unknown engine drew %d samples before failing", s.Samples())
	}
}

// conformanceSieveReps lists the SieveReps values the battery runs an
// engine at: the practical preset's 1, whose sieve never forks, and for
// adk also 5, which fans the sieve replicates out over forks (cdkl22 has
// no sieve).
func conformanceSieveReps(engine string) []int {
	if engine == "adk" {
		return []int{1, 5}
	}
	return []int{1}
}

// engineRun runs one observed Test with the given engine and returns the
// recorder, the realized draw count, and the result.
func engineRun(t *testing.T, engine string, d dist.Distribution, k int, eps float64, sieveReps, workers int, cs oracle.CountStrategy, seed uint64) (*obs.TraceRecorder, int64, *Result) {
	t.Helper()
	rec := obs.NewTraceRecorder()
	cfg := PracticalConfig()
	cfg.Engine = engine
	cfg.SieveReps = sieveReps
	cfg.Workers = workers
	cfg.CountStrategy = cs
	cfg.Observer = rec
	r := rng.New(seed)
	s := oracle.NewSampler(d, r)
	res, err := Test(s, r, k, eps, cfg)
	if err != nil {
		t.Fatalf("engine %s workers=%d: %v", engine, workers, err)
	}
	return rec, s.Samples(), res
}

// TestConformanceBudgetConservation: for every engine, under both count
// strategies and at several worker counts, the per-stage samples the
// StageExit events report must sum EXACTLY to the oracle's draw counter
// and to the Trace's total — no unfolded clone draw, no double-counted
// batch, no misplaced stage boundary.
func TestConformanceBudgetConservation(t *testing.T) {
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			for _, cs := range []oracle.CountStrategy{oracle.CountExact, oracle.CountClosedForm} {
				for _, reps := range conformanceSieveReps(engine) {
					for _, workers := range []int{1, 4} {
						rec, drawn, res := engineRun(t, engine, threeHistogram(512), 3, 0.5, reps, workers, cs, 41)
						runs := rec.Runs()
						if len(runs) != 1 {
							t.Fatalf("cs=%v reps=%d workers=%d: %d runs recorded", cs, reps, workers, len(runs))
						}
						var sum int64
						for _, v := range rec.StageSamples(runs[0]) {
							sum += v
						}
						if sum != drawn || sum != res.Trace.TotalSamples() {
							t.Fatalf("cs=%v reps=%d workers=%d: stage sum %d, oracle drew %d, Trace totals %d",
								cs, reps, workers, sum, drawn, res.Trace.TotalSamples())
						}
					}
				}
			}
		})
	}
}

// TestConformanceWorkerDeterminism: Workers is a pure throughput knob
// for every engine — the verdict and the full Trace must be bit-identical
// at every worker count.
func TestConformanceWorkerDeterminism(t *testing.T) {
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			for _, d := range []struct {
				name string
				d    dist.Distribution
				k    int
			}{
				{"accept", threeHistogram(512), 3},
				{"reject", comb(512), 4},
			} {
				for _, reps := range conformanceSieveReps(engine) {
					var base *Result
					for _, workers := range []int{1, 2, 4, 0} {
						_, _, res := engineRun(t, engine, d.d, d.k, 0.5, reps, workers, oracle.CountExact, 67)
						if base == nil {
							base = res
							continue
						}
						if res.Accept != base.Accept || !reflect.DeepEqual(res.Trace, base.Trace) {
							t.Fatalf("%s: reps=%d workers=%d diverged:\n  got  %+v\n  want %+v", d.name, reps, workers, res.Trace, base.Trace)
						}
					}
				}
			}
		})
	}
}

// TestConformanceEventGrammar: the event stream of every engine obeys
// the shared grammar — RunStart first (carrying the run parameters),
// RunEnd last (carrying the verdict), every StageEnter matched by a
// StageExit of the same stage, stages in strictly increasing pipeline
// order, timestamps monotone.
func TestConformanceEventGrammar(t *testing.T) {
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			for _, d := range []struct {
				name string
				d    dist.Distribution
				k    int
			}{
				{"accept", threeHistogram(512), 3},
				{"reject", comb(512), 4},
			} {
				rec, _, res := engineRun(t, engine, d.d, d.k, 0.5, 1, 0, oracle.CountExact, 61)
				evs := rec.Events()
				if evs[0].Kind != obs.KindRunStart || evs[0].N != 512 || evs[0].K != d.k || evs[0].Eps != 0.5 {
					t.Fatalf("%s: RunStart = %+v", d.name, evs[0])
				}
				last := evs[len(evs)-1]
				if last.Kind != obs.KindRunEnd || last.Accept != res.Accept {
					t.Fatalf("%s: last event %+v, result accept %v", d.name, last, res.Accept)
				}
				var open, order []obs.Stage
				for _, e := range evs {
					switch e.Kind {
					case obs.KindStageEnter:
						open = append(open, e.Stage)
						order = append(order, e.Stage)
					case obs.KindStageExit:
						if len(open) == 0 || open[len(open)-1] != e.Stage {
							t.Fatalf("%s: StageExit(%v) without matching enter", d.name, e.Stage)
						}
						open = open[:len(open)-1]
					}
				}
				if len(open) != 0 {
					t.Fatalf("%s: unclosed stages %v", d.name, open)
				}
				for i := 1; i < len(order); i++ {
					if order[i] <= order[i-1] {
						t.Fatalf("%s: stages out of pipeline order: %v", d.name, order)
					}
				}
				for i := 1; i < len(evs); i++ {
					if evs[i].Elapsed < evs[i-1].Elapsed {
						t.Fatalf("%s: event %d precedes event %d", d.name, i, i-1)
					}
				}
			}
		})
	}
}

// cancelAtEvent cancels its context when the i-th event (0-based) is
// observed. Events are emitted synchronously from the run goroutine, so
// the cancellation lands at a deterministic pipeline point.
type cancelAtEvent struct {
	cancel context.CancelFunc
	at     int64
	seen   atomic.Int64
}

func (c *cancelAtEvent) Observe(obs.Event) {
	if c.seen.Add(1)-1 == c.at {
		c.cancel()
	}
}

// TestConformanceCancellationAtEveryEvent sweeps the cancellation point
// across the ENTIRE event stream of every engine: first an uncancelled
// run records the stream, then one run per event index cancels exactly
// there. Whatever point the cancellation lands on, the pooled-Counts
// acquire/release balance must hold when TestContext returns, and a run
// that does surface the cancellation must return ctx.Err() with a
// RunEnd event carrying the error. (A cancellation that lands after the
// engine's last context check may legitimately complete instead —
// cancellation is best-effort at checkpoints, not preemption.)
func TestConformanceCancellationAtEveryEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps one run per event index")
	}
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			for _, reps := range conformanceSieveReps(engine) {
				rec, _, _ := engineRun(t, engine, threeHistogram(512), 3, 0.5, reps, 4, oracle.CountExact, 53)
				events := len(rec.Events())
				surfaced := 0
				for at := 0; at < events; at++ {
					ctx, cancel := context.WithCancel(context.Background())
					cfg := PracticalConfig()
					cfg.Engine = engine
					cfg.SieveReps = reps
					cfg.Workers = 4
					cfg.Observer = &cancelAtEvent{cancel: cancel, at: int64(at)}
					rec := obs.NewTraceRecorder()
					cfg.Observer = obs.Multi(rec, cfg.Observer)
					r := rng.New(53)
					s := oracle.NewSampler(threeHistogram(512), r)
					before := oracle.PoolStatsSnapshot()
					res, err := TestContext(ctx, s, r, 3, 0.5, cfg)
					after := oracle.PoolStatsSnapshot()
					cancel()
					if acq, rel := after.Acquires-before.Acquires, after.Releases-before.Releases; acq != rel {
						t.Fatalf("reps=%d cancel@%d: leaked pooled Counts: %d acquired, %d released", reps, at, acq, rel)
					}
					if err != nil {
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("reps=%d cancel@%d: err = %v, want context.Canceled", reps, at, err)
						}
						if res != nil {
							t.Fatalf("reps=%d cancel@%d: cancelled run returned a result", reps, at)
						}
						evs := rec.Events()
						last := evs[len(evs)-1]
						if last.Kind != obs.KindRunEnd || last.Err == "" {
							t.Fatalf("reps=%d cancel@%d: stream ends with %v (err %q), want RunEnd with error", reps, at, last.Kind, last.Err)
						}
						surfaced++
					}
				}
				if surfaced == 0 {
					t.Fatalf("reps=%d: no cancellation point surfaced ctx.Err() in %d events", reps, events)
				}
			}
		})
	}
}

// TestConformanceOperatingCharacteristics: every engine must accept the
// seeded in-class fixtures and reject the far ones — the floor every
// future engine has to clear before it is selectable.
func TestConformanceOperatingCharacteristics(t *testing.T) {
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			cfg := PracticalConfig()
			cfg.Engine = engine
			if rate := acceptRate(t, dist.Uniform(512), 1, 0.5, cfg, 12, 101); rate < 0.8 {
				t.Fatalf("uniform accept rate %.2f < 0.8", rate)
			}
			if rate := acceptRate(t, threeHistogram(512), 3, 0.5, cfg, 12, 102); rate < 0.8 {
				t.Fatalf("3-histogram accept rate %.2f < 0.8", rate)
			}
			if rate := acceptRate(t, comb(512), 4, 0.45, cfg, 12, 103); rate > 0.2 {
				t.Fatalf("comb accept rate %.2f > 0.2", rate)
			}
		})
	}
}

// TestConformanceBudgetGuard: every engine's nominal budget is enforced
// by the shared driver BEFORE the first draw.
func TestConformanceBudgetGuard(t *testing.T) {
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			cfg := PracticalConfig()
			cfg.Engine = engine
			cfg.MaxSamples = 1
			r := rng.New(7)
			s := oracle.NewSampler(threeHistogram(512), r)
			if _, err := Test(s, r, 3, 0.5, cfg); err == nil || !strings.Contains(err.Error(), "guard") {
				t.Fatalf("err = %v, want the budget-guard error", err)
			}
			if s.Samples() != 0 {
				t.Fatalf("budget-guarded run drew %d samples", s.Samples())
			}
			if ExpectedSamples(512, 3, 0.5, cfg) <= 0 {
				t.Fatal("ExpectedSamples must be positive")
			}
		})
	}
}

// TestConformanceTrivialAccept: k >= n accepts with zero draws on every
// engine (the driver owns this path, but engine selection must not
// bypass it).
func TestConformanceTrivialAccept(t *testing.T) {
	for _, engine := range conformanceTargets(t) {
		t.Run(engine, func(t *testing.T) {
			cfg := PracticalConfig()
			cfg.Engine = engine
			r := rng.New(7)
			s := oracle.NewSampler(dist.Uniform(16), r)
			res, err := Test(s, r, 16, 0.5, cfg)
			if err != nil || !res.Accept {
				t.Fatalf("res=%+v err=%v, want trivial accept", res, err)
			}
			if s.Samples() != 0 {
				t.Fatalf("trivial accept drew %d samples", s.Samples())
			}
		})
	}
}

// TestConformanceCrossEngineAgreement: on clearly-in and clearly-out
// instances the engines must agree verdict-for-verdict at fixed seeds —
// the operational meaning of "two implementations of the same testing
// problem".
func TestConformanceCrossEngineAgreement(t *testing.T) {
	targets := conformanceTargets(t)
	for _, c := range []struct {
		name string
		d    dist.Distribution
		k    int
		eps  float64
		want bool
	}{
		{"uniform-in", dist.Uniform(512), 1, 0.5, true},
		{"three-in", threeHistogram(512), 3, 0.5, true},
		{"three-slack-k", threeHistogram(512), 8, 0.5, true},
		{"comb-out", comb(512), 4, 0.45, false},
	} {
		for _, seed := range []uint64{11, 12, 13} {
			for _, engine := range targets {
				cfg := PracticalConfig()
				cfg.Engine = engine
				r := rng.New(seed)
				s := oracle.NewSampler(c.d, r)
				res, err := Test(s, r, c.k, c.eps, cfg)
				if err != nil {
					t.Fatalf("%s seed=%d engine=%s: %v", c.name, seed, engine, err)
				}
				if res.Accept != c.want {
					t.Fatalf("%s seed=%d engine=%s: accept=%v, want %v", c.name, seed, engine, res.Accept, c.want)
				}
			}
		}
	}
}
