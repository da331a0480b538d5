package core

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/rng"
)

// TestArenaReuseMatchesFresh pins the arena contract: back-to-back Test
// calls on one shared Arena must produce bit-identical Traces to fresh-
// allocation runs, at every worker count. The sequence deliberately mixes
// domain sizes and k so each call inherits scratch sized (and dirtied) by
// a different predecessor.
func TestArenaReuseMatchesFresh(t *testing.T) {
	runs := []struct {
		n          int
		k          int
		eps        float64
		sampleSeed uint64
		testSeed   uint64
	}{
		{2048, 4, 0.8, 100, 200},
		{512, 3, 0.7, 101, 201},
		{2048, 4, 0.8, 100, 200}, // repeat of run 0: same inputs, dirtier scratch
		{1024, 2, 0.9, 102, 202},
	}
	for _, workers := range []int{1, 0} {
		cfg := PracticalConfig()
		cfg.SieveReps = 5
		cfg.Workers = workers
		arena := NewArena()
		for i, ru := range runs {
			d := threeHistogram(ru.n)
			fresh, freshDrawn := runOnce(t, d, ru.k, ru.eps, cfg, ru.sampleSeed, ru.testSeed)

			s := oracle.NewSampler(d, rng.New(ru.sampleSeed))
			reused, err := arena.Test(s, rng.New(ru.testSeed), ru.k, ru.eps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reused.Trace != fresh.Trace {
				t.Fatalf("workers=%d run %d: arena trace differs from fresh:\narena: %+v\nfresh: %+v",
					workers, i, reused.Trace, fresh.Trace)
			}
			if reused.Accept != fresh.Accept {
				t.Fatalf("workers=%d run %d: decision differs", workers, i)
			}
			if s.Samples() != freshDrawn {
				t.Fatalf("workers=%d run %d: draw counts differ: %d vs %d",
					workers, i, s.Samples(), freshDrawn)
			}
			if reused.Domain.String() != fresh.Domain.String() {
				t.Fatalf("workers=%d run %d: sieved domains differ", workers, i)
			}
		}
	}
}

// TestForkProbeDoesNotAllocate pins the CanFork satellite: asking "is
// this oracle forkable?" must be free. The old probe performed (and
// discarded) a trial Fork with a freshly allocated RNG on EVERY Test
// call; CanFork is a pure capability answer.
func TestForkProbeDoesNotAllocate(t *testing.T) {
	s := oracle.NewSampler(threeHistogram(512), rng.New(1))
	var f oracle.Forker = s
	if n := testing.AllocsPerRun(100, func() {
		if !f.CanFork() {
			t.Fatal("Sampler must report CanFork")
		}
	}); n != 0 {
		t.Fatalf("CanFork allocates %v objects per call, want 0", n)
	}
}

// TestSteadyStateAllocationsBounded guards the arena's allocation-free
// steady state end to end: warmed-up Test calls must stay under a fixed
// allocation ceiling, serial and parallel. The ceilings sit above the
// measured steady state (103 serial / 115 at four workers), tight
// enough to catch a reintroduced per-call probe fork or a scratch
// buffer that stopped being reused, loose enough to tolerate runtime
// version noise. Race builds get raceAllocSlack on top: the
// instrumentation moves a few stack allocations to the heap.
func TestSteadyStateAllocationsBounded(t *testing.T) {
	d := threeHistogram(2048)
	cfg := PracticalConfig()
	cfg.SieveReps = 5
	for _, tc := range []struct {
		workers int
		ceiling float64
	}{{1, 115}, {4, 130}} {
		cfg.Workers = tc.workers
		arena := NewArena()
		s := oracle.NewSampler(d, rng.New(300))
		for i := 0; i < 3; i++ {
			if _, err := arena.Test(s, rng.New(400), 4, 0.8, cfg); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(5, func() {
			if _, err := arena.Test(s, rng.New(400), 4, 0.8, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if ceiling := tc.ceiling + raceAllocSlack; got > ceiling {
			t.Fatalf("workers=%d: steady-state Test performs %v allocs/op, ceiling %v", tc.workers, got, ceiling)
		}
	}
}

// TestArenaRepeatedIdenticalCalls checks the steadiest state: the same
// inputs through the same arena many times in a row never drift.
func TestArenaRepeatedIdenticalCalls(t *testing.T) {
	d := threeHistogram(1024)
	cfg := PracticalConfig()
	cfg.SieveReps = 5
	cfg.Workers = 0
	arena := NewArena()
	want, _ := runOnce(t, d, 3, 0.8, cfg, 300, 400)
	for i := 0; i < 4; i++ {
		s := oracle.NewSampler(d, rng.New(300))
		got, err := arena.Test(s, rng.New(400), 3, 0.8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trace != want.Trace {
			t.Fatalf("iteration %d: trace drifted:\ngot:  %+v\nwant: %+v", i, got.Trace, want.Trace)
		}
	}
}
