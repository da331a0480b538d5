package main

import (
	"math"
	"strings"
	"testing"
)

// traceFixture holds three interleaved runs in histd's -trace-json form:
// run 1 accepts after all five stages, with two sieve rounds inside the
// sieve; run 2 rejects inside the sieve, so the sieve never exits; run 3
// ends with an error.
const traceFixture = `{"run":1,"kind":"run-start","elapsed_us":0,"n":1000,"k":4,"eps":0.5,"round":0}
{"run":2,"kind":"run-start","elapsed_us":0,"n":1000,"k":4,"eps":0.5,"round":0}
{"run":1,"kind":"stage-enter","stage":"partition","elapsed_us":0,"round":0}
{"run":2,"kind":"stage-enter","stage":"partition","elapsed_us":0,"round":0}
{"run":1,"kind":"stage-exit","stage":"partition","elapsed_us":100,"samples":10,"round":0}
{"run":1,"kind":"stage-enter","stage":"learn","elapsed_us":100,"round":0}
{"run":2,"kind":"stage-exit","stage":"partition","elapsed_us":50,"samples":10,"round":0}
{"run":2,"kind":"stage-enter","stage":"learn","elapsed_us":50,"round":0}
{"run":1,"kind":"stage-exit","stage":"learn","elapsed_us":300,"samples":20,"round":0}
{"run":1,"kind":"stage-enter","stage":"sieve","elapsed_us":300,"round":0}
{"run":2,"kind":"stage-exit","stage":"learn","elapsed_us":100,"samples":20,"round":0}
{"run":2,"kind":"stage-enter","stage":"sieve","elapsed_us":100,"round":0}
{"run":1,"kind":"sieve-round","stage":"sieve","elapsed_us":400,"samples":50,"round":0,"workers":1,"replicates":3,"dense_batches":3,"exact_batches":3,"pool_hits":2,"pool_misses":1}
{"run":2,"kind":"sieve-round","stage":"sieve","elapsed_us":150,"samples":40,"round":0,"workers":1,"replicates":3,"sparse_batches":3,"closed_form_batches":3,"pool_hits":3}
{"run":2,"kind":"run-end","elapsed_us":200,"samples":70,"round":0,"reject_stage":"sieve-heavy"}
{"run":3,"kind":"run-start","elapsed_us":0,"n":1000,"k":4,"eps":0.5,"round":0}
{"run":1,"kind":"sieve-round","stage":"sieve","elapsed_us":800,"samples":70,"round":1,"workers":1,"replicates":3,"dense_batches":3,"exact_batches":3,"pool_hits":3}
{"run":1,"kind":"stage-exit","stage":"sieve","elapsed_us":900,"samples":120,"round":0}
{"run":3,"kind":"stage-enter","stage":"partition","elapsed_us":0,"round":0}
{"run":1,"kind":"stage-enter","stage":"check","elapsed_us":900,"round":0}
{"run":1,"kind":"stage-exit","stage":"check","elapsed_us":950,"round":0}
{"run":3,"kind":"run-end","elapsed_us":30,"round":0,"err":"context canceled"}
{"run":1,"kind":"stage-enter","stage":"test","elapsed_us":950,"round":0}
{"run":1,"kind":"stage-exit","stage":"test","elapsed_us":1000,"samples":30,"round":0}
{"run":1,"kind":"run-end","elapsed_us":1000,"samples":180,"round":0,"accept":true}
`

func TestSummarizeTrace(t *testing.T) {
	s, err := summarizeTrace(strings.NewReader(traceFixture))
	if err != nil {
		t.Fatal(err)
	}
	if s.runs != 2 || s.failed != 1 {
		t.Fatalf("runs, failed = %d, %d; want 2, 1", s.runs, s.failed)
	}
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Wall-clock: run 1 1000 µs, run 2 200 µs.
	for i, want := range []struct{ ms, share, samples float64 }{
		{0.075, 150.0 / 1200, 10},  // partition: 100 + 50 µs
		{0.125, 250.0 / 1200, 20},  // learn: 200 + 50 µs
		{0.350, 700.0 / 1200, 80},  // sieve: 600 + 100 µs (closed at run-end); 120 + 40 draws
		{0.025, 50.0 / 1200, 0},    // check: run 1 only
		{0.025, 50.0 / 1200, 15.0}, // test: run 1 only, 30 draws over 2 runs
	} {
		near("core."+stages[i]+".ms", s.stageMS[i], want.ms)
		near("core."+stages[i]+".share", s.stageShare[i], want.share)
		near("core."+stages[i]+".samples", s.stageSamples[i], want.samples)
	}
	near("sieve rounds", s.sieveRounds, 0.5)
	near("exact batches", s.exact, 3)
	near("closed-form batches", s.closedForm, 1.5)
	near("dense batches", s.dense, 3)
	near("sparse batches", s.sparse, 1.5)
	near("pool hit ratio", s.poolHitRatio(), 8.0/9)
	if len(s.runMS) != 2 || s.runMS[0] != 1 || s.runMS[1] != 0.2 {
		t.Errorf("run wall-clocks = %v ms, want [1 0.2]", s.runMS)
	}
}

func TestSummarizeTraceRejectsMismatchedExit(t *testing.T) {
	bad := `{"run":1,"kind":"run-start","elapsed_us":0,"round":0}
{"run":1,"kind":"stage-enter","stage":"partition","elapsed_us":0,"round":0}
{"run":1,"kind":"stage-exit","stage":"learn","elapsed_us":5,"round":0}
`
	if _, err := summarizeTrace(strings.NewReader(bad)); err == nil {
		t.Fatal("an exit from a stage that is not open was accepted")
	}
}
