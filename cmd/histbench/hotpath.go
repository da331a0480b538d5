package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/benchhot"
	"repro/internal/cli"
	"repro/internal/oracle"
)

// prPooledBaseline is BenchmarkCoreTestHotPath measured on the commit
// immediately before the scratch-arena/pool refactor. These constants are
// deliberately frozen in source: the JSON file is regenerated on every
// `make bench-json`, and the before/after comparison only means something
// if "before" does not move.
var prPooledBaseline = map[string]cli.HotpathResult{
	"BenchmarkCoreTestHotPath": {
		Iterations:  5,
		NsPerOp:     954484689,
		BytesPerOp:  14486099,
		AllocsPerOp: 1691,
		GOMAXPROCS:  1,
		Note:        "pre-pooling baseline, recorded at PR 2 (before arena/pool refactor)",
	},
}

// nsGateTolerance is the fractional ns/op regression the perf gate
// allows between like-for-like (same gomaxprocs) entries. Wider than the
// allocs/op tolerance because wall clock is noisy on shared runners.
const nsGateTolerance = 0.15

// benchAt runs one benchmark body with GOMAXPROCS raised to procs for
// the duration of the run, restoring the previous setting after. Raising
// (rather than clamping to the core count) is what makes the ParallelN
// entries MEASURED everywhere: a machine with fewer cores than the
// variant wants still runs the real N-worker schedule, timeshared — a
// genuine wall-clock measurement of that fan-out on that machine, and
// the note records the hardware so a reader never mistakes a timeshared
// number for a parallel speedup.
func benchAt(procs int, body func(b *testing.B)) testing.BenchmarkResult {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return testing.Benchmark(body)
}

// measuredNote describes the conditions one entry was measured under.
func measuredNote(procs int) string {
	if hw := runtime.NumCPU(); procs > hw {
		return fmt.Sprintf("measured at gomaxprocs %d timeshared over %d hardware thread(s): real schedule, no parallel speedup available; regenerate on a >=%d-core machine for a contention-free reference", procs, hw, procs)
	}
	return fmt.Sprintf("measured at gomaxprocs %d, %d hardware thread(s)", procs, runtime.NumCPU())
}

// measureHotpath runs the hot-path micro-benchmarks and returns a fresh
// report, logging progress to stderr. Each entry is MEASURED at the
// parallelism it records: serial bodies at gomaxprocs 1, the ParallelN
// variants with GOMAXPROCS raised to N around the benchmark (timeshared
// when the machine has fewer cores — the note says so). No entry is ever
// projected from a model.
func measureHotpath(stderr io.Writer) cli.HotpathReport {
	run := func(name string, procs int, body func(b *testing.B)) cli.HotpathResult {
		fmt.Fprintf(stderr, "running %s (gomaxprocs %d)...\n", name, procs)
		r := benchAt(procs, body)
		return cli.HotpathResult{
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			GOMAXPROCS:  procs,
			Note:        measuredNote(procs),
		}
	}
	noted := func(res cli.HotpathResult, what string) cli.HotpathResult {
		res.Note = what + "; " + res.Note
		return res
	}
	replay := func(name, window string, counts func() *oracle.Counts) cli.HotpathResult {
		return noted(run(name, 1, func(b *testing.B) { benchhot.DrawCountsReplay(b, counts()) }),
			"one DrawCounts batch of mean 2^16 from a CountsReplay over "+window)
	}
	return cli.HotpathReport{
		Schema:   cli.HotpathSchema,
		Go:       runtime.Version(),
		Workload: "core.Test on an 8-histogram, n=1e5, k=8, eps=0.8, PracticalConfig, shared Arena + shared alias-table prototype",
		Baseline: prPooledBaseline,
		Results: map[string]cli.HotpathResult{
			"BenchmarkCoreTestHotPath": run("BenchmarkCoreTestHotPath", 1,
				func(b *testing.B) { benchhot.CoreTestHotPath(b, 1) }),
			"BenchmarkCoreTestHotPathParallel2": run("BenchmarkCoreTestHotPathParallel2", 2,
				func(b *testing.B) { benchhot.CoreTestHotPath(b, 2) }),
			"BenchmarkCoreTestHotPathParallel4": run("BenchmarkCoreTestHotPathParallel4", 4,
				func(b *testing.B) { benchhot.CoreTestHotPath(b, 4) }),
			"BenchmarkCoreTestHotPathEngineADK": run("BenchmarkCoreTestHotPathEngineADK", 1,
				func(b *testing.B) { benchhot.CoreTestHotPathEngine(b, "adk", 1) }),
			"BenchmarkCoreTestHotPathEngineCDKL22": run("BenchmarkCoreTestHotPathEngineCDKL22", 1,
				func(b *testing.B) { benchhot.CoreTestHotPathEngine(b, "cdkl22", 1) }),
			"BenchmarkCoreTestHotPathClosedForm": run("BenchmarkCoreTestHotPathClosedForm", 1,
				func(b *testing.B) { benchhot.CoreTestHotPathClosedForm(b, 1) }),
			"BenchmarkCoreTestHotPathClosedFormParallel4": run("BenchmarkCoreTestHotPathClosedFormParallel4", 4,
				func(b *testing.B) { benchhot.CoreTestHotPathClosedForm(b, 4) }),
			"BenchmarkDrawCountsPooled": run("BenchmarkDrawCountsPooled", 1,
				benchhot.DrawCountsPooled),
			"BenchmarkDrawCountsClosedForm": run("BenchmarkDrawCountsClosedForm", 1,
				benchhot.DrawCountsClosedForm),
			"BenchmarkDrawCountsReplayDistinct1e3": replay("BenchmarkDrawCountsReplayDistinct1e3",
				"the stream-mixed window (2^21 events, 10^3 distinct)", benchhot.ReplayStreamWindow),
			"BenchmarkDrawCountsReplayDistinct2p20": replay("BenchmarkDrawCountsReplayDistinct2p20",
				"a window of 2^20 distinct elements (about 2^23 events; Fenwick array out of L2)", benchhot.ReplayWideWindow),
			"BenchmarkDrawNCountsDense2p20": noted(run("BenchmarkDrawNCountsDense2p20", 1, benchhot.DrawNCountsDense2p20),
				"one exact DrawNCounts batch of 478,800 draws over the cdkl-inline 1024-bucket reference, n=2^20 (dense backing out of L2)"),
			"BenchmarkCoreTestHotPathEngineCDKL22ClosedForm2p20": noted(run("BenchmarkCoreTestHotPathEngineCDKL22ClosedForm2p20", 1,
				benchhot.CoreTestHotPathCDKLInline),
				"the cdkl-inline requests in-process: cdkl22, closed-form, k=8, eps=0.8, n=2^20, reference and comb alternating"),
		},
	}
}

func writeHotpathJSON(path string, stderr io.Writer) error {
	rep := measureHotpath(stderr)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}

// gateHotpath is the CI perf gate: re-measure the hot-path benchmarks
// and fail when allocs/op regressed more than tolerance — or ns/op more
// than nsGateTolerance — against the committed report at path, comparing
// only entries measured at equal gomaxprocs. Returns the number of
// violations.
func gateHotpath(path string, tolerance float64, stdout, stderr io.Writer) (int, error) {
	committed, err := cli.LoadHotpathReport(path)
	if err != nil {
		return 0, err
	}
	fresh := measureHotpath(stderr)
	violations, skipped := cli.CompareHotpath(committed.Results, fresh.Results, tolerance, nsGateTolerance)
	for _, s := range skipped {
		fmt.Fprintf(stderr, "histbench: perf gate: %s\n", s)
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "histbench: perf gate: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "perf gate: %d benchmark(s) within %.0f%% allocs / %.0f%% ns of %s (%d skipped as not like-for-like)\n",
			len(committed.Results)-len(skipped), tolerance*100, nsGateTolerance*100, path, len(skipped))
	}
	return len(violations), nil
}
