// Command histbench regenerates the experiment tables E1–E14 (see
// DESIGN.md for the index mapping each to a paper claim).
//
// Usage:
//
//	histbench -list
//	histbench -run E1,E4
//	histbench -run all -quick -seed 7
//	histbench -run E1,E6 -engine cdkl22
//	histbench -run E6 -csv results/
//	histbench -run E7 -cpuprofile cpu.out -memprofile mem.out
//	histbench -run E6 -trace-json trace.jsonl
//	histbench -hotpath-json BENCH_hotpath.json
//	histbench -hotpath-gate BENCH_hotpath.json
//	histbench -ingest-json BENCH_ingest.json
//	histbench -ingest-gate BENCH_ingest.json
//	histbench -cover-profile cover.out -cover-json COVERAGE.json
//	histbench -cover-profile cover.out -cover-gate COVERAGE.json
//	histbench -conformance-list .
//
// -hotpath-gate re-measures the hot-path micro-benchmarks and exits 1
// when allocs/op regressed more than -hotpath-tolerance against the
// committed report (the CI perf gate; see `make bench-gate`).
// -ingest-gate does the same for the streaming-ingestion soaks,
// gating events/s downward and holding the 4-way soak to an absolute
// 1M events/s floor.
//
// -cover-gate ratchets statement coverage against the committed
// COVERAGE.json: a total or per-package drop beyond -cover-tolerance
// (default 1pt) exits 1 (see `make cover`). -conformance-list diffs the
// CONFORMANCE_ENGINES / CONFORMANCE_WORKLOADS declarations in the
// Makefile and CI workflows against the in-code registries, so the
// conformance battery cannot silently shrink when an engine or serve
// workload is added (see `make conformance-list`).
//
// ^C (or SIGTERM) cancels the run: in-flight tester invocations abort at
// their next context check, pooled buffers are released, and any partial
// trace file is flushed before exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/obs"
	"repro/internal/oracle"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The experiment body runs in a helper so its defers — profile
	// writers, the trace flush — run even on failure exits.
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("histbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs     = fs.String("run", "all", "comma-separated experiment IDs (E1..E15) or 'all'")
		quick      = fs.Bool("quick", false, "smaller sweeps and trial counts")
		seed       = fs.Uint64("seed", 1, "random seed")
		csvDir     = fs.String("csv", "", "also write each table as CSV into this directory")
		list       = fs.Bool("list", false, "list experiments and exit")
		verbose    = fs.Bool("v", false, "print progress lines")
		workers    = fs.Int("workers", 0, "cap concurrency (trial fan-out and sieve replicates); 0 = all cores")
		cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
		hotJSON    = fs.String("hotpath-json", "", "run the hot-path micro-benchmarks and write the results as JSON to this file (skips the experiments)")
		hotGate    = fs.String("hotpath-gate", "", "re-run the hot-path micro-benchmarks and fail on an allocs/op regression against this committed report (skips the experiments)")
		hotTol     = fs.Float64("hotpath-tolerance", 0.10, "allowed fractional allocs/op regression for -hotpath-gate")
		ingJSON    = fs.String("ingest-json", "", "run the streaming-ingestion soak benchmarks and write the results as JSON to this file (skips the experiments)")
		ingGate    = fs.String("ingest-gate", "", "re-run the ingestion soaks and fail on an events/s regression — or a 4-way soak under the 1M events/s floor — against this committed report (skips the experiments)")
		coverProf  = fs.String("cover-profile", "", "a `go test -coverprofile` file to reduce; required by -cover-json and -cover-gate")
		coverJSON  = fs.String("cover-json", "", "reduce -cover-profile to per-package statement coverage and write the COVERAGE.json baseline to this file (skips the experiments)")
		coverGate  = fs.String("cover-gate", "", "ratchet -cover-profile against this committed COVERAGE.json and fail on a drop beyond -cover-tolerance (skips the experiments)")
		coverTol   = fs.Float64("cover-tolerance", 1.0, "allowed statement-coverage drop for -cover-gate, in percentage points")
		confList   = fs.String("conformance-list", "", "diff the CONFORMANCE_ENGINES/CONFORMANCE_WORKLOADS declarations under this repo root (Makefile + CI workflows) against the in-code registries and fail on drift (skips the experiments)")
		countStrat = fs.String("count-strategy", "", "Poissonized count synthesis: 'exact' (default; bit-identical historical streams) or 'closed-form' (O(k+occupied) per batch on known samplers)")
		engine     = fs.String("engine", "", "tester engine: 'adk' (default; the paper's Algorithm 1) or 'cdkl22' (the CDKL'22 near-optimal tester)")
		traceJSON  = fs.String("trace-json", "", "stream per-run stage events as JSON lines to this file (also feeds the expvar counters)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "histbench: unexpected arguments: %v\n", fs.Args())
		return 2
	}

	// Results are deterministic per seed regardless of this cap: all
	// replicate randomness is pre-split before work is scheduled.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "histbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "histbench: %v\n", err)
			}
		}()
	}

	if *hotJSON != "" {
		if err := writeHotpathJSON(*hotJSON, stderr); err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *hotGate != "" {
		violations, err := gateHotpath(*hotGate, *hotTol, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		if violations > 0 {
			return 1
		}
		return 0
	}
	if *ingJSON != "" {
		if err := writeIngestJSON(*ingJSON, stderr); err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *ingGate != "" {
		violations, err := gateIngest(*ingGate, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		if violations > 0 {
			return 1
		}
		return 0
	}
	if *coverJSON != "" || *coverGate != "" {
		if *coverProf == "" {
			fmt.Fprintln(stderr, "histbench: -cover-json/-cover-gate need -cover-profile (run `go test -coverprofile` first)")
			return 2
		}
		if *coverJSON != "" {
			if err := writeCoverageJSON(*coverProf, *coverJSON, stderr); err != nil {
				fmt.Fprintf(stderr, "histbench: %v\n", err)
				return 1
			}
			return 0
		}
		violations, err := gateCoverage(*coverProf, *coverGate, *coverTol, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		if violations > 0 {
			return 1
		}
		return 0
	}
	if *confList != "" {
		violations, err := gateConformanceLists(*confList, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		if violations > 0 {
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range exper.Registry() {
			fmt.Fprintf(stdout, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return 0
	}

	var selected []exper.Experiment
	if *runIDs == "all" {
		selected = exper.Registry()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := exper.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "histbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	cs, err := oracle.ParseCountStrategy(*countStrat)
	if err != nil {
		fmt.Fprintf(stderr, "histbench: %v\n", err)
		return 2
	}
	if _, err := core.EngineFor(*engine); err != nil {
		fmt.Fprintf(stderr, "histbench: %v\n", err)
		return 2
	}
	rc := exper.RunConfig{Seed: *seed, Quick: *quick, Ctx: ctx, CountStrategy: cs, Engine: *engine}
	if *verbose {
		rc.Progress = stderr
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %v\n", err)
			return 1
		}
		bw := bufio.NewWriter(f)
		jl := obs.NewJSONLines(bw)
		defer func() {
			// Flush whatever was traced, even when an experiment failed or
			// the run was interrupted — a partial trace is still evidence.
			if err := jl.Err(); err != nil {
				fmt.Fprintf(stderr, "histbench: trace: %v\n", err)
			}
			if err := bw.Flush(); err != nil {
				fmt.Fprintf(stderr, "histbench: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "histbench: trace: %v\n", err)
			}
		}()
		rc.Observer = obs.Multi(jl, obs.Expvar())
	}

	for _, e := range selected {
		fmt.Fprintf(stdout, "=== %s: %s ===\nclaim: %s\n\n", e.ID, e.Title, e.Claim)
		tables, err := e.Run(rc)
		if err != nil {
			fmt.Fprintf(stderr, "histbench: %s failed: %v\n", e.ID, err)
			return 1
		}
		for i, tb := range tables {
			if err := tb.Render(stdout); err != nil {
				fmt.Fprintf(stderr, "histbench: render: %v\n", err)
				return 1
			}
			if *csvDir != "" {
				if err := os.MkdirAll(*csvDir, 0o755); err != nil {
					fmt.Fprintf(stderr, "histbench: %v\n", err)
					return 1
				}
				name := fmt.Sprintf("%s_%d.csv", strings.ToLower(e.ID), i+1)
				f, err := os.Create(filepath.Join(*csvDir, name))
				if err != nil {
					fmt.Fprintf(stderr, "histbench: %v\n", err)
					return 1
				}
				if err := tb.RenderCSV(f); err != nil {
					f.Close()
					fmt.Fprintf(stderr, "histbench: %v\n", err)
					return 1
				}
				if err := f.Close(); err != nil {
					fmt.Fprintf(stderr, "histbench: %v\n", err)
					return 1
				}
			}
		}
	}
	return 0
}
