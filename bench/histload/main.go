// Command histload is the served end-to-end benchmark of histd. It
// builds cmd/histd, starts it as a subprocess, drives it over loopback
// HTTP with seeded, pre-encoded requests from two closed-loop client
// connections, and prints every metric by name and unit.
//
// Each workload runs an untraced pass for the end-to-end metrics and,
// with -trace 1, then a traced pass of the same length (histd
// -trace-json) plus in-process calls of each layer's public functions
// for the per-layer metrics. A correctness gate runs before any timing.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                                     # all workloads, end-to-end metrics
//	bash bench/run.sh -workload adk-sampler -seed 3 -trace 1
//	bash bench/run.sh -workload stream-mixed -runs 10     # run-to-run spread
//
// With -workload, the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}, the metrics being the
// end-to-end ones with -trace 0 and the per-layer ones with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// warmup is excluded from every pass's numbers: it lets the server's
// pools, arenas and the Go heap reach their steady state.
const warmup = 3 * time.Second

// setupRepeats is how many fresh servers a run sets up; setup_s is the
// median of their set-up times, which last a few milliseconds and vary
// by half from one to the next, so they need many repeats to be steady.
const setupRepeats = 21

// Direct runs: at least directRuns requests and at least directTime.
const (
	directRuns = 31
	directTime = 3 * time.Second
)

// runConfig is how one workload run is driven.
type runConfig struct {
	bin             string // histd binary
	workdir         string // scratch directory for trace files
	warmup, measure time.Duration
	setups          int  // fresh servers set up; setup_s is their median
	traced          bool // also run the traced pass
	directRuns      int
	directTime      time.Duration
}

// result is one workload run.
type result struct {
	workload          string
	seed              uint64
	failures          []string // named correctness failures
	attempted, failed int
	verdicts, ingests int
	accepts           map[string][2]int // label → accepted, verdicts
	e2e               map[string]float64
	missing           map[string]string
	layers            map[string]float64 // nil without the traced pass
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("histload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: every workload, in order)")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
		seconds = fs.Int("seconds", 20, "measured seconds of each pass, after a 3 s warm-up")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics only; 1: also run the traced pass and report the per-layer metrics")
		runs    = fs.Int("runs", 1, "run each workload this many times, on seeds seed, seed+1, ..., and print each metric's median, quartiles and spread")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "histload: want -seconds >= 1, -runs >= 1, -trace 0 or 1, and no arguments")
		return 2
	}
	defs := workloadDefs
	if *name != "" {
		defs = nil
		for _, d := range workloadDefs {
			if d.name == *name {
				defs = []workloadDef{d}
			}
		}
		if defs == nil {
			fmt.Fprintf(stderr, "histload: unknown workload %q\n", *name)
			return 2
		}
	}

	results, err := runAll(ctx, stdout, defs, *seed, *runs, runConfig{
		warmup: warmup, measure: time.Duration(*seconds) * time.Second, setups: setupRepeats,
		traced: *trace == 1, directRuns: directRuns, directTime: directTime,
	})
	if err != nil {
		fmt.Fprintf(stderr, "histload: %v\n", err)
		return 1
	}
	correct := true
	for _, r := range results {
		correct = correct && len(r.failures) == 0
	}
	if *name != "" && *runs == 1 {
		line, err := resultJSON(results[0], *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "histload: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !correct {
		fmt.Fprintln(stderr, "histload: correctness gate failed")
		return 1
	}
	return 0
}

// runAll builds histd from the repository in the working directory and
// runs every selected workload runs times, printing each run's report
// and, for several runs, the spreads.
func runAll(ctx context.Context, out io.Writer, defs []workloadDef, seed uint64, runs int, cfg runConfig) ([]*result, error) {
	const root = "."
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	workdir, err := os.MkdirTemp(build, "histload-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	cfg.workdir = workdir
	if cfg.bin, err = buildHistd(ctx, root, workdir); err != nil {
		return nil, err
	}
	fmt.Fprintln(out, provenance(root))

	var all []*result
	for _, def := range defs {
		var mine []*result
		for r := range runs {
			res, err := runWorkload(ctx, cfg, def, seed+uint64(r))
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", def.name, seed+uint64(r), err)
			}
			res.print(out, cfg)
			mine = append(mine, res)
		}
		if runs > 1 {
			printStability(out, mine)
		}
		all = append(all, mine...)
	}
	return all, nil
}

// server is one running histd and the client connected to it.
type server struct {
	h  *histd
	hc *http.Client
}

func (s *server) stop() error {
	err := s.h.stop()
	s.hc.CloseIdleConnections()
	return err
}

// startAndSetup starts repeats fresh servers one after another, timing
// each from exec to set-up done, and keeps the last one running.
func startAndSetup(ctx context.Context, bin string, w workload, repeats int, extra ...string) (*server, []float64, error) {
	var times []float64
	for r := range repeats {
		t := time.Now()
		h, err := startHistd(ctx, bin, extra...)
		if err != nil {
			return nil, nil, err
		}
		s := &server{h: h, hc: newHTTPClient()}
		if err := waitHealthy(ctx, s.hc, h.base); err != nil {
			s.stop()
			return nil, nil, err
		}
		if err := w.setup(ctx, s.hc, h.base); err != nil {
			s.stop()
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if r == repeats-1 {
			return s, times, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, fmt.Errorf("stopping histd: %w", err)
		}
	}
	return nil, nil, errors.New("no set-up repeats")
}

// runWorkload runs one workload on one seed: set-up, gate, the untraced
// pass and, if configured, the traced pass with its direct layer calls.
func runWorkload(ctx context.Context, cfg runConfig, def workloadDef, seed uint64) (*result, error) {
	w, err := def.make(seed)
	if err != nil {
		return nil, err
	}
	res := &result{workload: def.name, seed: seed, accepts: map[string][2]int{}}

	srv, setups, err := startAndSetup(ctx, cfg.bin, w, cfg.setups)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if err := w.prepare(); err != nil {
		return nil, err
	}
	if res.failures, err = gate(ctx, srv.hc, srv.h.base, w); err != nil {
		return nil, err
	}
	plain, err := runPass(ctx, srv.hc, srv.h, w.lanes(), cfg.warmup, cfg.measure)
	if err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping histd: %w", err)
	}
	res.e2e, res.missing = endToEnd(plain, setups)
	res.add(plain)
	if !cfg.traced {
		return res, nil
	}

	tracePath := filepath.Join(cfg.workdir, def.name+".trace.jsonl")
	tsrv, _, err := startAndSetup(ctx, cfg.bin, w, 1, "-trace-json", tracePath)
	if err != nil {
		return nil, err
	}
	defer tsrv.stop()
	if err := w.prepare(); err != nil {
		return nil, err
	}
	traced, err := runPass(ctx, tsrv.hc, tsrv.h, w.lanes(), cfg.warmup, cfg.measure)
	if err != nil {
		return nil, err
	}
	rtt, err := healthzRTT(ctx, tsrv, 200)
	if err != nil {
		return nil, err
	}
	if err := tsrv.stop(); err != nil { // flushes the trace file
		return nil, fmt.Errorf("stopping traced histd: %w", err)
	}
	summary, err := readTrace(tracePath)
	if err != nil {
		return nil, err
	}
	direct, err := runDirect(ctx, w, cfg.directRuns, cfg.directTime)
	if err != nil {
		return nil, err
	}
	extra, err := w.extraLayers()
	if err != nil {
		return nil, err
	}
	res.layers = perLayer(layerInputs{w: w, plain: plain, traced: traced, trace: summary, direct: direct, rttUS: rtt, extra: extra})
	res.add(traced)
	return res, nil
}

// add counts a pass's requests into the result.
func (r *result) add(p *passResult) {
	t := p.totals()
	r.attempted += t.attempted
	r.failed += t.failed
	r.verdicts += len(t.verdictObs)
	r.ingests += len(t.ingestLat)
	for _, msg := range t.checkErrs {
		r.failures = append(r.failures, "response-check: "+msg)
	}
	for _, o := range t.verdictObs {
		c := r.accepts[o.label]
		if o.accept {
			c[0]++
		}
		c[1]++
		r.accepts[o.label] = c
	}
}

// healthzRTT times n sequential GET /healthz on the server's idle
// connections, in microseconds.
func healthzRTT(ctx context.Context, s *server, n int) ([]float64, error) {
	out := make([]float64, 0, n)
	for range n {
		t := time.Now()
		status, _, err := get(ctx, s.hc, s.h.base, "/healthz")
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("healthz: status %d, %v", status, err)
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}

// readTrace summarizes a -trace-json file and removes it.
func readTrace(path string) (*traceSummary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	return summarizeTrace(f)
}

// runDirect runs the workload's leading requests in-process until it has
// at least minRuns of them and minTime has passed.
func runDirect(ctx context.Context, w workload, minRuns int, minTime time.Duration) ([]stepTimes, error) {
	start := time.Now()
	var out []stepTimes
	for i := 0; len(out) < minRuns || time.Since(start) < minTime; i++ {
		_, st, err := w.direct(ctx, i)
		if err != nil {
			return nil, fmt.Errorf("direct request %d: %w", i, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// provenance is the header line of every output.
func provenance(root string) string {
	nproc := runtime.NumCPU()
	load := "dedicated"
	if histdWorkers+clients > nproc {
		load = fmt.Sprintf("timeshared (%d histd workers + %d client connections > %d CPUs)", histdWorkers, clients, nproc)
	}
	return fmt.Sprintf("histload: nproc=%d gomaxprocs=%d go=%s commit=%s histd_flags=%q clients=%d load=%s",
		nproc, runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(root), strings.Join(histdFlags, " "), clients, load)
}

// gitCommit reads the checked-out commit from root/.git without running
// git, or returns "unknown" outside a git checkout.
func gitCommit(root string) string {
	dir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(dir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// print writes the run's report.
func (r *result) print(out io.Writer, cfg runConfig) {
	passes := "untraced"
	if r.layers != nil {
		passes = "untraced+traced"
	}
	fmt.Fprintf(out, "== %s seed=%d warmup_s=%g run_s=%g passes=%s setups=%d clients=%d\n",
		r.workload, r.seed, cfg.warmup.Seconds(), cfg.measure.Seconds(), passes, cfg.setups, clients)
	if len(r.failures) == 0 {
		fmt.Fprintln(out, "gate: ok (served verdicts bit-identical to direct runs; a repeated request answered identically)")
	}
	for _, f := range r.failures {
		fmt.Fprintf(out, "gate: FAILED %s\n", f)
	}
	fmt.Fprintf(out, "requests: attempted=%d failed=%d verdicts=%d ingests=%d\n", r.attempted, r.failed, r.verdicts, r.ingests)
	fmt.Fprint(out, "accepts (not gated):")
	for _, l := range labels {
		if c, ok := r.accepts[l]; ok {
			fmt.Fprintf(out, " %s %d/%d", l, c[0], c[1])
		}
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "end-to-end (untraced pass):")
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), reportedDefs...) {
		if v, ok := r.e2e[d.name]; ok {
			fmt.Fprintf(out, "  %-30s %14.6g %s\n", d.name, v, d.unit)
		} else if why, ok := r.missing[d.name]; ok {
			fmt.Fprintf(out, "  %-30s %14s (%s)\n", d.name, "missing", why)
		}
	}
	if r.layers == nil {
		return
	}
	fmt.Fprintln(out, "per-layer (traced pass and direct calls):")
	for _, d := range perLayerDefs {
		fmt.Fprintf(out, "  %-30s %14.6g %s\n", d.name, r.layers[d.name], d.unit)
	}
}

// printStability prints each metric's median, quartiles and spread
// (Q3−Q1)/median across runs of one workload.
func printStability(out io.Writer, rs []*result) {
	fmt.Fprintf(out, "== stability %s over %d runs (seeds %d..%d)\n", rs[0].workload, len(rs), rs[0].seed, rs[len(rs)-1].seed)
	fmt.Fprintf(out, "  %-30s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
	show := func(d metricDef, vals []float64) {
		if len(vals) < len(rs) {
			return
		}
		med := median(vals)
		q1, q3, _ := quartiles(vals)
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(out, "  %-30s %14.6g %14.6g %14.6g %7.2f%%\n", d.name, med, q1, q3, 100*spread)
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), reportedDefs...) {
		var vals []float64
		for _, r := range rs {
			if v, ok := r.e2e[d.name]; ok {
				vals = append(vals, v)
			}
		}
		show(d, vals)
	}
	if rs[0].layers == nil {
		return
	}
	for _, d := range perLayerDefs {
		var vals []float64
		for _, r := range rs {
			vals = append(vals, r.layers[d.name])
		}
		show(d, vals)
	}
}

// jsonMetric and jsonResult are the machine-readable last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultJSON renders a run as the last output line: the end-to-end
// metrics, or with layers the per-layer ones. Every listed metric must
// have a finite value.
func resultJSON(r *result, layers bool) (string, error) {
	defs, vals := endToEndDefs, r.e2e
	if layers {
		defs, vals = perLayerDefs, r.layers
	}
	out := jsonResult{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: metric %s has no value (%s); lengthen -seconds", r.workload, d.name, r.missing[d.name])
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
