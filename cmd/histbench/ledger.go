package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/benchhot"
	"repro/internal/cli"
)

// ledgerRuns is how many testing.Benchmark runs each entry's medians are
// taken over.
const ledgerRuns = 5

// benchEntry is one ledger entry: a named benchmark body, the layer it
// exercises and the GOMAXPROCS it is measured at. Parallel entries run
// with GOMAXPROCS raised to procs, timeshared where the machine has fewer
// cores (the entry's note says so): a real measurement of that fan-out
// on that machine, never a projection.
type benchEntry struct {
	name, layer string
	procs       int
	what        string // prefixed to the note when set
	body        func(b *testing.B)
}

// ledgerEntries is the one table of BENCH.json entries. Adding a row
// here is all a new entry needs; the gate fails on a ledger entry that
// has no row.
var ledgerEntries = []benchEntry{
	{"BenchmarkCoreTestHotPath", "core", 1, "", func(b *testing.B) { benchhot.CoreTestHotPath(b, 1) }},
	{"BenchmarkCoreTestHotPathParallel2", "core", 2, "", func(b *testing.B) { benchhot.CoreTestHotPath(b, 2) }},
	{"BenchmarkCoreTestHotPathParallel4", "core", 4, "", func(b *testing.B) { benchhot.CoreTestHotPath(b, 4) }},
	{"BenchmarkCoreTestHotPathEngineCDKL22", "core", 1, "", func(b *testing.B) { benchhot.CoreTestHotPathEngine(b, "cdkl22", 1) }},
	{"BenchmarkCoreTestHotPathClosedForm", "core", 1, "", func(b *testing.B) { benchhot.CoreTestHotPathClosedForm(b, 1) }},
	{"BenchmarkCoreTestHotPathClosedFormParallel4", "core", 4, "", func(b *testing.B) { benchhot.CoreTestHotPathClosedForm(b, 4) }},
	{"BenchmarkCoreTestHotPathEngineCDKL22ClosedForm2p20", "core", 1,
		"the cdkl-inline requests in-process: cdkl22, closed-form, k=8, eps=0.8, n=2^20, reference and comb alternating",
		benchhot.CoreTestHotPathCDKLInline},
	{"BenchmarkDrawCountsPooled", "draw", 1, "", benchhot.DrawCountsPooled},
	{"BenchmarkDrawCountsClosedForm", "draw", 1, "", benchhot.DrawCountsClosedForm},
	{"BenchmarkDrawCountsReplayDistinct1e3", "draw", 1,
		"one DrawCounts batch of mean 2^16 from a CountsReplay over the stream-mixed window (2^21 events, 10^3 distinct)",
		func(b *testing.B) { benchhot.DrawCountsReplay(b, benchhot.ReplayStreamWindow()) }},
	{"BenchmarkDrawCountsReplayDistinct2p20", "draw", 1,
		"one DrawCounts batch of mean 2^16 from a CountsReplay over a window of 2^20 distinct elements (about 2^23 events; Fenwick array out of L2)",
		func(b *testing.B) { benchhot.DrawCountsReplay(b, benchhot.ReplayWideWindow()) }},
	{"BenchmarkDrawNCountsDense2p20", "draw", 1,
		"one exact DrawNCounts batch of 478,800 draws over the cdkl-inline 1024-bucket reference, n=2^20 (dense backing out of L2)",
		benchhot.DrawNCountsDense2p20},
	{"BenchmarkZPerIntervalCDKLInline2p20", "walk", 1,
		"one chisq.ZPerIntervalInto over the cdkl-inline flatness batch: closed-form counts of mean 512,000 over the 1024-bucket reference, n=2^20 (about 36% of the slots occupied)",
		benchhot.ZPerIntervalCDKLInline},
	{"BenchmarkZPerIntervalSieve1e5", "walk", 1,
		"one chisq.ZPerIntervalInto over an adk sieve batch: closed-form counts of the sieve mean (about 2.3e6) over the n=10^5 8-histogram, every slot occupied",
		benchhot.ZPerIntervalSieve1e5},
	{"BenchmarkProjectTVCDKLInline2p20", "dp", 1,
		"one histdp.ProjectTV at k=8 over the D̂ learned from the cdkl-inline reference at eps=0.8, n=2^20 (the check stage of a cdkl-inline run)",
		benchhot.ProjectTVCDKLInline},
	{"BenchmarkProjectTVUniform2p20K32", "dp", 1,
		"one histdp.ProjectTV at k=32 over the D̂ learned from the uniform distribution at eps=0.5, n=2^20",
		benchhot.ProjectTVUniform2p20},
	{"BenchmarkIngestSoak", "ingest", 1, "", func(b *testing.B) { benchhot.IngestSoak(b, 1) }},
	{"BenchmarkIngestSoakParallel2", "ingest", 2, "", func(b *testing.B) { benchhot.IngestSoak(b, 2) }},
	{"BenchmarkIngestSoakParallel4", "ingest", 4, "", func(b *testing.B) { benchhot.IngestSoak(b, 4) }},
	{"BenchmarkIngestDecodeBinary", "ingest", 1, "", benchhot.IngestDecodeBinary},
	{"BenchmarkIngestDecodeNDJSON", "ingest", 1, "", benchhot.IngestDecodeNDJSON},
}

// measuredNote describes the conditions one entry was measured under.
func measuredNote(procs int) string {
	if hw := runtime.NumCPU(); procs > hw {
		return fmt.Sprintf("measured at gomaxprocs %d timeshared over %d hardware thread(s): real schedule, no parallel speedup available; regenerate on a >=%d-core machine for a contention-free reference", procs, hw, procs)
	}
	return fmt.Sprintf("measured at gomaxprocs %d, %d hardware thread(s)", procs, runtime.NumCPU())
}

func median[T int64 | float64](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

// entryRuns collects one entry's runs.
type entryRuns struct {
	ns, rate, probes []float64
	allocs, bytes    []int64
}

// add runs e once at its GOMAXPROCS, with the probe timed just before
// and just after the run.
func (er *entryRuns) add(e benchEntry) {
	prev := runtime.GOMAXPROCS(e.procs)
	defer runtime.GOMAXPROCS(prev)
	er.probes = probeSamples(er.probes)
	r := testing.Benchmark(e.body)
	er.probes = probeSamples(er.probes)
	er.ns = append(er.ns, float64(r.T.Nanoseconds())/float64(r.N))
	er.rate = append(er.rate, r.Extra["events/s"])
	er.allocs = append(er.allocs, r.AllocsPerOp())
	er.bytes = append(er.bytes, r.AllocedBytesPerOp())
}

// entry is e's ledger record: the median of each metric over its runs.
func (er *entryRuns) entry(e benchEntry) cli.LedgerEntry {
	note := measuredNote(e.procs)
	if e.what != "" {
		note = e.what + "; " + note
	}
	return cli.LedgerEntry{
		Layer:        e.layer,
		GOMAXPROCS:   e.procs,
		NsPerOp:      median(er.ns),
		AllocsPerOp:  median(er.allocs),
		BytesPerOp:   median(er.bytes),
		EventsPerSec: median(er.rate),
		ProbeNs:      slices.Min(er.probes),
		Note:         note,
	}
}

// measureLedger measures every entry of table, logging progress to
// stderr. It makes ledgerRuns passes over the table, one run of each
// entry per pass, so that an entry's runs spread over the whole session:
// back-to-back runs of one body share whatever slow or fast spell of the
// host they fall in, and their median cannot absorb it.
func measureLedger(table []benchEntry, stderr io.Writer) cli.Ledger {
	runs := make([]entryRuns, len(table))
	for pass := 1; pass <= ledgerRuns; pass++ {
		for i, e := range table {
			fmt.Fprintf(stderr, "pass %d/%d: running %s (gomaxprocs %d)...\n", pass, ledgerRuns, e.name, e.procs)
			runs[i].add(e)
		}
	}
	l := cli.Ledger{
		Schema:  cli.LedgerSchema,
		Go:      runtime.Version(),
		Host:    fmt.Sprintf("%s/%s, %d hardware thread(s)", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Method:  fmt.Sprintf("each metric is the median of %d testing.Benchmark runs, one per pass over the entries; probe_ns is the minimum wall-clock ns per iteration of a fixed stdlib-only loop over %d samples, %d timed just before and %d just after each of those runs", ledgerRuns, 2*probeReps*ledgerRuns, probeReps, probeReps),
		Entries: map[string]cli.LedgerEntry{},
	}
	for i, e := range table {
		l.Entries[e.name] = runs[i].entry(e)
	}
	return l
}

func writeLedger(path string, table []benchEntry, stderr io.Writer) error {
	buf, err := json.MarshalIndent(measureLedger(table, stderr), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// gateLedger is the CI perf gate: re-measure every entry of table and
// compare it with the committed ledger at path (see cli.CompareLedger).
// Returns the number of violations.
func gateLedger(path string, table []benchEntry, stdout, stderr io.Writer) (int, error) {
	committed, err := cli.LoadLedger(path)
	if err != nil {
		return 0, err
	}
	fresh := measureLedger(table, stderr)
	violations, skipped, deltas := cli.CompareLedger(committed.Entries, fresh.Entries)
	for _, d := range deltas {
		fmt.Fprintf(stdout, "  %s\n", d)
	}
	for _, s := range skipped {
		fmt.Fprintf(stderr, "histbench: bench gate: %s\n", s)
	}
	for _, v := range violations {
		fmt.Fprintf(stderr, "histbench: bench gate: %s\n", v)
	}
	if len(violations) == 0 {
		fmt.Fprintf(stdout, "bench gate: %d entries within %.0f%% allocs/op and host-scaled %.0f%% ns/op or %.0f%% events/s of %s, 4-way rates above %.0fM events/s (%d skipped as not like-for-like)\n",
			len(committed.Entries)-len(skipped), cli.AllocTolerance*100, cli.NsTolerance*100, cli.RateTolerance*100, path, cli.RateFloor/1e6, len(skipped))
	}
	return len(violations), nil
}

// The host probe measures what a fixed piece of work costs on this host
// around each run, so that a slower host can be told, as far as the
// probe tracks it, from a slower build. It is a loop that uses nothing
// from the repository, xorshift draws indexing a 1 MiB table (the kind
// of work an alias-table draw does), so no change to the code under test
// can move it: bench/histload's probe loop, copied because that module
// cannot be imported from here, and timed on the wall clock so it builds
// everywhere. An entry records the minimum of its samples: interference
// only adds time, so the fastest sample measures the host and a median
// also measures whatever else ran at that moment.
const (
	probeIters = 1 << 18 // ~1 ms
	probeReps  = 5       // probe samples taken at each point around the runs
)

var (
	probeTable = func() []uint32 {
		t := make([]uint32, 1<<18)
		for i := range t {
			t[i] = uint32(i) * 2654435761
		}
		return t
	}()
	probeSink uint32
)

// probeWork runs the probe loop once.
func probeWork() {
	x, acc := uint64(0x9e3779b97f4a7c15), uint32(0)
	mask := uint64(len(probeTable) - 1)
	for range probeIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += probeTable[x&mask] ^ uint32(x>>32)
	}
	probeSink += acc
}

// probeSamples appends probeReps timings of the probe loop, in wall-clock
// ns per iteration, to out.
func probeSamples(out []float64) []float64 {
	for range probeReps {
		t0 := time.Now()
		probeWork()
		out = append(out, float64(time.Since(t0).Nanoseconds())/probeIters)
	}
	return out
}
