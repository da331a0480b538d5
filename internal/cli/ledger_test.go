package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The TestCompareHotpath* tests run CompareLedger on hot-path entries,
// which gate ns/op; the TestCompareIngest* tests run it on ingest
// entries, which gate events/s.

// hot is a non-rate entry at gomaxprocs 1 measured on a host whose
// probe cost 1 ns per iteration.
func hot(ns float64, allocs int64) LedgerEntry {
	return LedgerEntry{Layer: "core", GOMAXPROCS: 1, NsPerOp: ns, AllocsPerOp: allocs, ProbeNs: 1}
}

// ingest is a rate entry at the given gomaxprocs, same probe.
func ingest(eventsPerSec float64, procs int) LedgerEntry {
	return LedgerEntry{Layer: "ingest", GOMAXPROCS: procs, NsPerOp: 1, EventsPerSec: eventsPerSec, ProbeNs: 1}
}

func TestCompareHotpathWithinTolerance(t *testing.T) {
	base := map[string]LedgerEntry{"B": hot(1000, 100)}
	cur := map[string]LedgerEntry{"B": hot(1000, 110)} // exactly +10%
	if v, _, _ := CompareLedger(base, cur); len(v) != 0 {
		t.Fatalf("+10%% should be within a 10%% tolerance, got %v", v)
	}
}

func TestCompareHotpathRegression(t *testing.T) {
	base := map[string]LedgerEntry{"B": hot(1000, 100)}
	cur := map[string]LedgerEntry{"B": hot(1000, 111)}
	v, _, _ := CompareLedger(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op regressed 100 -> 111") {
		t.Fatalf("+11%% should violate a 10%% tolerance, got %v", v)
	}
}

func TestCompareHotpathZeroAllocBaseline(t *testing.T) {
	// A zero-alloc benchmark must stay zero-alloc: tolerance scales the
	// baseline, so any allocation at all is a regression.
	base := map[string]LedgerEntry{"B": hot(1000, 0)}
	if v, _, _ := CompareLedger(base, map[string]LedgerEntry{"B": hot(1000, 1)}); len(v) != 1 {
		t.Fatalf("1 alloc against a zero-alloc baseline should violate, got %v", v)
	}
	if v, _, _ := CompareLedger(base, map[string]LedgerEntry{"B": hot(1000, 0)}); len(v) != 0 {
		t.Fatalf("zero allocs against a zero-alloc baseline should pass, got %v", v)
	}
}

func TestCompareHotpathMissingBenchmark(t *testing.T) {
	base := map[string]LedgerEntry{"Gone": hot(1000, 5)}
	v, _, _ := CompareLedger(base, map[string]LedgerEntry{})
	if len(v) != 1 || !strings.Contains(v[0], "Gone") || !strings.Contains(v[0], "missing") {
		t.Fatalf("a dropped benchmark must not pass silently, got %v", v)
	}
}

func TestCompareHotpathIgnoresNewBenchmarks(t *testing.T) {
	base := map[string]LedgerEntry{"B": hot(1000, 10)}
	cur := map[string]LedgerEntry{
		"B":   hot(1000, 10),
		"New": hot(1e12, 1<<20), // no reference yet; not gated
	}
	if v, _, _ := CompareLedger(base, cur); len(v) != 0 {
		t.Fatalf("benchmarks without a baseline should not gate, got %v", v)
	}
}

func TestCompareHotpathNsPerOp(t *testing.T) {
	base := map[string]LedgerEntry{"B": hot(1000, 10)}
	within := map[string]LedgerEntry{"B": hot(1150, 10)} // exactly +15%
	if v, _, _ := CompareLedger(base, within); len(v) != 0 {
		t.Fatalf("+15%% ns/op should be within a 15%% tolerance, got %v", v)
	}
	regressed := map[string]LedgerEntry{"B": hot(1151, 10)}
	v, _, _ := CompareLedger(base, regressed)
	if len(v) != 1 || !strings.Contains(v[0], "ns/op regressed") {
		t.Fatalf("+15.1%% ns/op should violate a 15%% tolerance, got %v", v)
	}
}

func TestCompareHotpathSkipsMismatchedGOMAXPROCS(t *testing.T) {
	// A baseline measured at one parallelism must not gate a re-run at
	// another: neither metric is comparable across the fan-out change.
	base := map[string]LedgerEntry{"B": {GOMAXPROCS: 8, NsPerOp: 1000, AllocsPerOp: 10, ProbeNs: 1}}
	cur := map[string]LedgerEntry{"B": {GOMAXPROCS: 1, NsPerOp: 8000, AllocsPerOp: 99, ProbeNs: 1}}
	if v, _, _ := CompareLedger(base, cur); len(v) != 0 {
		t.Fatalf("mismatched gomaxprocs entries must be skipped, got %v", v)
	}
	// Matching entries still gate.
	cur["B"] = LedgerEntry{GOMAXPROCS: 8, NsPerOp: 8000, AllocsPerOp: 99, ProbeNs: 1}
	if v, _, _ := CompareLedger(base, cur); len(v) != 2 {
		t.Fatalf("matching gomaxprocs should gate both metrics, got %v", v)
	}
}

func TestCompareHotpathReportsSkippedPairs(t *testing.T) {
	// Every skipped comparison must be reported — a silent skip is how a
	// regenerated ledger quietly stops gating a benchmark.
	base := map[string]LedgerEntry{
		"Par": {GOMAXPROCS: 4, NsPerOp: 1000, AllocsPerOp: 10, ProbeNs: 1},
		"Ser": hot(2000, 20),
	}
	cur := map[string]LedgerEntry{
		"Par": hot(1000, 10), // measured at gomaxprocs 1
		"Ser": hot(2000, 20),
	}
	v, skipped, deltas := CompareLedger(base, cur)
	if len(v) != 0 {
		t.Fatalf("expected no violations, got %v", v)
	}
	if len(skipped) != 1 {
		t.Fatalf("expected exactly the mismatched pair to be reported, got %v", skipped)
	}
	if !strings.Contains(skipped[0], "Par") ||
		!strings.Contains(skipped[0], "gomaxprocs 4") ||
		!strings.Contains(skipped[0], "current at 1") {
		t.Fatalf("skip message must name the pair and both parallelism values, got %q", skipped[0])
	}
	if len(deltas) != 1 || !strings.HasPrefix(deltas[0], "Ser:") {
		t.Fatalf("only the compared entry should report a delta, got %v", deltas)
	}

	// Fully like-for-like runs report nothing skipped.
	cur["Par"] = base["Par"]
	if _, skipped, _ := CompareLedger(base, cur); len(skipped) != 0 {
		t.Fatalf("nothing should be skipped on a like-for-like run, got %v", skipped)
	}
}

func TestCompareIngestThroughputGatesDownward(t *testing.T) {
	base := map[string]LedgerEntry{"Soak": ingest(1e7, 1)}
	// Exactly -30% is within a 30% tolerance.
	if v, _, _ := CompareLedger(base, map[string]LedgerEntry{"Soak": ingest(7e6, 1)}); len(v) != 0 {
		t.Fatalf("-30%% should be within a 30%% tolerance, got %v", v)
	}
	v, _, _ := CompareLedger(base, map[string]LedgerEntry{"Soak": ingest(6.99e6, 1)})
	if len(v) != 1 || !strings.Contains(v[0], "events/s regressed") {
		t.Fatalf("-30.1%% should violate a 30%% tolerance, got %v", v)
	}
	// Faster never violates, and a rate entry does not gate ns/op.
	fast := ingest(1e9, 1)
	fast.NsPerOp = 1e6
	if v, _, _ := CompareLedger(base, map[string]LedgerEntry{"Soak": fast}); len(v) != 0 {
		t.Fatalf("an improvement must not violate, got %v", v)
	}
	// allocs/op gates rate entries too.
	allocating := ingest(1e7, 1)
	allocating.AllocsPerOp = 1
	if v, _, _ := CompareLedger(base, map[string]LedgerEntry{"Soak": allocating}); len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("an allocation on a zero-alloc rate entry must violate, got %v", v)
	}
}

func TestCompareIngestAbsoluteFloor(t *testing.T) {
	// The floor binds rate entries at gomaxprocs >= 4 even when the
	// relative bound passes (a slow ledger must not erode the bar).
	base := map[string]LedgerEntry{
		"Soak4": ingest(9e5, 4),
		"Soak1": ingest(9e5, 1),
	}
	cur := map[string]LedgerEntry{
		"Soak4": ingest(9e5, 4),
		"Soak1": ingest(9e5, 1),
	}
	v, _, _ := CompareLedger(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "Soak4") || !strings.Contains(v[0], "floor") {
		t.Fatalf("a 4-way entry under 1M events/s must trip the floor (and only it), got %v", v)
	}
	cur["Soak4"] = ingest(RateFloor, 4)
	if v, _, _ := CompareLedger(base, cur); len(v) != 0 {
		t.Fatalf("at the floor should pass, got %v", v)
	}
	// The floor is absolute: a slower host does not lower it.
	slowHost := ingest(RateFloor-1, 4)
	slowHost.ProbeNs = 4
	cur["Soak4"] = slowHost
	if v, _, _ := CompareLedger(base, cur); len(v) != 1 || !strings.Contains(v[0], "floor") {
		t.Fatalf("the floor must not be host-scaled, got %v", v)
	}
}

func TestCompareIngestMissingAndMismatched(t *testing.T) {
	base := map[string]LedgerEntry{
		"Gone": ingest(1e6, 1),
		"Par":  ingest(4e6, 4),
	}
	cur := map[string]LedgerEntry{
		"Par": ingest(1e5, 1), // machine too small: skip, don't violate
	}
	v, skipped, _ := CompareLedger(base, cur)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("a dropped benchmark must violate, got %v", v)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0], "gomaxprocs 4") {
		t.Fatalf("mismatched parallelism must be reported as skipped, got %v", skipped)
	}
}

// TestCompareLedgerHostScaling checks that both time metrics follow the
// probe ratio, that allocs/op does not, and that the delta line shows the
// raw and the host-scaled slowdown.
func TestCompareLedgerHostScaling(t *testing.T) {
	base := map[string]LedgerEntry{"Hot": hot(1000, 100), "Rate": ingest(1e7, 1)}
	for _, e := range []string{"Hot", "Rate"} {
		b := base[e]
		b.ProbeNs = 2
		base[e] = b
	}
	// The host now runs the probe twice as slowly: ns/op may double and
	// rise 15% more, events/s may halve and fall 30% more.
	at := func(ns, rate float64, allocs int64) map[string]LedgerEntry {
		h, r := hot(ns, allocs), ingest(rate, 1)
		h.ProbeNs, r.ProbeNs = 4, 4
		return map[string]LedgerEntry{"Hot": h, "Rate": r}
	}
	v, _, deltas := CompareLedger(base, at(2300, 3.5e6, 110))
	if len(v) != 0 {
		t.Fatalf("host-scaled edges should pass, got %v", v)
	}
	if !strings.Contains(deltas[0], "Hot: ns/op 1000 -> 2300, slowdown ×2.30 raw, ×1.15 host-scaled") {
		t.Fatalf("delta line: %q", deltas[0])
	}
	v, _, _ = CompareLedger(base, at(2301, 3.49e6, 111))
	if len(v) != 3 {
		t.Fatalf("just past each host-scaled edge, and one alloc past 10%%, should violate three times, got %v", v)
	}
	// A faster host tightens the time bounds the same way.
	for _, e := range []string{"Hot", "Rate"} {
		b := base[e]
		b.ProbeNs = 8
		base[e] = b
	}
	if v, _, _ := CompareLedger(base, at(600, 1.3e7, 100)); len(v) != 2 {
		t.Fatalf("a twice-as-fast host must hold ns/op to 575 and events/s to 1.4e7, got %v", v)
	}
}

// loadRoundTrip writes a one-entry ledger, loads it back and fails t
// unless the entry survives unchanged.
func loadRoundTrip(t *testing.T, e LedgerEntry) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "good.json")
	payload, _ := json.Marshal(Ledger{Schema: LedgerSchema, Entries: map[string]LedgerEntry{"B": e}})
	os.WriteFile(p, payload, 0o644)
	got, err := LoadLedger(p)
	if err != nil {
		t.Fatalf("loading a valid ledger: %v", err)
	}
	if got.Entries["B"] != e {
		t.Fatalf("round-trip lost data: %+v", got)
	}
}

// loadRefuses fails t unless LoadLedger refuses every named body.
func loadRefuses(t *testing.T, bodies map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, body := range bodies {
		p := filepath.Join(dir, name)
		os.WriteFile(p, []byte(body), 0o644)
		if _, err := LoadLedger(p); err == nil {
			t.Fatalf("%s should fail to load", name)
		}
	}
}

// TestLoadHotpathReport checks that a hot-path entry survives a ledger
// round trip and that files in the old hot-path schemas are refused.
func TestLoadHotpathReport(t *testing.T) {
	loadRoundTrip(t, hot(1000, 7))
	loadRefuses(t, map[string]string{
		"hotpath-v1.json": `{"schema":"histbench-hotpath/v1","results":{"B":{}}}`,
		"hotpath-v2.json": `{"schema":"histbench-hotpath/v2","results":{"B":{"ns_per_op":1}}}`,
	})
}

// TestLoadIngestReport checks that an ingest entry survives a ledger
// round trip and that a file in the old ingest schema is refused.
func TestLoadIngestReport(t *testing.T) {
	loadRoundTrip(t, ingest(2.5e6, 4))
	loadRefuses(t, map[string]string{
		"ingest-v1.json": `{"schema":"histbench-ingest/v1","results":{"B":{"events_per_sec":1}}}`,
	})
}

func TestLoadLedger(t *testing.T) {
	loadRefuses(t, map[string]string{
		"badschema.json": `{"schema":"other/v9","entries":{"B":{"probe_ns":1}}}`,
		"empty.json":     `{"schema":"` + LedgerSchema + `","entries":{}}`,
		"noprobe.json":   `{"schema":"` + LedgerSchema + `","entries":{"B":{"ns_per_op":1}}}`,
		"garbage.json":   `not json`,
	})
	if _, err := LoadLedger(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("a missing file should fail to load")
	}
}
