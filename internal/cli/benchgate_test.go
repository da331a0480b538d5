package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareHotpathWithinTolerance(t *testing.T) {
	base := map[string]HotpathResult{"B": {AllocsPerOp: 100}}
	cur := map[string]HotpathResult{"B": {AllocsPerOp: 110}} // exactly +10%
	if v, _ := CompareHotpath(base, cur, 0.10, 0); len(v) != 0 {
		t.Fatalf("+10%% should be within a 10%% tolerance, got %v", v)
	}
}

func TestCompareHotpathRegression(t *testing.T) {
	base := map[string]HotpathResult{"B": {AllocsPerOp: 100}}
	cur := map[string]HotpathResult{"B": {AllocsPerOp: 111}}
	v, _ := CompareHotpath(base, cur, 0.10, 0)
	if len(v) != 1 || !strings.Contains(v[0], "100 -> 111") {
		t.Fatalf("+11%% should violate a 10%% tolerance, got %v", v)
	}
}

func TestCompareHotpathZeroAllocBaseline(t *testing.T) {
	// A zero-alloc benchmark must stay zero-alloc: tolerance scales the
	// baseline, so any allocation at all is a regression.
	base := map[string]HotpathResult{"B": {AllocsPerOp: 0}}
	if v, _ := CompareHotpath(base, map[string]HotpathResult{"B": {AllocsPerOp: 1}}, 0.10, 0); len(v) != 1 {
		t.Fatalf("1 alloc against a zero-alloc baseline should violate, got %v", v)
	}
	if v, _ := CompareHotpath(base, map[string]HotpathResult{"B": {AllocsPerOp: 0}}, 0.10, 0); len(v) != 0 {
		t.Fatalf("zero allocs against a zero-alloc baseline should pass, got %v", v)
	}
}

func TestCompareHotpathMissingBenchmark(t *testing.T) {
	base := map[string]HotpathResult{"Gone": {AllocsPerOp: 5}}
	v, _ := CompareHotpath(base, map[string]HotpathResult{}, 0.10, 0.15)
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Fatalf("a dropped benchmark must not pass silently, got %v", v)
	}
}

func TestCompareHotpathIgnoresNewBenchmarks(t *testing.T) {
	base := map[string]HotpathResult{"B": {AllocsPerOp: 10}}
	cur := map[string]HotpathResult{
		"B":   {AllocsPerOp: 10},
		"New": {AllocsPerOp: 1 << 20}, // no reference yet; not gated
	}
	if v, _ := CompareHotpath(base, cur, 0.10, 0.15); len(v) != 0 {
		t.Fatalf("benchmarks without a baseline should not gate, got %v", v)
	}
}

func TestCompareHotpathNsPerOp(t *testing.T) {
	base := map[string]HotpathResult{"B": {NsPerOp: 1000, GOMAXPROCS: 1}}
	within := map[string]HotpathResult{"B": {NsPerOp: 1150, GOMAXPROCS: 1}} // exactly +15%
	if v, _ := CompareHotpath(base, within, 0.10, 0.15); len(v) != 0 {
		t.Fatalf("+15%% ns/op should be within a 15%% tolerance, got %v", v)
	}
	regressed := map[string]HotpathResult{"B": {NsPerOp: 1160, GOMAXPROCS: 1}}
	v, _ := CompareHotpath(base, regressed, 0.10, 0.15)
	if len(v) != 1 || !strings.Contains(v[0], "ns/op regressed") {
		t.Fatalf("+16%% ns/op should violate a 15%% tolerance, got %v", v)
	}
	// Disabled when the tolerance is non-positive.
	if v, _ := CompareHotpath(base, regressed, 0.10, 0); len(v) != 0 {
		t.Fatalf("ns/op gate should be off at tolerance 0, got %v", v)
	}
}

func TestCompareHotpathSkipsMismatchedGOMAXPROCS(t *testing.T) {
	// A baseline measured at one parallelism must not gate a re-run at
	// another: neither metric is comparable across the fan-out change.
	base := map[string]HotpathResult{"B": {NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 8}}
	cur := map[string]HotpathResult{"B": {NsPerOp: 8000, AllocsPerOp: 99, GOMAXPROCS: 1}}
	if v, _ := CompareHotpath(base, cur, 0.10, 0.15); len(v) != 0 {
		t.Fatalf("mismatched gomaxprocs entries must be skipped, got %v", v)
	}
	// Matching entries still gate.
	cur["B"] = HotpathResult{NsPerOp: 8000, AllocsPerOp: 99, GOMAXPROCS: 8}
	if v, _ := CompareHotpath(base, cur, 0.10, 0.15); len(v) != 2 {
		t.Fatalf("matching gomaxprocs should gate both metrics, got %v", v)
	}
}

func TestCompareHotpathReportsSkippedPairs(t *testing.T) {
	// Every skipped comparison must be reported — a silent skip is how a
	// regenerated report quietly stops gating a benchmark.
	base := map[string]HotpathResult{
		"Par": {NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 4},
		"Ser": {NsPerOp: 2000, AllocsPerOp: 20, GOMAXPROCS: 1},
	}
	cur := map[string]HotpathResult{
		"Par": {NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 1}, // machine too small
		"Ser": {NsPerOp: 2000, AllocsPerOp: 20, GOMAXPROCS: 1},
	}
	v, skipped := CompareHotpath(base, cur, 0.10, 0.15)
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

	// Fully like-for-like runs report nothing skipped.
	cur["Par"] = HotpathResult{NsPerOp: 1000, AllocsPerOp: 10, GOMAXPROCS: 4}
	if _, skipped := CompareHotpath(base, cur, 0.10, 0.15); len(skipped) != 0 {
		t.Fatalf("nothing should be skipped on a like-for-like run, got %v", skipped)
	}
}

func TestLoadHotpathReport(t *testing.T) {
	dir := t.TempDir()

	good := filepath.Join(dir, "good.json")
	rep := HotpathReport{
		Schema:  HotpathSchema,
		Results: map[string]HotpathResult{"B": {AllocsPerOp: 7, GOMAXPROCS: 1}},
	}
	payload, _ := json.Marshal(rep)
	os.WriteFile(good, payload, 0o644)
	got, err := LoadHotpathReport(good)
	if err != nil {
		t.Fatalf("loading a valid report: %v", err)
	}
	if got.Results["B"].AllocsPerOp != 7 || got.Results["B"].GOMAXPROCS != 1 {
		t.Fatalf("round-trip lost data: %+v", got)
	}

	for name, body := range map[string]string{
		"badschema.json": `{"schema":"other/v9","results":{"B":{}}}`,
		"v1.json":        `{"schema":"histbench-hotpath/v1","results":{"B":{}}}`,
		"empty.json":     `{"schema":"` + HotpathSchema + `","results":{}}`,
		"garbage.json":   `not json`,
	} {
		p := filepath.Join(dir, name)
		os.WriteFile(p, []byte(body), 0o644)
		if _, err := LoadHotpathReport(p); err == nil {
			t.Fatalf("%s should fail to load", name)
		}
	}
	if _, err := LoadHotpathReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("a missing file should fail to load")
	}
}
