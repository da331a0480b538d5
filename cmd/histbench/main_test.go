package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cli"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListFlag(t *testing.T) {
	code, out, _ := runCmd("-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, id := range []string{"E1", "E6", "claim:"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list output missing %q:\n%s", id, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"bad flag value", []string{"-workers", "two"}},
		{"positional args", []string{"stray"}},
		{"unknown experiment", []string{"-run", "E99"}},
		{"unknown engine", []string{"-run", "E1", "-engine", "adk2"}},
		{"engine case-sensitive", []string{"-run", "E1", "-engine", "ADK"}},
	}
	for _, tc := range cases {
		if code, _, _ := runCmd(tc.args...); code != 2 {
			t.Errorf("%s: run(%v) = %d, want 2", tc.name, tc.args, code)
		}
	}
	// The unknown-engine refusal must name the registered engines, so the
	// operator can self-correct without reading source.
	if _, _, errb := runCmd("-run", "E1", "-engine", "adk2"); !strings.Contains(errb, "adk") || !strings.Contains(errb, "cdkl22") {
		t.Errorf("unknown-engine error does not list the registry: %q", errb)
	}
}

// TestEngineFlagSelectsEngine runs the cheapest experiment under each
// registered engine: the flag must reach core.Config.Engine (the cdkl22
// run would fail loudly if the dispatch fell back to the default while
// claiming otherwise — its trace has no sieve rounds).
func TestEngineFlagSelectsEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) experiment per engine")
	}
	for _, engine := range []string{"adk", "cdkl22"} {
		trace := filepath.Join(t.TempDir(), engine+".jsonl")
		code, out, errb := runCmd("-run", "E1", "-quick", "-engine", engine, "-trace-json", trace)
		if code != 0 {
			t.Fatalf("engine %s: exited %d:\n%s", engine, code, errb)
		}
		if !strings.Contains(out, "=== E1") {
			t.Fatalf("engine %s: missing experiment header:\n%s", engine, out)
		}
		payload, err := os.ReadFile(trace)
		if err != nil {
			t.Fatalf("engine %s: reading trace: %v", engine, err)
		}
		hasSieve := strings.Contains(string(payload), `"sieve-round"`)
		if engine == "adk" && !hasSieve {
			t.Fatalf("adk trace has no sieve rounds — engine flag not honored")
		}
		if engine == "cdkl22" && hasSieve {
			t.Fatalf("cdkl22 trace has sieve rounds — engine flag silently fell back to adk")
		}
	}
}

// TestQuickExperimentWithWorkersAndTrace covers the -workers and
// -trace-json wiring on the cheapest experiment.
func TestQuickExperimentWithWorkersAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (quick) experiment")
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	code, out, errb := runCmd("-run", "E1", "-quick", "-workers", "2", "-trace-json", trace, "-v")
	if code != 0 {
		t.Fatalf("quick E1 exited %d:\n%s", code, errb)
	}
	if !strings.Contains(out, "=== E1") {
		t.Fatalf("missing experiment header:\n%s", out)
	}
	if runtime.GOMAXPROCS(0) != 2 {
		t.Fatalf("-workers 2 did not cap GOMAXPROCS (got %d)", runtime.GOMAXPROCS(0))
	}
	payload, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	for _, kind := range []string{`"run-start"`, `"run-end"`} {
		if !strings.Contains(string(payload), kind) {
			t.Fatalf("trace missing %s events", kind)
		}
	}
}

// The full ledger takes minutes to measure, so the bad-input tests run
// the flag itself and TestBenchGateOnTinyTable drives the same
// measure, write and gate path over a table of trivial bodies;
// `make bench-gate` exercises the real table.
func TestBenchGateBadInputs(t *testing.T) {
	if code, _, errb := runCmd("-bench-gate", "no-such-file.json"); code != 1 || !strings.Contains(errb, "no-such-file.json") {
		t.Fatalf("missing ledger: code %d, stderr %q", code, errb)
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	payload, _ := json.Marshal(cli.Ledger{Schema: "histbench-hotpath/v2"})
	os.WriteFile(bad, payload, 0o644)
	if code, _, errb := runCmd("-bench-gate", bad); code != 1 || !strings.Contains(errb, "schema") {
		t.Fatalf("old schema: code %d, stderr %q", code, errb)
	}
}

var allocSink []byte

func TestBenchGateOnTinyTable(t *testing.T) {
	// One iteration per run keeps the five runs per entry instant.
	prev := flag.Lookup("test.benchtime").Value.String()
	flag.Set("test.benchtime", "1x")
	defer flag.Set("test.benchtime", prev)

	nop := func(b *testing.B) {}
	rate := func(b *testing.B) { b.ReportMetric(5e6, "events/s") }
	table := []benchEntry{
		{"Nop", "draw", 1, "", nop},
		{"Rate4", "ingest", 4, "", rate},
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	var errb bytes.Buffer
	if err := writeLedger(path, table, &errb); err != nil {
		t.Fatal(err)
	}
	l, err := cli.LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Entries["Rate4"]; got.GOMAXPROCS != 4 || got.EventsPerSec != 5e6 || got.Layer != "ingest" || got.ProbeNs <= 0 {
		t.Fatalf("Rate4 recorded as %+v", got)
	}
	if got := l.Entries["Nop"]; got.EventsPerSec != 0 || got.AllocsPerOp != 0 {
		t.Fatalf("Nop recorded as %+v", got)
	}

	// A ledger probe far below any real one makes the host look millions
	// of times slower now than at recording, so no time bound can fail
	// below: only allocs/op and presence can.
	for name, e := range l.Entries {
		e.ProbeNs = 1e-6
		l.Entries[name] = e
	}
	payload, _ := json.Marshal(l)
	os.WriteFile(path, payload, 0o644)

	var out bytes.Buffer
	errb.Reset()
	if n, err := gateLedger(path, table, &out, &errb); err != nil || n != 0 {
		t.Fatalf("gate against its own ledger: %d violations, err %v\n%s", n, err, errb.String())
	}
	if !strings.Contains(out.String(), "Nop: ns/op") || !strings.Contains(out.String(), "Rate4: events/s") {
		t.Fatalf("gate output lacks per-entry lines:\n%s", out.String())
	}

	allocating := func(b *testing.B) {
		for range b.N {
			allocSink = make([]byte, 64)
		}
	}
	errb.Reset()
	n, err := gateLedger(path, []benchEntry{{"Nop", "draw", 1, "", allocating}}, &out, &errb)
	if err != nil || n != 2 || !strings.Contains(errb.String(), "Nop: allocs/op regressed 0 -> 1") ||
		!strings.Contains(errb.String(), "Rate4: present in the ledger but missing") {
		t.Fatalf("want the allocation and the dropped entry as violations, got %d (err %v):\n%s", n, err, errb.String())
	}
}
