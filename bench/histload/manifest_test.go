package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestManifestMatchesHarness keeps BENCHMARK.json, at the repository
// root, in step with what the harness reports: the same workloads, and
// the same end-to-end and per-layer metrics with the same units.
func TestManifestMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("manifest lists %d workloads, the harness %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range m.Workloads {
		if d := workloadDefs[i]; w.Name != d.name || w.Why != d.why {
			t.Errorf("workload %d: manifest %q (%q), harness %q (%q)", i, w.Name, w.Why, d.name, d.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: manifest %+v, harness %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, true)
	check("per_layer", m.PerLayer, perLayerDefs, false)
}
