package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestSmokeAllWorkloads builds histd and runs every workload briefly,
// both passes included, so the whole harness runs under go test.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs histd")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin, err := buildHistd(ctx, "../..", dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{bin: bin, workdir: dir, warmup: 200 * time.Millisecond, measure: time.Second,
		setups: 1, traced: true, directRuns: 2}
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(ctx, cfg, def, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.failures) > 0 {
				t.Fatalf("gate failed: %v", res.failures)
			}
			if res.attempted == 0 || res.failed != 0 || res.verdicts == 0 {
				t.Fatalf("attempted %d, failed %d, verdicts %d", res.attempted, res.failed, res.verdicts)
			}
			for _, d := range endToEndDefs {
				v, ok := res.e2e[d.name]
				if _, missing := res.missing[d.name]; !missing && (!ok || math.IsNaN(v) || v <= 0) {
					t.Errorf("%s = %v, %v", d.name, v, ok)
				}
			}
			for _, d := range perLayerDefs {
				if v, ok := res.layers[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, %v", d.name, v, ok)
				}
			}
			if res.layers["serve.decode_us"] <= 0 || res.layers["oracle.samples_per_op"] <= 0 {
				t.Errorf("direct decode %v us, samples per op %v", res.layers["serve.decode_us"], res.layers["oracle.samples_per_op"])
			}
		})
	}
}
