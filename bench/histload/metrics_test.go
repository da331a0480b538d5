package main

import (
	"testing"
	"time"
)

// A host probe twice the reference cost halves the normalized times and
// doubles the normalized throughput; latency is split by label.
func TestEndToEndNormalizesByProbe(t *testing.T) {
	p := &passResult{window: 10 * time.Second, cpu: [2]time.Duration{time.Second, 6 * time.Second},
		probe: []float64{2 * probeRefNS, 2 * probeRefNS}, rss: 3 << 20}
	st := &p.lanes[0]
	st.verdicts = true
	for i := range 40 {
		lat := 100.0 // references
		if labelOf(i) == 1 {
			lat = 30 // combs
		}
		st.latMS = append(st.latMS, lat)
		st.obs = append(st.obs, observation{label: labels[labelOf(i)]})
		st.attempted++
	}
	vals, missing := endToEnd(p, []float64{0.002, 0.001, 0.003})
	for name, want := range map[string]float64{
		"setup_s":               0.002,
		"rss_peak_mb":           3,
		"throughput_rps":        4,
		"throughput_rps_norm":   8,
		"reference_p50_ms":      100,
		"reference_p50_ms_norm": 50,
		"comb_p50_ms":           30,
		"comb_p50_ms_norm":      15,
		"cpu_ms_per_op":         125,
		"cpu_ms_per_op_norm":    62.5,
		"error_rate":            0,
	} {
		if got, ok := vals[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	// 40 pooled verdicts support a p50 but not a p90.
	if _, ok := missing["latency_p90_ms"]; !ok {
		t.Errorf("latency_p90_ms reported from 40 verdicts: %v", vals["latency_p90_ms"])
	}
}
