package histtest

import (
	"encoding/json"
	"math"
	"testing"
)

func TestTestSourceWithConfidence(t *testing.T) {
	h := Uniform(256)
	v, err := TestSourceWithConfidence(h.Sampler(1), 256, 1, 0.5, 0.05, Options{Seed: 2, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsKHistogram {
		t.Fatalf("amplified tester rejected uniform: %s", v.Detail)
	}
	if v.SamplesUsed <= RequiredSamples(256, 1, 0.5, Options{Scale: 0.5}) {
		t.Fatal("amplification should multiply the budget")
	}
	if _, err := TestSourceWithConfidence(h.Sampler(1), 256, 1, 0.5, 0.7, Options{}); err == nil {
		t.Fatal("delta >= 0.5 accepted")
	}
	if _, err := TestSourceWithConfidence(h.Sampler(1), 256, 1, 0.5, 0, Options{}); err == nil {
		t.Fatal("delta = 0 accepted")
	}
}

func TestTestSourceWithConfidenceRejects(t *testing.T) {
	n := 256
	cuts := make([]int, 0, n-1)
	masses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			cuts = append(cuts, i)
		}
		masses = append(masses, float64(i%2*12+1))
	}
	comb, err := NewHistogram(n, cuts, masses)
	if err != nil {
		t.Fatal(err)
	}
	v, err := TestSourceWithConfidence(comb.Sampler(3), n, 2, 0.4, 0.05, Options{Seed: 4, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if v.IsKHistogram {
		t.Fatal("amplified tester accepted the comb")
	}
	if v.Stage == "" || v.Detail == "" {
		t.Fatal("amplified rejection lost its explanation")
	}
}

func TestRequiredSamplesWithConfidence(t *testing.T) {
	base := RequiredSamples(1024, 2, 0.5, Options{})
	amp := RequiredSamplesWithConfidence(1024, 2, 0.5, 0.01, Options{})
	if amp <= base*10 {
		t.Fatalf("δ=0.01 should cost >10× the base budget: %d vs %d", amp, base)
	}
}

// TestRequiredSamplesWithConfidenceSaturates: the repetition count
// multiplies a budget that may already be near or at math.MaxInt64, and
// the product saturates there instead of wrapping.
func TestRequiredSamplesWithConfidenceSaturates(t *testing.T) {
	for _, eps := range []float64{1.5e-4, 1e-6} {
		if got := RequiredSamplesWithConfidence(1<<20, 8, eps, 0.01, Options{}); got != math.MaxInt64 {
			t.Errorf("eps=%g: budget %d, want math.MaxInt64", eps, got)
		}
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	orig, err := NewHistogram(512, []int{100, 300}, []float64{0.5, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	tv, err := TotalVariation(orig, &back)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 1e-12 {
		t.Fatalf("round trip drifted by %v", tv)
	}
	if back.N() != 512 || back.Buckets() != 3 {
		t.Fatalf("round trip shape: n=%d buckets=%d", back.N(), back.Buckets())
	}
}

func TestHistogramJSONValidation(t *testing.T) {
	var h Histogram
	if err := json.Unmarshal([]byte(`{"n":4,"cuts":[2],"masses":[0.5]}`), &h); err == nil {
		t.Fatal("mismatched payload accepted")
	}
	if err := json.Unmarshal([]byte(`{"n":0,"cuts":[],"masses":[1]}`), &h); err == nil {
		t.Fatal("zero-domain payload accepted")
	}
	if err := json.Unmarshal([]byte(`not json`), &h); err == nil {
		t.Fatal("garbage accepted")
	}
	// Masses are normalized on decode.
	if err := json.Unmarshal([]byte(`{"n":4,"cuts":[2],"masses":[3,1]}`), &h); err != nil {
		t.Fatal(err)
	}
	if math.Abs(h.Selectivity(0, 2)-0.75) > 1e-12 {
		t.Fatalf("normalized mass = %v", h.Selectivity(0, 2))
	}
}
