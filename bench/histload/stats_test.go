package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 0, false}, // rank 10 leaves 9 above
		{20, 0.5, 10, true}, // rank 10 leaves 10 above
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{999, 0.99, 0, false},
		{1000, 0.99, 990, true},
	} {
		v, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3, ok := quartiles(c.xs)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported a value")
	}
}

func TestMedian(t *testing.T) {
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", m)
	}
	if m := median(seq(5)); m != 3 {
		t.Errorf("median(1..5) = %v, want 3", m)
	}
}
