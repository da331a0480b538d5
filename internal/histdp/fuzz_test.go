package histdp

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/intervals"
)

// FuzzProjectTV checks the projection invariants on arbitrary four-piece
// inputs: no panic, bracket ordering, feasible output.
func FuzzProjectTV(f *testing.F) {
	f.Add(uint16(20), uint16(5), uint16(10), uint16(15), 1.0, 2.0, 3.0, 4.0, uint8(2))
	f.Add(uint16(4), uint16(1), uint16(2), uint16(3), 0.0, 1.0, 0.0, 1.0, uint8(1))
	f.Add(uint16(100), uint16(99), uint16(98), uint16(97), 5.0, 5.0, 5.0, 5.0, uint8(7))
	f.Fuzz(func(t *testing.T, nRaw, c1, c2, c3 uint16, m1, m2, m3, m4 float64, kRaw uint8) {
		n := int(nRaw%2000) + 4
		k := int(kRaw%8) + 1
		for _, m := range []float64{m1, m2, m3, m4} {
			if math.IsNaN(m) || math.IsInf(m, 0) || m < 0 || m > 1e12 {
				t.Skip()
			}
		}
		if m1+m2+m3+m4 <= 0 {
			t.Skip()
		}
		part := intervals.FromBoundaries(n, []int{int(c1) % n, int(c2) % n, int(c3) % n})
		masses := []float64{m1, m2, m3, m4}[:part.Count()]
		total := 0.0
		for _, m := range masses {
			total += m
		}
		if total <= 0 {
			t.Skip()
		}
		for i := range masses {
			masses[i] /= total
		}
		d, err := dist.FromWeights(part, masses)
		if err != nil {
			t.Skip()
		}
		proj, err := ProjectTV(context.Background(), d, k, intervals.FullDomain(n))
		if err != nil {
			t.Fatalf("ProjectTV: %v", err)
		}
		if proj.Relaxed < 0 || proj.Relaxed > proj.Distance+1e-9 {
			t.Fatalf("bracket broken: relaxed %v, distance %v", proj.Relaxed, proj.Distance)
		}
		if proj.Projected.PieceCount() > k {
			t.Fatalf("projection has %d > k = %d pieces", proj.Projected.PieceCount(), k)
		}
		if math.Abs(dist.TotalMass(proj.Projected)-1) > 1e-9 {
			t.Fatalf("projection mass %v", dist.TotalMass(proj.Projected))
		}
		if k >= d.PieceCount() && proj.Relaxed > 1e-12 {
			t.Fatalf("k >= pieces should fit exactly, relaxed = %v", proj.Relaxed)
		}
	})
}
