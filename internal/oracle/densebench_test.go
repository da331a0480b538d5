package oracle

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// BenchmarkDenseSparseCrossover pins the empirical crossover behind
// useDense: at a fixed domain size n it tallies m samples and walks the
// result with ForEach — the exact access pattern of the sieve and the
// Laplace learner — once forced dense and once forced sparse, across
// sample/domain ratios m = n/64 .. n. Run with
//
//	go test -run=NONE -bench=DenseSparseCrossover -benchmem ./internal/oracle/
//
// to re-derive the threshold documented at useDense.
func BenchmarkDenseSparseCrossover(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		// Uniform draws give the sparse map its best case (maximal
		// distinct-element churn happens near m ≈ n, its worst case is
		// covered by the ratio sweep).
		r := rng.New(7)
		all := make([]int, n)
		for i := range all {
			all[i] = r.Intn(n)
		}
		for _, div := range []int{64, 32, 16, 8, 4, 1} {
			m := n / div
			samples := all[:m]
			for _, mode := range []struct {
				name string
				mk   func(n int, samples []int) *Counts
			}{
				{"dense", NewDenseCounts},
				{"sparse", NewSparseCounts},
			} {
				b.Run(fmt.Sprintf("n=%d/m=n÷%d/%s", n, div, mode.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						c := mode.mk(n, samples)
						sum := 0
						c.ForEach(func(_, ni int) { sum += ni })
						if sum != m {
							b.Fatalf("tally mismatch: %d != %d", sum, m)
						}
					}
				})
			}
		}
	}
}

// BenchmarkTallyDense times one exact DrawNCounts batch of 478,800
// draws (the cdkl-inline learn size) from the eight-histogram at a
// domain whose dense backing fits in L2 (n = 10⁵, 400 KB) and at two
// that do not (2²⁰ and 2²², 4 and 16 MiB), and the closed-form batch of
// the cdkl-inline specs at their mean of 512,000. ns/draw divides by the
// realized batch size. Run with
//
//	go test -run '^$' -bench TallyDense -count 5 ./internal/oracle/
func BenchmarkTallyDense(b *testing.B) {
	const m = 478_800
	for _, n := range []int{100_000, 1 << 20, 1 << 22} {
		b.Run(fmt.Sprintf("exact/n=%d", n), func(b *testing.B) {
			s := NewSampler(goldenEight(n), rng.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DrawNCounts(s, m).Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/draw")
		})
	}
	ref, comb := goldenCDKLInline()
	for _, spec := range []struct {
		name string
		d    *dist.PiecewiseConstant
	}{{"reference", ref}, {"comb", comb}} {
		b.Run("closed-form/cdkl-inline-"+spec.name, func(b *testing.B) {
			s, r := NewSampler(spec.d, rng.New(1)), rng.New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.DrawPoissonCountsClosedForm(r, 512_000).Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Samples()), "ns/draw")
		})
	}
}
