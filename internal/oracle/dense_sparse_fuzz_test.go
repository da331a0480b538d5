package oracle

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// FuzzDenseSparseEquivalence fuzzes the two Counts representations
// against each other around the m >= n/64 crossover that DrawCounts'
// heuristic switches on: for any sample multiset, the dense []int32
// tally, the sparse map tally, the heuristic-chosen tally, and the
// pooled batch-draw tally (via a Replay oracle) must agree on every
// accessor. A divergence here would silently skew the χ² statistics
// depending on which side of the crossover a batch lands.
func FuzzDenseSparseEquivalence(f *testing.F) {
	f.Add(uint16(64), uint16(1), uint64(1))    // m << n/64: sparse side
	f.Add(uint16(512), uint16(8), uint64(2))   // exactly n/64
	f.Add(uint16(512), uint16(7), uint64(3))   // one below the crossover
	f.Add(uint16(512), uint16(9), uint64(4))   // one above
	f.Add(uint16(1), uint16(100), uint64(5))   // single-element domain
	f.Add(uint16(300), uint16(300), uint64(6)) // m == n
	// Exactly walkBlock-1, walkBlock, walkBlock+1 and 2·walkBlock occupied
	// elements (255, 256, 257, 512): over n = 2048, where the walk
	// compacts across empty slots, and over a fully occupied domain,
	// where the last block ends at the domain's end.
	f.Add(uint16(2047), uint16(261), uint64(84))
	f.Add(uint16(2047), uint16(262), uint64(84))
	f.Add(uint16(2047), uint16(263), uint64(84))
	f.Add(uint16(2047), uint16(565), uint64(67))
	f.Add(uint16(254), uint16(4095), uint64(7))
	f.Add(uint16(255), uint16(4095), uint64(7))
	f.Add(uint16(256), uint16(4095), uint64(7))
	f.Add(uint16(511), uint16(4095), uint64(7))
	f.Fuzz(func(t *testing.T, nRaw, mRaw uint16, seed uint64) {
		n := int(nRaw)%2048 + 1
		m := int(mRaw) % 4096
		r := rng.New(seed)
		samples := make([]int, m)
		for i := range samples {
			samples[i] = r.Intn(n)
		}

		dense := NewDenseCounts(n, samples)
		sparse := NewSparseCounts(n, samples)
		auto := NewCounts(n, samples)
		rep, err := NewReplay(n, samples)
		if err != nil {
			t.Fatal(err)
		}
		pooled := DrawNCounts(rep, m)
		defer pooled.Release()

		all := []*Counts{dense, sparse, auto, pooled}
		names := []string{"dense", "sparse", "auto", "pooled"}
		ref := dense
		for idx, c := range all[1:] {
			name := names[idx+1]
			if c.N() != ref.N() || c.Total() != ref.Total() || c.Distinct() != ref.Distinct() {
				t.Fatalf("%s: N/Total/Distinct = %d/%d/%d, dense = %d/%d/%d",
					name, c.N(), c.Total(), c.Distinct(), ref.N(), ref.Total(), ref.Distinct())
			}
			if got, want := c.PairCollisions(), ref.PairCollisions(); got != want {
				t.Fatalf("%s: PairCollisions %d, dense %d", name, got, want)
			}
		}

		// Point lookups: every sampled element plus unsampled probes.
		probe := map[int]bool{0: true, n - 1: true, n / 2: true}
		for _, s := range samples {
			probe[s] = true
		}
		for i := range probe {
			want := ref.Of(i)
			for idx, c := range all[1:] {
				if got := c.Of(i); got != want {
					t.Fatalf("%s: Of(%d) = %d, dense = %d", names[idx+1], i, got, want)
				}
			}
		}

		// ForEach must visit the same (elem, count) sequence ascending.
		type ec struct{ e, c int }
		collect := func(c *Counts) []ec {
			var out []ec
			c.ForEach(func(e, cnt int) { out = append(out, ec{e, cnt}) })
			return out
		}
		refSeq := collect(ref)
		for i := 1; i < len(refSeq); i++ {
			if refSeq[i].e <= refSeq[i-1].e {
				t.Fatalf("dense ForEach not ascending: %v", refSeq)
			}
		}
		for idx, c := range all[1:] {
			seq := collect(c)
			if len(seq) != len(refSeq) {
				t.Fatalf("%s: ForEach visited %d elements, dense %d", names[idx+1], len(seq), len(refSeq))
			}
			for i := range seq {
				if seq[i] != refSeq[i] {
					t.Fatalf("%s: ForEach[%d] = %v, dense %v", names[idx+1], i, seq[i], refSeq[i])
				}
			}
		}

		// The walk against a plain per-slot loop over a tally of the
		// samples: on every backing the blocks concatenate to the
		// occupied slots, ascending, and every block but the last is full.
		tally := make([]int, n)
		for _, s := range samples {
			tally[s]++
		}
		var want []ElemCount
		for i := 0; i < n; i++ {
			if tally[i] != 0 {
				want = append(want, ElemCount{i, tally[i]})
			}
		}
		for idx, c := range all {
			var got []ElemCount
			var lens []int
			w := c.Walk()
			for blk := w.Next(); len(blk) > 0; blk = w.Next() {
				got = append(got, blk...)
				lens = append(lens, len(blk))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: walk handed out %v, per-slot reference %v", names[idx], got, want)
			}
			for b, l := range lens[:max(len(lens)-1, 0)] {
				if l != walkBlock {
					t.Fatalf("%s: block %d of %d holds %d pairs, want %d (block sizes %v)", names[idx], b, len(lens), l, walkBlock, lens)
				}
			}
		}

		// Range sums over a deterministic sweep of windows.
		for lo := 0; lo < n; lo += n/7 + 1 {
			hi := lo + n/3 + 1
			if hi > n {
				hi = n
			}
			want := ref.InRange(lo, hi)
			for idx, c := range all[1:] {
				if got := c.InRange(lo, hi); got != want {
					t.Fatalf("%s: InRange(%d,%d) = %d, dense = %d", names[idx+1], lo, hi, got, want)
				}
			}
		}
	})
}
