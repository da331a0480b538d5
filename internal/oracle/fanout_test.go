package oracle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

// fanoutBody records what every replicate drew: per source, the batch
// size, a fingerprint of the count vector and whether it drew from the
// source itself and with the tester's RNG, plus the goroutine slot it
// ran on. It cancels the run right after replicate at, when at >= 0.
type fanoutBody struct {
	srcs   []Oracle
	r      *rng.RNG
	at     int
	cancel context.CancelFunc

	ran    []bool
	slot   []int
	shared [][][2]bool // per source: drew from the source, drew with r
	drawn  [][]int64
	prints [][]uint64
}

func newFanoutBody(srcs []Oracle, r *rng.RNG, reps, at int, cancel context.CancelFunc) *fanoutBody {
	b := &fanoutBody{srcs: srcs, r: r, at: at, cancel: cancel,
		ran: make([]bool, reps), slot: make([]int, reps), shared: make([][][2]bool, reps),
		drawn: make([][]int64, reps), prints: make([][]uint64, reps)}
	for t := range reps {
		b.shared[t] = make([][2]bool, len(srcs))
		b.drawn[t] = make([]int64, len(srcs))
		b.prints[t] = make([]uint64, len(srcs))
	}
	return b
}

func (b *fanoutBody) Replicate(g, rep int, src []Stream) {
	b.ran[rep], b.slot[rep] = true, g
	for i, s := range src {
		b.shared[rep][i] = [2]bool{s.O == b.srcs[i], s.R == b.r}
		c := DrawCounts(s.O, s.R, 20)
		fp := uint64(c.Total())
		c.ForEach(func(v, n int) { fp = fp*1_000_003 + uint64(v)<<20 + uint64(n) })
		b.drawn[rep][i], b.prints[rep][i] = int64(c.Total()), fp
		c.Release()
	}
	if rep == b.at {
		b.cancel()
	}
}

// TestFanoutRun drives the replicate driver over forkable and serial
// source sets at every (reps, workers) pair, uncancelled and cancelled
// at each replicate index. It pins the one forking rule, the goroutine
// count and chunk assignment, worker-count determinism of every
// replicate's draws, exact Absorb accounting on every path, and pooled
// Counts balance.
func TestFanoutRun(t *testing.T) {
	d1 := dist.MustDense([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	d2 := dist.Uniform(16)
	data := make([]int, 4096)
	for i := range data {
		data[i] = (i * 7) % 16
	}
	sets := []struct {
		name     string
		forkable bool
		build    func() []Oracle
	}{
		{"one", true, func() []Oracle { return []Oracle{NewSampler(d1, rng.New(11))} }},
		{"two", true, func() []Oracle { return []Oracle{NewSampler(d1, rng.New(11)), NewSampler(d2, rng.New(12))} }},
		{"replay", false, func() []Oracle {
			rp, _ := NewReplay(16, data)
			return []Oracle{rp}
		}},
		{"sampler+replay", false, func() []Oracle {
			rp, _ := NewReplay(16, data)
			return []Oracle{NewSampler(d1, rng.New(11)), rp}
		}},
	}
	var fan Fanout // reused across every run, as the testers reuse theirs
	for _, set := range sets {
		for _, reps := range []int{1, 2, 3, 5, 8} {
			var ref *fanoutBody
			for _, workers := range []int{0, 1, 2, 4, 8} {
				for at := -1; at < reps; at++ {
					name := fmt.Sprintf("%s/reps=%d/workers=%d/cancel@%d", set.name, reps, workers, at)
					srcs := set.build()
					r := rng.New(7)
					ctx, cancel := context.WithCancel(context.Background())
					body := newFanoutBody(srcs, r, reps, at, cancel)
					pool := PoolStatsSnapshot()
					launched, err := fan.Run(ctx, r, reps, workers, body, srcs...)
					after := PoolStatsSnapshot()
					cancel()

					if acq, rel := after.Acquires-pool.Acquires, after.Releases-pool.Releases; acq != rel {
						t.Fatalf("%s: %d pooled Counts acquired, %d released", name, acq, rel)
					}
					if (at >= 0) != errors.Is(err, context.Canceled) || (at < 0 && err != nil) {
						t.Fatalf("%s: err = %v", name, err)
					}
					fork := set.forkable && reps > 1
					want, chunk := 1, reps
					if w := min(workers, reps); fork && w > 1 {
						chunk = (reps + w - 1) / w
						want = (reps + chunk - 1) / chunk
					}
					if launched != want {
						t.Fatalf("%s: launched %d goroutines, want %d", name, launched, want)
					}
					for i, o := range srcs {
						var sum int64
						for rep := range reps {
							sum += body.drawn[rep][i]
						}
						if o.Samples() != sum {
							t.Fatalf("%s: source %d counts %d samples, its replicates drew %d", name, i, o.Samples(), sum)
						}
					}
					for rep := range reps {
						if !body.ran[rep] {
							continue
						}
						if body.slot[rep] != rep/chunk {
							t.Fatalf("%s: replicate %d ran on slot %d, want %d", name, rep, body.slot[rep], rep/chunk)
						}
						for i, sh := range body.shared[rep] {
							if sh != [2]bool{!fork, !fork} {
								t.Fatalf("%s: replicate %d source %d drew from the source %v and with r %v, want %v (fork=%v)",
									name, rep, i, sh[0], sh[1], !fork, fork)
							}
						}
						if ref != nil && !slices.Equal(body.prints[rep], ref.prints[rep]) {
							t.Fatalf("%s: replicate %d drew %v, want %v", name, rep, body.prints[rep], ref.prints[rep])
						}
					}
					if at < 0 {
						if slices.Contains(body.ran, false) {
							t.Fatalf("%s: replicates ran %v, want all", name, body.ran)
						}
						if ref == nil {
							ref = body
						}
						continue
					}
					// The cancelling replicate finished; the rest of its
					// chunk never started.
					if !body.ran[at] || slices.Contains(body.ran[at+1:min((at/chunk+1)*chunk, reps)], true) {
						t.Fatalf("%s: replicates ran %v", name, body.ran)
					}
				}
			}
		}
	}
}
