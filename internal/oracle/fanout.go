package oracle

import (
	"context"
	"sync"

	"repro/internal/rng"
)

// Stream is what one replicate draws from for one source: the oracle and
// the RNG its Poisson variates come from. Under a fan-out that is a fork
// and the private stream it was forked onto; otherwise it is the source
// itself and the tester's RNG.
type Stream struct {
	O Oracle
	R *rng.RNG
}

// Replicator is a tester's per-replicate body. Replicate computes
// replicate rep from src, one Stream per source in the order the sources
// were passed to Fanout.Run, on goroutine slot g (0 <= g < the count Run
// returns). Calls on different slots may run concurrently; calls on one
// slot never do, so a body may keep per-slot tallies without atomics.
type Replicator interface {
	Replicate(g, rep int, src []Stream)
}

// Fanout is the replicate driver every amplified tester shares: the adk
// sieve's per-interval medians and the closeness tester's majority vote
// both run their replicates through Run. A replicate is one independent
// Poissonized batch per source and the statistic computed from it. The
// zero value is ready to use; the per-replicate RNG structs and stream
// bindings are kept and reused across Runs, so a Fanout is not safe for
// concurrent use.
type Fanout struct {
	rngs    []rng.RNG
	streams []Stream
	width   int // sources per replicate
	stride  int // streams between replicates: width forked, 0 unforked
}

// Run runs replicates 0..reps-1 of body over srcs and returns how many
// goroutines ran them.
//
// When reps > 1 and every source can fork (Forker.CanFork), Run splits
// one stream per source per replicate from r, in (replicate, source)
// order, before any goroutine starts, forks each source onto its
// stream, and runs the replicates in min(workers, reps) contiguous
// chunks, one goroutine each. Otherwise it runs them in order on the
// sources themselves, every source drawing with r. Either way each
// replicate's randomness is fixed before it runs, so the outcome is
// bit-identical at every workers value.
//
// The context is checked before each replicate: a cancelled Run skips
// the replicates not yet started, waits for those in flight, and returns
// ctx.Err(). Fork draws are folded back into each source with Absorb on
// every path, cancellation included, so Samples() stays exact.
func (f *Fanout) Run(ctx context.Context, r *rng.RNG, reps, workers int, body Replicator, srcs ...Oracle) (int, error) {
	fork := reps > 1
	for _, o := range srcs {
		if fk, ok := o.(Forker); !ok || !fk.CanFork() {
			fork = false
		}
	}
	f.width, f.stride = len(srcs), 0
	rows := 1
	if fork {
		f.stride, rows = len(srcs), reps
	}
	if cap(f.streams) < rows*f.width {
		f.streams = make([]Stream, rows*f.width)
	}
	st := f.streams[:rows*f.width]
	if fork {
		if cap(f.rngs) < len(st) {
			f.rngs = make([]rng.RNG, len(st))
		}
		for j := range st {
			rj := &f.rngs[j]
			r.SplitInto(rj)
			st[j] = Stream{O: srcs[j%f.width].(Forker).Fork(rj), R: rj}
		}
	} else {
		for i, o := range srcs {
			st[i] = Stream{O: o, R: r}
		}
	}

	launched := 1
	if w := min(workers, reps); fork && w > 1 {
		// Worker g owns the contiguous replicates [g·chunk, (g+1)·chunk).
		// With reps not a multiple of w the trailing chunks can be empty
		// (reps = 5, w = 4: chunk 2 covers everything in 3), so fewer
		// than w goroutines may run.
		chunk := (reps + w - 1) / w
		launched = (reps + chunk - 1) / chunk
		var wg sync.WaitGroup
		wg.Add(launched)
		for g := 0; g < launched; g++ {
			go func() {
				defer wg.Done()
				f.run(ctx, body, g, g*chunk, min(g*chunk+chunk, reps))
			}()
		}
		wg.Wait()
	} else {
		f.run(ctx, body, 0, 0, reps)
	}

	if fork {
		for i, o := range srcs {
			var drawn int64
			for j := i; j < len(st); j += f.width {
				drawn += st[j].O.Samples()
			}
			o.(Forker).Absorb(drawn)
		}
	}
	clear(st) // the scratch must not keep forks or sources alive
	return launched, ctx.Err()
}

// run computes replicates [lo, hi) on goroutine slot g, stopping at the
// first one that finds ctx cancelled.
func (f *Fanout) run(ctx context.Context, body Replicator, g, lo, hi int) {
	for t := lo; t < hi && ctx.Err() == nil; t++ {
		body.Replicate(g, t, f.streams[t*f.stride:t*f.stride+f.width])
	}
}
