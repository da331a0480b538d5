// Stream drift detection: monitor a live data stream and alert when its
// distribution stops being representable by the k-histogram model the
// downstream system assumes. Events are tallied in a tumbling window —
// a one-generation stream.Accumulator, the ingest engine behind histd's
// /v1/streams — and each full window's counts are replayed into the
// tester. An accepted window keeps the model, a rejected one signals
// that the summary (and anything tuned to it — query plans, alert
// thresholds) must be rebuilt with more bins.
//
//	go run ./examples/streamcheck
package main

import (
	"fmt"
	"log"

	"repro/histtest"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

const (
	n   = 1 << 11
	k   = 3
	eps = 0.45
)

// phase describes one regime of the simulated stream, one window long.
type phase struct {
	name string
	src  histtest.Source
}

func phases() ([]phase, error) {
	// Regime A: a clean 3-histogram (the provisioned model).
	clean, err := histtest.NewHistogram(n, []int{400, 1400}, []float64{0.3, 0.5, 0.2})
	if err != nil {
		return nil, err
	}
	// Regime B: mild drift — still a 3-histogram, shifted weights.
	drifted, err := histtest.NewHistogram(n, []int{400, 1400}, []float64{0.45, 0.35, 0.2})
	if err != nil {
		return nil, err
	}
	// Regime C: structural break — a 40-step sawtooth no 3-histogram fits.
	cuts := make([]int, 0, 39)
	masses := make([]float64, 0, 40)
	for j := 0; j < 40; j++ {
		if j > 0 {
			cuts = append(cuts, j*n/40)
		}
		masses = append(masses, float64(j%5+1))
	}
	broken, err := histtest.NewHistogram(n, cuts, masses)
	if err != nil {
		return nil, err
	}
	return []phase{
		{"regime A (provisioned 3-histogram)", clean.Sampler(10)},
		{"regime B (drifted, still 3 bands)", drifted.Sampler(11)},
		{"regime C (structural break)", broken.Sampler(12)},
	}, nil
}

func main() {
	window := int(histtest.RequiredSamples(n, k, eps, histtest.Options{}))
	window += window / 4
	ps, err := phases()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window: %d events; model: %d-histogram over [0,%d) at ε=%.2f\n\n", window, k, n, eps)

	// One generation and no rotation clock: Rotate clears the whole
	// tally, so each window is tested on its own events only.
	acc, err := stream.NewAccumulator(stream.AccumConfig{N: n})
	if err != nil {
		log.Fatal(err)
	}
	events := make([]int32, window)
	for i, p := range ps {
		for j := range events {
			events[j] = int32(p.src())
		}
		acc.Ingest(events)

		// The window's counts replay without replacement in an order
		// drawn from their own generator, independent of the tester's.
		counts, _ := acc.Snapshot()
		seed := uint64(100 + i)
		o := oracle.NewCountsReplay(counts, rng.New(seed<<32))
		counts.Release()
		res, err := core.Test(o, rng.New(seed), k, eps, core.PracticalConfig())
		acc.Rotate()

		status := "OK      model holds"
		if err != nil {
			status = "ERROR   " + err.Error()
		} else if !res.Accept {
			status = "ALERT   rebuild summary"
		}
		fmt.Printf("%-38s %s\n", p.name, status)
	}
}
