package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// traceEvent is the part of histd's -trace-json event (internal/obs's
// JSON-lines form) the aggregator reads.
type traceEvent struct {
	Run       uint64 `json:"run"`
	Kind      string `json:"kind"`
	Stage     string `json:"stage"`
	ElapsedUS int64  `json:"elapsed_us"`
	Samples   int64  `json:"samples"`
	Round     int    `json:"round"`
	Dense     int    `json:"dense_batches"`
	Sparse    int    `json:"sparse_batches"`
	Exact     int    `json:"exact_batches"`
	Closed    int    `json:"closed_form_batches"`
	PoolHits  int64  `json:"pool_hits"`
	PoolMiss  int64  `json:"pool_misses"`
	Err       string `json:"err"`
}

// stages are the core tester's stages, in pipeline order, as the trace
// names them.
var stages = [...]string{"partition", "learn", "sieve", "check", "test"}

func stageIndex(name string) (int, bool) {
	for i, s := range stages {
		if s == name {
			return i, true
		}
	}
	return 0, false
}

// traceSummary aggregates the runs of a trace that ended with a
// decision. Runs that ended with an error are only counted.
type traceSummary struct {
	runs, failed int
	// Per-stage means per run: self time in ms and draws; share is the
	// stage's self time over the runs' total wall-clock.
	stageMS, stageShare, stageSamples [len(stages)]float64
	sieveRounds                       float64   // mean halving rounds per run
	runMS                             []float64 // wall-clock of each run
	// Per-run means of the sieve-round batch tallies.
	exact, closedForm, dense, sparse float64
	poolHits, poolMisses             int64
}

// openStage is a stage entered and not yet exited.
type openStage struct {
	stage      int
	enterUS    int64
	childUS    int64 // time covered by stages nested inside it
	roundDraws int64 // draws reported by sieve rounds inside it
}

// runTrace is one run's events folded so far.
type runTrace struct {
	open                             []openStage
	selfUS, samples                  [len(stages)]int64
	maxRound                         int
	exact, closedForm, dense, sparse int
	hits, misses                     int64
	endUS                            int64
	ended                            bool
	err                              string
}

// close ends the innermost open stage at tUS. A stage without its own
// exit event (a run that rejected inside it) is credited the draws its
// sieve rounds reported.
func (r *runTrace) close(tUS, samples int64, exited bool) {
	top := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	dur := tUS - top.enterUS
	r.selfUS[top.stage] += dur - top.childUS
	if exited {
		r.samples[top.stage] += samples
	} else {
		r.samples[top.stage] += top.roundDraws
	}
	if n := len(r.open); n > 0 {
		r.open[n-1].childUS += dur
	}
}

// summarizeTrace folds a -trace-json stream. Events of concurrent runs
// interleave; the run field groups them.
func summarizeTrace(in io.Reader) (*traceSummary, error) {
	runs := make(map[uint64]*runTrace)
	var order []uint64
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var e traceEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		r := runs[e.Run]
		if r == nil {
			r = &runTrace{}
			runs[e.Run] = r
			order = append(order, e.Run)
		}
		switch e.Kind {
		case "stage-enter":
			st, ok := stageIndex(e.Stage)
			if !ok {
				return nil, fmt.Errorf("trace line %d: unknown stage %q", line, e.Stage)
			}
			r.open = append(r.open, openStage{stage: st, enterUS: e.ElapsedUS})
		case "stage-exit":
			st, ok := stageIndex(e.Stage)
			if !ok || len(r.open) == 0 || r.open[len(r.open)-1].stage != st {
				return nil, fmt.Errorf("trace line %d: exit from stage %q, which is not the open one", line, e.Stage)
			}
			r.close(e.ElapsedUS, e.Samples, true)
		case "sieve-round":
			if len(r.open) > 0 {
				r.open[len(r.open)-1].roundDraws += e.Samples
			}
			r.maxRound = max(r.maxRound, e.Round)
			r.exact += e.Exact
			r.closedForm += e.Closed
			r.dense += e.Dense
			r.sparse += e.Sparse
			r.hits += e.PoolHits
			r.misses += e.PoolMiss
		case "run-end":
			for len(r.open) > 0 {
				r.close(e.ElapsedUS, 0, false)
			}
			r.endUS, r.ended, r.err = e.ElapsedUS, true, e.Err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	s := &traceSummary{}
	var totalUS int64
	var selfUS [len(stages)]int64
	for _, id := range order {
		r := runs[id]
		switch {
		case !r.ended:
			continue
		case r.err != "":
			s.failed++
			continue
		}
		s.runs++
		totalUS += r.endUS
		s.runMS = append(s.runMS, float64(r.endUS)/1e3)
		for i := range stages {
			selfUS[i] += r.selfUS[i]
			s.stageSamples[i] += float64(r.samples[i])
		}
		s.sieveRounds += float64(r.maxRound)
		s.exact += float64(r.exact)
		s.closedForm += float64(r.closedForm)
		s.dense += float64(r.dense)
		s.sparse += float64(r.sparse)
		s.poolHits += r.hits
		s.poolMisses += r.misses
	}
	if s.runs == 0 {
		return s, nil
	}
	n := float64(s.runs)
	for i := range stages {
		s.stageMS[i] = float64(selfUS[i]) / 1e3 / n
		s.stageSamples[i] /= n
		if totalUS > 0 {
			s.stageShare[i] = float64(selfUS[i]) / float64(totalUS)
		}
	}
	s.sieveRounds /= n
	s.exact /= n
	s.closedForm /= n
	s.dense /= n
	s.sparse /= n
	return s, nil
}

// poolHitRatio is hits / (hits + misses) over the sieve rounds, or 0 when
// no round touched the pool.
func (s *traceSummary) poolHitRatio() float64 {
	if s.poolHits+s.poolMisses == 0 {
		return 0
	}
	return float64(s.poolHits) / float64(s.poolHits+s.poolMisses)
}
