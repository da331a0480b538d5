package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/histtest/client"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// This file runs requests in-process through the public functions the
// server calls, in the server's order and with its seed conventions, so
// a direct verdict is bit-identical to the served one (the gate checks
// it) and each step can be timed on its own.

// stepTimes is one direct request split into the server's steps.
type stepTimes struct {
	decode, resolve, run, encode time.Duration
	samples                      int64 // oracle draws of the run
}

// verdict is a served or direct answer reduced to what the gate compares
// and the metrics read.
type verdict struct {
	// canon is the canonical JSON of every verdict field except the
	// server's elapsed time; served == direct means equal canon.
	canon   []byte
	accept  bool
	samples int64
	// partition and test split a closeness verdict's draws by stage.
	partition, test int64
}

// decodeStrict decodes a request body the way the server does: one JSON
// value, unknown fields refused.
func decodeStrict(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// timeEncode encodes a response body the way the server does and
// returns how long it took.
func timeEncode(v any) (time.Duration, error) {
	t := time.Now()
	err := json.NewEncoder(io.Discard).Encode(v)
	return time.Since(t), err
}

// specOf renders a piecewise-constant distribution as its wire spec.
func specOf(d *dist.PiecewiseConstant) client.HistogramSpec {
	ps := d.Pieces()
	spec := client.HistogramSpec{N: d.N(), Masses: make([]float64, len(ps))}
	for j, p := range ps {
		if j > 0 {
			spec.Cuts = append(spec.Cuts, p.Iv.Lo)
		}
		spec.Masses[j] = p.Mass
	}
	return spec
}

// buildSampler resolves a wire spec into the alias-table prototype the
// server builds for it: same partition, same mass normalization, same
// constructor, so forks of it draw the served stream.
func buildSampler(spec *client.HistogramSpec) (*oracle.Sampler, error) {
	p := intervals.FromBoundaries(spec.N, spec.Cuts)
	total := 0.0
	for _, m := range spec.Masses {
		total += m
	}
	norm := make([]float64, len(spec.Masses))
	for i, m := range spec.Masses {
		norm[i] = m / total
	}
	pc, err := dist.FromWeights(p, norm)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return oracle.NewSampler(pc, rng.New(0)), nil
}

// orOne applies the wire rule that a zero seed means 1.
func orOne(seed uint64) uint64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// testConfig is the core configuration the server derives from a
// /v1/test request: the practical preset, a serial sieve, and the
// request's engine and count strategy.
func testConfig(req *client.TestRequest) (core.Config, error) {
	cfg := core.PracticalConfig()
	cfg.Workers = 1
	cs, err := oracle.ParseCountStrategy(req.CountStrategy)
	if err != nil {
		return cfg, err
	}
	cfg.CountStrategy = cs
	cfg.Engine = req.Engine
	return cfg, nil
}

// testResult renders a core result as the server's wire verdict.
func testResult(res *core.Result, samples int64) client.TestResult {
	tr := res.Trace
	return client.TestResult{
		Accept:      res.Accept,
		SamplesUsed: samples,
		Stage:       tr.RejectStage,
		Detail:      tr.RejectReason,
		Trace: &client.Trace{
			N:                tr.N,
			K:                tr.K,
			B:                tr.B,
			SieveRoundsRun:   tr.SieveRoundsRun,
			PartitionSamples: tr.PartitionSamples,
			LearnSamples:     tr.LearnSamples,
			SieveSamples:     tr.SieveSamples,
			TestSamples:      tr.TestSamples,
			RemovedHeavy:     tr.RemovedHeavy,
			HeavySingletons:  tr.HeavySingletons,
			RemovedRounds:    tr.RemovedRounds,
			RemovedMass:      tr.RemovedMass,
			CheckRelaxed:     tr.CheckRelaxed,
			FinalZ:           tr.FinalZ,
			FinalThresh:      tr.FinalThresh,
			RejectStage:      tr.RejectStage,
			RejectReason:     tr.RejectReason,
		},
	}
}

// testVerdict reduces a /v1/test answer to a verdict.
func testVerdict(r client.TestResult) (verdict, error) {
	if r.Trace == nil || r.SamplesUsed <= 0 {
		return verdict{}, fmt.Errorf("verdict without a trace or draws (samples_used %d)", r.SamplesUsed)
	}
	r.ElapsedMS, r.Index = 0, 0
	canon, err := json.Marshal(r)
	return verdict{canon: canon, accept: r.Accept, samples: r.SamplesUsed}, err
}

// parseTestResult decodes a served /v1/test answer.
func parseTestResult(body []byte) (verdict, error) {
	var r client.TestResult
	if err := json.Unmarshal(body, &r); err != nil {
		return verdict{}, err
	}
	return testVerdict(r)
}

// closenessVerdict reduces a /v1/closeness answer to a verdict.
func closenessVerdict(v client.ClosenessVerdict) (verdict, error) {
	if v.SamplesA <= 0 || v.SamplesB <= 0 {
		return verdict{}, fmt.Errorf("closeness verdict without draws on both sides (%d, %d)", v.SamplesA, v.SamplesB)
	}
	canon, err := json.Marshal(v)
	return verdict{canon: canon, accept: v.Accept, samples: v.SamplesA + v.SamplesB,
		partition: v.PartitionSamples, test: v.TestSamples}, err
}

// withoutElapsed returns a JSON object body with its top-level
// elapsed_ms removed and every other field byte-for-byte as sent: two
// answers to the same request must be equal in this form.
func withoutElapsed(body []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	delete(m, "elapsed_ms")
	return json.Marshal(m)
}
