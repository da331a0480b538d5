package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/rng"
)

// Two-sample closeness serving: POST /v1/closeness resolves a pair of
// sample sources — any mix of recorded datasets, inline specs,
// registered samplers, and live stream windows — into two oracles and
// runs the DKN'17 tester (internal/closeness) on the ordinary worker
// pool. Each side goes through resolveSource at admission, like a
// /v1/test source: malformed pairs are 4xx before they cost a queue
// slot, and everything derived here is
// deterministic, so a served verdict is bit-identical to a direct
// closeness.TestTwoSample call with the same inputs (pinned by the e2e
// suite).

// Side-B salts. The two sides of one request derive their randomness
// from the SAME request seeds; without a salt, two sides naming the same
// spec (or the request's tester seed feeding both stream shuffles) would
// draw in lockstep — twin streams that correlate the very counts the χ²
// statistic compares. Side A keeps the one-sample derivations (sampler
// seed as-is, streamShuffleSalt for stream windows) so a one-sided
// request matches /v1/test conventions; side B XORs these constants in.
// Both are part of the wire contract, as streamShuffleSalt is: a direct
// run must reproduce them to match a served verdict bit-for-bit.
const (
	closenessSamplerSaltB = 0x6c07965ad6f54d21
	closenessShuffleSaltB = 0x3c79ac492ba7b653
)

// Workloads names the request shapes the serving layer can run — the
// serve-side analogue of core.Engines(). The conformance-list gate
// (make conformance-list) diffs this registry against the Makefile and
// CI defaults, so wiring a new workload here without extending the
// conformance tier fails the PR loudly.
func Workloads() []string { return []string{"histogram", "closeness"} }

// resolveCloseness turns a wire closeness request into a runSpec over
// both sides: the scalar fields are the /v1/test ones, each side is
// resolved like a /v1/test source, and side B's seeds carry the salts.
func (s *Server) resolveCloseness(req *client.ClosenessRequest) (*runSpec, error) {
	sp, t, err := s.newRunSpec(&client.TestRequest{
		K: req.K, Eps: req.Eps, Seed: req.Seed, Scale: req.Scale, Workers: req.Workers,
		CountStrategy: req.CountStrategy, TimeoutMS: req.TimeoutMS,
	})
	if err != nil {
		return nil, err
	}
	if req.Reps < 0 {
		return nil, badReqf("reps = %d must be positive", req.Reps)
	}
	cfg := closeness.DefaultConfig().Scale(t.scale)
	cfg.Reps = cmp.Or(req.Reps, s.cfg.ClosenessReps)
	cfg.Workers, cfg.MaxSamples, cfg.CountStrategy = t.workers, t.maxSamples, t.strategy
	sp.pair = &cfg

	samplerSeed := orOne(req.SamplerSeed)
	if sp.a, err = s.resolveSource("side a: ", &req.A, req.N, samplerSeed, sp.seed^streamShuffleSalt); err != nil {
		return nil, err
	}
	if sp.b, err = s.resolveSource("side b: ", &req.B, req.N, samplerSeed^closenessSamplerSaltB, sp.seed^closenessShuffleSaltB); err != nil {
		return nil, err
	}
	n := sp.a.o.N()
	if n != sp.b.o.N() {
		return nil, badReqf("sides over different domains (%d vs %d)", n, sp.b.o.N())
	}
	if err := cfg.CheckBudget(n, req.K, req.Eps); err != nil {
		return nil, badReqf("%v", err)
	}
	return sp, nil
}

// runCloseness runs a resolved two-sample request on the worker's pooled
// Tester and converts its result to the wire form.
func runCloseness(ctx context.Context, ct *closeness.Tester, sp *runSpec) (client.TestResult, error) {
	out, err := ct.Run(ctx, sp.a.o, sp.b.o, rng.New(sp.seed), sp.k, sp.eps, *sp.pair)
	if err != nil {
		return client.TestResult{}, err
	}
	return client.TestResult{
		Accept:      out.Accept,
		SamplesUsed: out.SamplesX + out.SamplesY,
		Closeness: &client.ClosenessVerdict{
			Accept:           out.Accept,
			N:                out.N,
			Intervals:        out.Intervals,
			B:                out.B,
			M:                out.M,
			Reps:             out.Reps,
			Accepts:          out.Accepts,
			Z:                out.Z,
			Threshold:        out.Threshold,
			PartitionSamples: out.PartitionSamples,
			TestSamples:      out.TestSamples,
			SamplesA:         out.SamplesX,
			SamplesB:         out.SamplesY,
		},
	}, nil
}

// handleCloseness serves POST /v1/closeness: resolve the pair, admit,
// wait for the worker, reply.
func (s *Server) handleCloseness(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	var req client.ClosenessRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.failRequest(w, err)
		return
	}
	spec, err := s.resolveCloseness(&req)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	j, err := s.submit(r.Context(), spec, 0)
	if err != nil {
		s.writeError(w, admitErr(err), err)
		return
	}
	res := await(j)
	// The verdict is not folded into a stream side's last-test record:
	// that record describes the stream's own one-sample test.
	if res.Err != "" {
		s.writeError(w, res.Code, errors.New(res.Err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(client.ClosenessResponse{
		ClosenessVerdict: *res.Closeness,
		EventsA:          spec.a.window.Events,
		EventsB:          spec.b.window.Events,
		ElapsedMS:        res.ElapsedMS,
	})
}
