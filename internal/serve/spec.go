package serve

import (
	"cmp"
	"fmt"
	"sync"
	"time"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

// runSpec is a request resolved into the concrete inputs of one tester
// run. Resolution happens on the HTTP goroutine at admission time, so
// malformed requests are rejected with 4xx before they cost a queue
// slot; everything here is deterministic, making a served run
// bit-identical to a direct call with the same inputs.
type runSpec struct {
	k       int
	eps     float64
	seed    uint64
	timeout time.Duration

	// a is the run's sample source. pair, when non-nil, marks a
	// two-sample closeness run over a and b, which runs under pair
	// instead of cfg. See closeness.go.
	a, b source
	cfg  core.Config
	pair *closeness.Config
}

// source is one resolved sample source: the oracle a run draws from,
// plus the sizes error messages and stream responses report.
type source struct {
	o oracle.Oracle
	// size is the recorded sample count of a dataset or window (0 for
	// samplers), the context of a replay-exhausted error.
	size int
	// window describes the snapshot a stream source replays.
	window stream.SnapshotStats
}

// exhausted explains a replay source that ran dry mid-run.
func (sp *runSpec) exhausted() error {
	if sp.pair == nil {
		return fmt.Errorf("dataset of %d samples exhausted after %d draws; provide more data or lower scale", sp.a.size, sp.a.o.Samples())
	}
	return fmt.Errorf("a side's recorded window (%d/%d samples) exhausted after %d+%d draws; ingest more data or lower scale",
		sp.a.size, sp.b.size, sp.a.o.Samples(), sp.b.o.Samples())
}

// badRequest is a resolution failure carrying its wire error code.
type badRequest struct {
	code string
	msg  string
}

func (e *badRequest) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return &badRequest{code: client.ErrCodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

// orOne maps a zero seed to 1, the histtest.Options.Seed semantics every
// wire seed follows.
func orOne(seed uint64) uint64 { return max(seed, 1) }

// tuning holds what every tester config takes from a request and the
// deployment alike; newRunSpec resolves it once per request.
type tuning struct {
	scale      float64
	workers    int
	maxSamples int64
	strategy   oracle.CountStrategy
}

// newRunSpec validates the scalar fields every tester request carries —
// /v1/closeness and stream tests present theirs as a TestRequest — and
// applies the serving rules all endpoints share. It runs before any
// source is resolved, so a malformed request costs no alias-table build
// and no window snapshot.
func (s *Server) newRunSpec(req *client.TestRequest) (*runSpec, tuning, error) {
	var t tuning
	switch {
	case req.K < 1:
		return nil, t, badReqf("k = %d must be positive", req.K)
	case req.Eps <= 0 || req.Eps > 1:
		return nil, t, badReqf("eps = %v must be in (0, 1]", req.Eps)
	case req.Scale < 0:
		return nil, t, badReqf("scale = %v must not be negative", req.Scale)
	case req.TimeoutMS < 0:
		return nil, t, badReqf("timeout_ms = %d must not be negative", req.TimeoutMS)
	}
	cs, err := oracle.ParseCountStrategy(req.CountStrategy)
	if err != nil {
		return nil, t, badReqf("%v", err)
	}
	t = tuning{
		scale: cmp.Or(req.Scale, 1),
		// Workers is a pure throughput knob, so clamping the within-run
		// fan-out to the deployment's cap never changes a verdict:
		// clamped runs still match direct ones.
		workers:    max(1, min(req.Workers, s.cfg.SieveWorkers)),
		maxSamples: s.cfg.MaxSamplesPerRun,
		strategy:   cs,
	}
	sp := &runSpec{k: req.K, eps: req.Eps, seed: orOne(req.Seed), timeout: s.cfg.DefaultTimeout}
	// The deadline counts from admission (see enqueue): the request's
	// own, clamped to MaxTimeout, or else the server default, which is
	// no deadline at all when negative.
	if req.TimeoutMS > 0 {
		sp.timeout = min(time.Duration(req.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	return sp, t, nil
}

// resolve turns a one-sample tester request into a runSpec. open
// resolves its sample source once the scalars are valid, given the
// shuffle seed a stream window replays under: /v1/test and
// /v1/test/stream open the source the request names (testSource), a
// stream test the window of the stream it holds.
func (s *Server) resolve(req *client.TestRequest, open func(shuffleSeed uint64) (source, error)) (*runSpec, error) {
	sp, t, err := s.newRunSpec(req)
	if err != nil {
		return nil, err
	}
	// An unknown engine is a 400 here, never a silent fallback to the
	// default (core.TestContext would refuse it too, but only after
	// admission).
	if _, err := core.EngineFor(req.Engine); err != nil {
		return nil, badReqf("%v", err)
	}
	cfg := core.PracticalConfig()
	if req.Paper {
		cfg = core.PaperConfig()
	}
	cfg = cfg.Scale(t.scale)
	// A closed-form request over a replay falls back to the exact path
	// inside the tester (oracle.EffectiveStrategy): no error, same law.
	cfg.Workers, cfg.MaxSamples, cfg.CountStrategy, cfg.Engine = t.workers, t.maxSamples, t.strategy, req.Engine
	sp.cfg = cfg

	if sp.a, err = open(sp.seed ^ streamShuffleSalt); err != nil {
		return nil, err
	}
	if err := core.CheckBudget(sp.a.o.N(), req.K, req.Eps, cfg); err != nil {
		return nil, badReqf("%v", err)
	}
	return sp, nil
}

// testSource opens the sample source a /v1/test request names.
func (s *Server) testSource(req *client.TestRequest) func(uint64) (source, error) {
	return func(shuffleSeed uint64) (source, error) {
		src := client.ClosenessSide{Samples: req.Samples, Spec: req.Spec, Sampler: req.Sampler}
		return s.resolveSource("", &src, req.N, orOne(req.SamplerSeed), shuffleSeed)
	}
}

// resolveSource is the one place a wire sample source becomes an
// oracle. src names exactly one of four kinds:
//
//	samples  a recorded dataset, replayed without replacement (n required)
//	spec     an inline histogram: a fresh alias table forked with samplerSeed
//	sampler  a registered spec: its shared alias table forked with samplerSeed
//	stream   a live window, snapshotted and replayed in an order drawn from shuffleSeed
//
// A non-zero n must equal the source's domain. label ("side a: ")
// prefixes the error messages of a request that names two sources.
func (s *Server) resolveSource(label string, src *client.ClosenessSide, n int, samplerSeed, shuffleSeed uint64) (source, error) {
	fail := func(code, format string, args ...any) (source, error) {
		return source{}, &badRequest{code: code, msg: label + fmt.Sprintf(format, args...)}
	}
	kinds := 0
	for _, set := range [...]bool{len(src.Samples) > 0, src.Spec != nil, src.Sampler != "", src.Stream != ""} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return fail(client.ErrCodeBadRequest, "exactly one sample source must be set (got %d)", kinds)
	}

	var proto *oracle.Sampler
	name := "the spec"
	switch {
	case len(src.Samples) > 0:
		if n < 1 {
			return fail(client.ErrCodeBadRequest, "n = %d must be positive with a samples dataset", n)
		}
		rep, err := oracle.NewReplay(n, src.Samples)
		if err != nil {
			return fail(client.ErrCodeBadRequest, "invalid dataset: %v", err)
		}
		return source{o: rep, size: len(src.Samples)}, nil
	case src.Spec != nil:
		var err error
		if proto, err = buildSampler(src.Spec); err != nil {
			return source{}, fmt.Errorf("%s%w", label, err)
		}
	case src.Sampler != "":
		var ok bool
		if proto, ok = s.samplers.get(src.Sampler); !ok {
			return fail(client.ErrCodeUnknownSampler, "sampler %q is not registered", src.Sampler)
		}
		name = fmt.Sprintf("sampler %q", src.Sampler)
	default:
		st, ok := s.streams.Get(src.Stream)
		if !ok {
			return fail(client.ErrCodeNotFound, "stream %q is not registered", src.Stream)
		}
		if n != 0 && n != st.Acc.N() {
			return fail(client.ErrCodeBadRequest, "n = %d does not match stream %q's domain %d", n, src.Stream, st.Acc.N())
		}
		return streamSource(label, st, shuffleSeed)
	}
	if n != 0 && n != proto.N() {
		return fail(client.ErrCodeBadRequest, "n = %d does not match %s's domain %d", n, name, proto.N())
	}
	return source{o: proto.Fork(rng.New(samplerSeed))}, nil
}

// streamSource snapshots st's live window into a replay shuffled by
// shuffleSeed. It reads the stream its caller holds without looking it
// up, so a janitor re-test leaves the stream's idle clock alone.
func streamSource(label string, st *stream.Stream, shuffleSeed uint64) (source, error) {
	// NewCountsReplay copies what it needs, so the pooled snapshot goes
	// back to the pool on return.
	counts, snap := st.Acc.Snapshot()
	defer counts.Release()
	if snap.Events == 0 {
		return source{}, &badRequest{code: client.ErrCodeNeedMoreSamples, msg: fmt.Sprintf("%sstream %q's window is empty; ingest events before testing", label, st.ID)}
	}
	return source{o: oracle.NewCountsReplay(counts, rng.New(shuffleSeed)), size: int(snap.Events), window: snap}, nil
}

// buildSampler validates a wire spec and builds the alias-table sampler
// prototype over it. The prototype's RNG is never drawn from; every run
// forks it with the request's sampler seed, so concurrent requests share
// the immutable alias tables (the same prototype-sharing scheme as
// histtest.Histogram.Sampler).
func buildSampler(spec *client.HistogramSpec) (*oracle.Sampler, error) {
	if spec.N < 1 {
		return nil, badReqf("spec: domain size %d must be positive", spec.N)
	}
	for i, c := range spec.Cuts {
		if c <= 0 || c >= spec.N || (i > 0 && c <= spec.Cuts[i-1]) {
			return nil, badReqf("spec: cuts must be ascending interior points of (0, %d)", spec.N)
		}
	}
	p := intervals.FromBoundaries(spec.N, spec.Cuts)
	if p.Count() != len(spec.Masses) {
		return nil, badReqf("spec: %d masses for %d buckets", len(spec.Masses), p.Count())
	}
	total := 0.0
	for _, m := range spec.Masses {
		if m < 0 {
			return nil, badReqf("spec: negative bucket mass %v", m)
		}
		total += m
	}
	if total <= 0 {
		return nil, badReqf("spec: zero total mass")
	}
	norm := make([]float64, len(spec.Masses))
	for i, m := range spec.Masses {
		norm[i] = m / total
	}
	pc, err := dist.FromWeights(p, norm)
	if err != nil {
		return nil, badReqf("spec: %v", err)
	}
	return oracle.NewSampler(pc, rng.New(0)), nil
}

// samplerTable is the registered-sampler registry: spec → immutable
// alias-table prototype, forked per request.
type samplerTable struct {
	mu    sync.Mutex
	next  int
	limit int
	byID  map[string]*oracle.Sampler
}

func (t *samplerTable) init(limit int) {
	t.byID = make(map[string]*oracle.Sampler)
	t.limit = limit
}

// register stores a validated prototype and returns its ID.
func (t *samplerTable) register(proto *oracle.Sampler) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.byID) >= t.limit {
		return "", badReqf("sampler table full (%d registered)", len(t.byID))
	}
	t.next++
	id := fmt.Sprintf("s%d", t.next)
	t.byID[id] = proto
	return id, nil
}

func (t *samplerTable) get(id string) (*oracle.Sampler, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.byID[id]
	return p, ok
}
