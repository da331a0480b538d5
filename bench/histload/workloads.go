package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/histtest/client"
	"repro/internal/benchhot"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

// workload is one traffic mix: the inputs it generates from the seed,
// the server state it sets up, the two client connections' loops, and
// the same verdict requests run in-process.
type workload interface {
	// setup prepares a freshly started histd for the traffic (sampler
	// registrations, or a stream created and prefilled). It is timed as
	// part of setup_s, so it only sends bodies encoded beforehand.
	setup(ctx context.Context, hc *http.Client, base string) error
	// prepare pre-encodes the traffic against the state setup created.
	prepare() error
	// lanes returns the client connections' closed loops.
	lanes() [clients]lane
	// request returns verdict request i.
	request(i int) request
	// parse reduces a served 2xx answer to a verdict request.
	parse(body []byte) (verdict, error)
	// direct runs verdict request i in-process, timing each step.
	direct(ctx context.Context, i int) (verdict, stepTimes, error)
	// gateRequests is how many leading requests the gate serves and runs.
	gateRequests() int
	// tester names the module whose tester the verdicts run: core or
	// closeness.
	tester() string
	// extraLayers measures the layer metrics only this workload
	// exercises (nil when there are none).
	extraLayers() (map[string]float64, error)
}

// workloadDef names a workload, says why the benchmark runs it, and
// generates its inputs from a seed.
type workloadDef struct {
	name, why string
	make      func(seed uint64) (workload, error)
}

// workloadDefs is every workload, in the order a full run visits them.
// The why lines are also the ones in BENCHMARK.json.
var workloadDefs = []workloadDef{
	{"adk-sampler", "paper's Algorithm 1 on registered samplers: sieve and exact draws dominate, HTTP is noise", newADKSampler},
	{"cdkl-inline", "CDKL'22 closed form on inline 1024-bucket specs: no sieve, a spec resolved per request", newCDKLInline},
	{"closeness-replay", "DKN'17 closeness vs a 16384-sample dataset: decode, resolve and HTTP dominate, core unused", newClosenessReplay},
	{"stream-mixed", "binary ingest beside back-to-back tests on a reference and a comb stream: writes contend with reads", newStreamMixed},
}

// Traffic labels: requests alternate between the reference histogram
// (even i) and its comb (odd i). The two take different paths through a
// tester: on adk-sampler a comb rejects in the sieve's heavy pass in
// ~55 ms, while a reference runs every stage and accepts in ~175 ms. A
// median over both falls in the gap between the two, so latency is
// reported per label as well.
var labels = [2]string{"reference", "comb"}

func labelOf(i int) int { return i % 2 }

// histK and histEps are the tester parameters of the three workloads
// over 8-histograms.
const (
	histK   = 8
	histEps = 0.8
)

// requestRNG returns request i's private randomness under the workload
// seed: request i is the same in every run with the same seed.
func requestRNG(seed uint64, i int) *rng.RNG {
	return rng.New(seed + uint64(i+1)*0x9e3779b97f4a7c15)
}

// Pool sizes: how many distinct verdict bodies a workload pre-encodes.
// Request i sends body i mod pool, so a long run repeats the first
// requests exactly; the sizes are even, so body i mod pool has request
// i's label. The adk-sampler and stream-mixed pools hold more requests
// than a 20 s run sends; the cdkl-inline (13-19 KB) and closeness-replay
// (95 KB) bodies are too large for that.
const (
	adkPool       = 1024
	cdklPool      = 512
	closenessPool = 256
	streamPool    = 1024
	framePool     = 64
)

// verdictLanes returns two lanes taking turns through one request
// sequence, each answer parsed by parse.
func verdictLanes(w workload) [clients]lane {
	seq := new(atomic.Int64)
	l := lane{verdicts: true, seq: seq, next: w.request, check: func(i int, body []byte) (observation, error) {
		v, err := w.parse(body)
		return observation{label: labels[labelOf(i)], accept: v.accept, samples: v.samples, partition: v.partition, test: v.test}, err
	}}
	return [clients]lane{l, l}
}

// registerSampler registers a pre-encoded spec and returns its ID.
func registerSampler(ctx context.Context, hc *http.Client, base string, body []byte) (string, error) {
	status, resp, err := postJSON(ctx, hc, base, "/v1/samplers", body)
	if err != nil {
		return "", fmt.Errorf("registering a sampler: %w", err)
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("registering a sampler: status %d: %s", status, resp)
	}
	var rr client.RegisterResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		return "", fmt.Errorf("registering a sampler: %w", err)
	}
	return rr.ID, nil
}

// recoverRun turns a panic inside a direct run (a replay running dry)
// into an error, as the server turns it into a 422.
func recoverRun(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("run panicked: %v", r)
	}
}

// testWorkload is /v1/test traffic alternating between a reference
// histogram and a comb of it.
type testWorkload struct {
	seed             uint64
	specs            [2]client.HistogramSpec // reference, comb
	specBodies       [2][]byte
	registered       bool // samplers registered at setup, else inline specs
	engine, strategy string
	pool             int

	ids    [2]string                  // sampler IDs on the current server
	protos map[string]*oracle.Sampler // the registered specs resolved in-process
	bodies [][]byte
	arena  *core.Arena
}

func newTestWorkload(seed uint64, ref, comb *dist.PiecewiseConstant) (*testWorkload, error) {
	w := &testWorkload{seed: seed, specs: [2]client.HistogramSpec{specOf(ref), specOf(comb)}, arena: core.NewArena()}
	for j := range w.specs {
		b, err := json.Marshal(&w.specs[j])
		if err != nil {
			return nil, err
		}
		w.specBodies[j] = b
	}
	return w, nil
}

// newADKSampler: the paper's Algorithm 1 with default settings over two
// registered samplers, n = 10⁵.
func newADKSampler(seed uint64) (workload, error) {
	ref := benchhot.EightHistogram(100_000)
	comb, _ := gen.BlockComb(ref, 64, 1)
	w, err := newTestWorkload(seed, ref, comb)
	if err != nil {
		return nil, err
	}
	w.registered, w.pool = true, adkPool
	return w, nil
}

// newCDKLInline: CDKL'22 with closed-form counts over inline 1024-bucket
// specs, n = 2²⁰.
func newCDKLInline(seed uint64) (workload, error) {
	const n = 1 << 20
	ref := dist.Flatten(benchhot.EightHistogram(n), intervals.EquiWidth(n, 1024))
	comb, _ := gen.BlockComb(ref, 512, 1)
	w, err := newTestWorkload(seed, ref, comb)
	if err != nil {
		return nil, err
	}
	w.engine, w.strategy, w.pool = "cdkl22", "closed-form", cdklPool
	return w, nil
}

func (w *testWorkload) setup(ctx context.Context, hc *http.Client, base string) error {
	if !w.registered {
		return nil
	}
	for j := range w.specBodies {
		id, err := registerSampler(ctx, hc, base, w.specBodies[j])
		if err != nil {
			return err
		}
		w.ids[j] = id
	}
	return nil
}

func (w *testWorkload) prepare() error {
	if w.registered {
		w.protos = make(map[string]*oracle.Sampler)
		for j := range w.specs {
			proto, err := buildSampler(&w.specs[j])
			if err != nil {
				return err
			}
			w.protos[w.ids[j]] = proto
		}
	}
	w.bodies = make([][]byte, w.pool)
	for i := range w.bodies {
		r := requestRNG(w.seed, i)
		req := client.TestRequest{K: histK, Eps: histEps, Seed: r.Uint64(), SamplerSeed: r.Uint64(),
			CountStrategy: w.strategy, Engine: w.engine}
		if w.registered {
			req.Sampler = w.ids[labelOf(i)]
		} else {
			req.Spec = &w.specs[labelOf(i)]
		}
		b, err := json.Marshal(&req)
		if err != nil {
			return err
		}
		w.bodies[i] = b
	}
	return nil
}

func (w *testWorkload) lanes() [clients]lane { return verdictLanes(w) }

func (w *testWorkload) request(i int) request {
	return request{method: http.MethodPost, path: "/v1/test", ctype: "application/json", body: w.bodies[i%len(w.bodies)]}
}

func (w *testWorkload) parse(body []byte) (verdict, error) { return parseTestResult(body) }

func (w *testWorkload) direct(ctx context.Context, i int) (v verdict, st stepTimes, err error) {
	defer recoverRun(&err)
	t := time.Now()
	var req client.TestRequest
	if err := decodeStrict(w.bodies[i%len(w.bodies)], &req); err != nil {
		return v, st, err
	}
	st.decode = time.Since(t)

	t = time.Now()
	proto := w.protos[req.Sampler]
	if req.Spec != nil {
		if proto, err = buildSampler(req.Spec); err != nil {
			return v, st, err
		}
	}
	o := proto.Fork(rng.New(orOne(req.SamplerSeed)))
	cfg, err := testConfig(&req)
	if err != nil {
		return v, st, err
	}
	st.resolve = time.Since(t)

	t = time.Now()
	res, err := w.arena.TestContext(ctx, o, rng.New(orOne(req.Seed)), req.K, req.Eps, cfg)
	if err != nil {
		return v, st, err
	}
	st.run = time.Since(t)
	st.samples = o.Samples()

	wire := testResult(res, o.Samples())
	if st.encode, err = timeEncode(wire); err != nil {
		return v, st, err
	}
	v, err = testVerdict(wire)
	return v, st, err
}

func (w *testWorkload) gateRequests() int                        { return 8 }
func (w *testWorkload) tester() string                           { return "core" }
func (w *testWorkload) extraLayers() (map[string]float64, error) { return nil, nil }

// closenessWorkload is /v1/closeness traffic: side A the registered
// reference sampler, side B an inline recorded dataset drawn from the
// reference or from its comb.
type closenessWorkload struct {
	seed    uint64
	ref     client.HistogramSpec
	refBody []byte
	sources [2]*oracle.Sampler // draw the side-B datasets
	proto   *oracle.Sampler    // the reference spec resolved in-process
	id      string             // its sampler ID on the current server
	bodies  [][]byte
	ct      *closeness.Tester
}

const (
	closenessN       = 100_000
	closenessDataset = 16384
	closenessReps    = 5
)

func newClosenessReplay(seed uint64) (workload, error) {
	ref := benchhot.EightHistogram(closenessN)
	comb, _ := gen.BlockComb(ref, 64, 1)
	w := &closenessWorkload{seed: seed, ref: specOf(ref), ct: closeness.NewTester(),
		sources: [2]*oracle.Sampler{oracle.NewSampler(ref, rng.New(0)), oracle.NewSampler(comb, rng.New(0))}}
	var err error
	if w.proto, err = buildSampler(&w.ref); err != nil {
		return nil, err
	}
	w.refBody, err = json.Marshal(&w.ref)
	return w, err
}

func (w *closenessWorkload) setup(ctx context.Context, hc *http.Client, base string) error {
	id, err := registerSampler(ctx, hc, base, w.refBody)
	w.id = id
	return err
}

func (w *closenessWorkload) prepare() error {
	w.bodies = make([][]byte, closenessPool)
	for i := range w.bodies {
		r := requestRNG(w.seed, i)
		req := client.ClosenessRequest{A: client.ClosenessSide{Sampler: w.id}, N: closenessN, K: histK, Eps: histEps,
			Seed: r.Uint64(), SamplerSeed: r.Uint64(), Reps: closenessReps}
		src := w.sources[labelOf(i)].Fork(r)
		req.B.Samples = make([]int, closenessDataset)
		for j := range req.B.Samples {
			req.B.Samples[j] = src.Draw()
		}
		b, err := json.Marshal(&req)
		if err != nil {
			return err
		}
		w.bodies[i] = b
	}
	return nil
}

func (w *closenessWorkload) lanes() [clients]lane { return verdictLanes(w) }

func (w *closenessWorkload) request(i int) request {
	return request{method: http.MethodPost, path: "/v1/closeness", ctype: "application/json", body: w.bodies[i%len(w.bodies)]}
}

func (w *closenessWorkload) parse(body []byte) (verdict, error) {
	var r client.ClosenessResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return verdict{}, err
	}
	return closenessVerdict(r.ClosenessVerdict)
}

func (w *closenessWorkload) direct(ctx context.Context, i int) (v verdict, st stepTimes, err error) {
	defer recoverRun(&err)
	t := time.Now()
	var req client.ClosenessRequest
	if err := decodeStrict(w.bodies[i%len(w.bodies)], &req); err != nil {
		return v, st, err
	}
	st.decode = time.Since(t)

	// Side A keeps the request's sampler seed; side B is a dataset, so
	// the server's side-B salt never applies.
	t = time.Now()
	a := w.proto.Fork(rng.New(orOne(req.SamplerSeed)))
	b, err := oracle.NewReplay(req.N, req.B.Samples)
	if err != nil {
		return v, st, err
	}
	cfg := closeness.DefaultConfig()
	cfg.Reps, cfg.Workers = req.Reps, 1
	st.resolve = time.Since(t)

	t = time.Now()
	out, err := w.ct.Run(ctx, a, b, rng.New(orOne(req.Seed)), req.K, req.Eps, cfg)
	if err != nil {
		return v, st, err
	}
	st.run = time.Since(t)
	st.samples = out.SamplesX + out.SamplesY

	wire := client.ClosenessResponse{ClosenessVerdict: client.ClosenessVerdict{
		Accept: out.Accept, N: out.N, Intervals: out.Intervals, B: out.B, M: out.M,
		Reps: out.Reps, Accepts: out.Accepts, Z: out.Z, Threshold: out.Threshold,
		PartitionSamples: out.PartitionSamples, TestSamples: out.TestSamples,
		SamplesA: out.SamplesX, SamplesB: out.SamplesY,
	}}
	if st.encode, err = timeEncode(wire); err != nil {
		return v, st, err
	}
	v, err = closenessVerdict(wire.ClosenessVerdict)
	return v, st, err
}

func (w *closenessWorkload) gateRequests() int                        { return 8 }
func (w *closenessWorkload) tester() string                           { return "closeness" }
func (w *closenessWorkload) extraLayers() (map[string]float64, error) { return nil, nil }

// streamShuffleSalt is the server's stream-snapshot shuffle salt. It is
// part of the wire contract: a direct run must seed the replay shuffle
// with seed ^ streamShuffleSalt to reproduce a served stream verdict.
const streamShuffleSalt = 0xa5a5f00d9e3779b9

const (
	streamN = 1000
	// frameEvents is the size of every binary ingest frame.
	frameEvents = 16384
	// streamEps is the stream's ε. At ε = 0.5 a test takes ~320 ms
	// beside the ingest lane, too slow for a 20 s window to hold the 100
	// tests a p90 needs; ε = 0.8 keeps the same pipeline at a third of
	// the draws.
	streamEps = 0.8
	// prefillFrames fills the window past the nominal budget of one
	// n=1000, k=4, ε=0.8 test (1.52M draws), so no test runs out of
	// events.
	prefillFrames = 128
)

// streamCombPairs is the block-pair count of the comb stream's source:
// 64 pairs over n = 1000, blocks of ~8 values.
const streamCombPairs = 64

// streamWorkload is two streams over one domain: one fed from a
// 4-histogram (the reference), one from its comb. One connection posts
// binary frames back to back, to the two streams in turn; the other
// tests the two streams back to back, in turn.
type streamWorkload struct {
	seed     uint64
	spec     client.StreamSpec // both streams'
	specBody []byte
	// Per stream, indexed by label: the binary frames posted at setup,
	// the ones the ingest lane posts, the prefill window folded
	// in-process, and window_events after the prefill.
	prefill, frames [2][][]byte
	acc             [2]*stream.Accumulator
	prefillAck      [2]int64

	ids    [2]string // stream IDs on the current server
	bodies [][]byte
	arena  *core.Arena
}

func newStreamMixed(seed uint64) (workload, error) {
	h4, err := dist.FromWeights(intervals.FromBoundaries(streamN, []int{250, 500, 750}), []float64{0.4, 0.1, 0.3, 0.2})
	if err != nil {
		return nil, err
	}
	comb, _ := gen.BlockComb(h4, streamCombPairs, 1)
	r := rng.New(seed ^ 0x5be0cd19137e2179)
	w := &streamWorkload{seed: seed, arena: core.NewArena(),
		spec: client.StreamSpec{N: streamN, K: 4, Eps: streamEps, Seed: r.Uint64()}}
	if w.specBody, err = json.Marshal(&w.spec); err != nil {
		return nil, err
	}
	vs, batch := make([]int, frameEvents), make([]int32, frameEvents)
	for j, d := range [2]*dist.PiecewiseConstant{h4, comb} {
		if w.acc[j], err = stream.NewAccumulator(stream.AccumConfig{N: streamN}); err != nil {
			return nil, err
		}
		src := oracle.NewSampler(d, r)
		for f := range prefillFrames + framePool {
			for e := range vs {
				vs[e] = src.Draw()
				batch[e] = int32(vs[e])
			}
			if f >= prefillFrames {
				w.frames[j] = append(w.frames[j], client.EncodeEventsBinary(vs))
				continue
			}
			w.prefill[j] = append(w.prefill[j], client.EncodeEventsBinary(vs))
			w.acc[j].Ingest(batch)
		}
	}
	return w, nil
}

// ackChain checks that every acknowledged ingest adds exactly its events
// to the stream's window.
type ackChain struct{ window int64 }

func (c *ackChain) add(sent int, body []byte) (int64, error) {
	var ack client.IngestResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, err
	}
	if ack.Events != int64(sent) || ack.WindowEvents != c.window+ack.Events {
		return 0, fmt.Errorf("ingest-ack: sent %d events to a window of %d, acknowledged %d events and a window of %d",
			sent, c.window, ack.Events, ack.WindowEvents)
	}
	c.window = ack.WindowEvents
	return ack.Events, nil
}

func (w *streamWorkload) setup(ctx context.Context, hc *http.Client, base string) error {
	for j := range w.ids {
		status, resp, err := postJSON(ctx, hc, base, "/v1/streams", w.specBody)
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("creating a stream: status %d, %v: %s", status, err, resp)
		}
		var info client.StreamInfo
		if err := json.Unmarshal(resp, &info); err != nil {
			return fmt.Errorf("creating a stream: %w", err)
		}
		w.ids[j] = info.ID
		var chain ackChain
		for _, f := range w.prefill[j] {
			status, resp, err := do(ctx, hc, base, w.ingest(j, f))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("prefilling a stream: status %d, %v: %s", status, err, resp)
			}
			if _, err := chain.add(frameEvents, resp); err != nil {
				return err
			}
		}
		w.prefillAck[j] = chain.window
	}
	return nil
}

// ingest posts a binary frame to stream j.
func (w *streamWorkload) ingest(j int, frame []byte) request {
	return request{method: http.MethodPost, path: "/v1/streams/" + w.ids[j] + "/events", ctype: "application/octet-stream", body: frame}
}

func (w *streamWorkload) prepare() error {
	w.bodies = make([][]byte, streamPool)
	for i := range w.bodies {
		b, err := json.Marshal(client.StreamTestRequest{Seed: requestRNG(w.seed, i).Uint64()})
		if err != nil {
			return err
		}
		w.bodies[i] = b
	}
	return nil
}

// lanes: ingest i posts to stream i mod 2, as test i tests it.
func (w *streamWorkload) lanes() [clients]lane {
	chains := [2]*ackChain{{window: w.prefillAck[0]}, {window: w.prefillAck[1]}}
	ingest := lane{seq: new(atomic.Int64),
		next: func(i int) request { return w.ingest(labelOf(i), w.frame(i)) },
		check: func(i int, body []byte) (observation, error) {
			n, err := chains[labelOf(i)].add(frameEvents, body)
			return observation{events: n}, err
		}}
	tests := lane{verdicts: true, seq: new(atomic.Int64), next: w.request,
		check: func(i int, body []byte) (observation, error) {
			v, err := w.parse(body)
			return observation{label: labels[labelOf(i)], accept: v.accept, samples: v.samples}, err
		}}
	return [clients]lane{ingest, tests}
}

// frame is ingest i's frame, for stream i mod 2.
func (w *streamWorkload) frame(i int) []byte { return w.frames[labelOf(i)][i/2%framePool] }

func (w *streamWorkload) request(i int) request {
	return request{method: http.MethodPost, path: "/v1/streams/" + w.ids[labelOf(i)] + "/test", ctype: "application/json", body: w.bodies[i%len(w.bodies)]}
}

func (w *streamWorkload) parse(body []byte) (verdict, error) {
	var r client.StreamTestResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return verdict{}, err
	}
	return streamVerdict(r)
}

func streamVerdict(r client.StreamTestResponse) (verdict, error) {
	v, err := testVerdict(r.TestResult)
	if err != nil {
		return v, err
	}
	r.ElapsedMS, r.Index = 0, 0
	v.canon, err = json.Marshal(r)
	return v, err
}

// direct runs test request i on its stream's prefill window, as the
// server does before the ingest lane starts: snapshot, replay, test.
func (w *streamWorkload) direct(ctx context.Context, i int) (v verdict, st stepTimes, err error) {
	defer recoverRun(&err)
	t := time.Now()
	var req client.StreamTestRequest
	if err := decodeStrict(w.bodies[i%len(w.bodies)], &req); err != nil {
		return v, st, err
	}
	st.decode = time.Since(t)

	t = time.Now()
	seed := req.Seed
	if seed == 0 {
		seed = w.spec.Seed
	}
	j := labelOf(i)
	counts, snap := w.acc[j].Snapshot()
	o := oracle.NewCountsReplay(counts, rng.New(seed^streamShuffleSalt))
	counts.Release()
	cfg := core.PracticalConfig()
	cfg.Workers = 1
	st.resolve = time.Since(t)

	t = time.Now()
	res, err := w.arena.TestContext(ctx, o, rng.New(seed), w.spec.K, w.spec.Eps, cfg)
	if err != nil {
		return v, st, err
	}
	st.run = time.Since(t)
	st.samples = o.Samples()

	wire := client.StreamTestResponse{TestResult: testResult(res, o.Samples()), StreamID: w.ids[j],
		Events: snap.Events, Distinct: snap.Distinct, Seed: seed}
	if st.encode, err = timeEncode(wire); err != nil {
		return v, st, err
	}
	v, err = streamVerdict(wire)
	return v, st, err
}

func (w *streamWorkload) gateRequests() int { return 2 }
func (w *streamWorkload) tester() string    { return "core" }

// extraLayers times the stream layer's public functions on the
// workload's own frames and prefill windows.
func (w *streamWorkload) extraLayers() (map[string]float64, error) {
	const reps = 64
	scratch, err := stream.NewAccumulator(stream.AccumConfig{N: streamN})
	if err != nil {
		return nil, err
	}
	var decodeNS, ingestNS []float64
	batches := make([][]int32, reps)
	for i := range reps {
		f := w.frame(i)
		t := time.Now()
		n, err := stream.DecodeBinary(bytes.NewReader(f), streamN, 0, scratch.Ingest)
		if err != nil {
			return nil, err
		}
		decodeNS = append(decodeNS, float64(time.Since(t))/float64(n))
		if _, err := stream.DecodeBinary(bytes.NewReader(f), streamN, 0, func(vs []int32) { batches[i] = append(batches[i], vs...) }); err != nil {
			return nil, err
		}
	}
	for _, b := range batches {
		t := time.Now()
		scratch.Ingest(b)
		ingestNS = append(ingestNS, float64(time.Since(t))/float64(len(b)))
	}
	var snapMS, replayMS []float64
	for i := range reps {
		t := time.Now()
		counts, _ := w.acc[labelOf(i)].Snapshot()
		snapMS = append(snapMS, ms(time.Since(t)))
		t = time.Now()
		oracle.NewCountsReplay(counts, rng.New(1))
		replayMS = append(replayMS, ms(time.Since(t)))
		counts.Release()
	}
	return map[string]float64{
		"stream.decode_ns_per_event": median(decodeNS),
		"stream.ingest_ns_per_event": median(ingestNS),
		"stream.snapshot_ms":         median(snapMS),
		"stream.replay_build_ms":     median(replayMS),
	}, nil
}
