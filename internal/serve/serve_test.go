package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/histtest/client"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/serve"
)

// fastSpec is a sub-second workload (≈170 ms serial); slowSpec takes
// several seconds serial, long enough to observe queue saturation and to
// prove that cancellation cuts a run short. Both are genuine
// k-histograms so runs accept deterministically.
func fastSpec() client.HistogramSpec {
	return client.HistogramSpec{N: 100_000, Cuts: []int{25_000, 50_000}, Masses: []float64{0.5, 0.2, 0.3}}
}

func slowSpec() client.HistogramSpec {
	return client.HistogramSpec{N: 400_000, Cuts: []int{100_000, 200_000}, Masses: []float64{0.5, 0.2, 0.3}}
}

// fastReq is the request the fast tests use: eps large enough that the
// budgets stay small.
func fastReq() client.TestRequest {
	return client.TestRequest{Spec: ptr(fastSpec()), K: 8, Eps: 0.8, Seed: 11, SamplerSeed: 7}
}

func ptr[T any](v T) *T { return &v }

// newTestServer starts a Server (draining it at cleanup) behind an
// httptest front end and returns the typed client pointed at it.
func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s := serve.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	c := client.New(hs.URL)
	c.BaseBackoff = 50 * time.Millisecond
	c.MaxBackoff = 250 * time.Millisecond
	return s, hs, c
}

// directSpecRun reproduces server-side execution for a spec request:
// same prototype construction, same fork seed, same tester seed and
// config resolution.
func directSpecRun(t *testing.T, req client.TestRequest) (*core.Result, int64) {
	t.Helper()
	spec := req.Spec
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
		t.Fatalf("building distribution: %v", err)
	}
	samplerSeed := req.SamplerSeed
	if samplerSeed == 0 {
		samplerSeed = 1
	}
	o := oracle.NewSampler(pc, rng.New(0)).Fork(rng.New(samplerSeed))
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	cfg := core.PracticalConfig()
	if req.Scale > 0 && req.Scale != 1 {
		cfg = cfg.Scale(req.Scale)
	}
	cfg.Workers = 1
	cs, err := oracle.ParseCountStrategy(req.CountStrategy)
	if err != nil {
		t.Fatalf("parsing count strategy: %v", err)
	}
	cfg.CountStrategy = cs
	cfg.Engine = req.Engine
	res, err := core.Test(o, rng.New(seed), req.K, req.Eps, cfg)
	if err != nil {
		t.Fatalf("direct run failed: %v", err)
	}
	return res, o.Samples()
}

// wireTrace converts a core.Trace the way the server does.
func wireTrace(tr core.Trace) *client.Trace {
	return &client.Trace{
		N: tr.N, K: tr.K, B: tr.B, SieveRoundsRun: tr.SieveRoundsRun,
		PartitionSamples: tr.PartitionSamples, LearnSamples: tr.LearnSamples,
		SieveSamples: tr.SieveSamples, TestSamples: tr.TestSamples,
		RemovedHeavy: tr.RemovedHeavy, HeavySingletons: tr.HeavySingletons,
		RemovedRounds: tr.RemovedRounds, RemovedMass: tr.RemovedMass,
		CheckRelaxed: tr.CheckRelaxed, FinalZ: tr.FinalZ, FinalThresh: tr.FinalThresh,
		RejectStage: tr.RejectStage, RejectReason: tr.RejectReason,
	}
}

func assertBitIdentical(t *testing.T, got *client.TestResult, want *core.Result, wantSamples int64) {
	t.Helper()
	if got.Err != "" {
		t.Fatalf("served run failed: %s (%s)", got.Err, got.Code)
	}
	if got.Accept != want.Accept {
		t.Fatalf("served accept = %v, direct = %v", got.Accept, want.Accept)
	}
	if got.SamplesUsed != wantSamples {
		t.Fatalf("served samples = %d, direct = %d", got.SamplesUsed, wantSamples)
	}
	wantTr := wireTrace(want.Trace)
	if got.Trace == nil {
		t.Fatalf("served result carries no trace")
	}
	if *got.Trace != *wantTr {
		t.Fatalf("served trace differs from direct run:\n  served: %+v\n  direct: %+v", *got.Trace, *wantTr)
	}
}

// TestServedBitIdenticalToDirectSpec is acceptance criterion (a) for the
// sampler-spec path: the full wire Trace — final statistics included —
// must match a direct core.Test call bit for bit, across seeds and
// within-request worker counts.
func TestServedBitIdenticalToDirectSpec(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 2, SieveWorkers: 4})
	for _, mut := range []func(*client.TestRequest){
		func(r *client.TestRequest) {},
		func(r *client.TestRequest) { r.Seed = 99 },
		func(r *client.TestRequest) { r.SamplerSeed = 3; r.Eps = 0.7 },
		func(r *client.TestRequest) { r.Workers = 4 }, // fan-out must not change the verdict
		func(r *client.TestRequest) { r.CountStrategy = "exact" },
		func(r *client.TestRequest) { r.CountStrategy = "closed-form" },
		func(r *client.TestRequest) { r.CountStrategy = "closed-form"; r.Workers = 4 },
		func(r *client.TestRequest) { r.Engine = "adk" }, // explicit default engine
		func(r *client.TestRequest) { r.Engine = "cdkl22" },
		func(r *client.TestRequest) { r.Engine = "cdkl22"; r.Seed = 99 },
		func(r *client.TestRequest) { r.Engine = "cdkl22"; r.Workers = 4 }, // trivially worker-independent
		func(r *client.TestRequest) { r.Engine = "cdkl22"; r.CountStrategy = "closed-form" },
	} {
		req := fastReq()
		mut(&req)
		res, err := c.Test(context.Background(), req)
		if err != nil {
			t.Fatalf("served request failed: %v", err)
		}
		direct, directSamples := directSpecRun(t, req)
		assertBitIdentical(t, res, direct, directSamples)
	}
}

// TestServedBitIdenticalToDirectReplay is criterion (a) for the
// recorded-dataset path.
func TestServedBitIdenticalToDirectReplay(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 1})

	// A dataset big enough for the budgets at n=4096, k=4, eps=0.5.
	n, k, eps := 4096, 4, 0.5
	cfg := core.PracticalConfig()
	need := core.ExpectedSamples(n, k, eps, cfg) * 3 / 2
	src := rng.New(42)
	data := make([]int, need)
	for i := range data {
		data[i] = src.Intn(n / 4) // uniform over the first quarter: a 2-histogram
	}

	req := client.TestRequest{Samples: data, N: n, K: k, Eps: eps, Seed: 5}
	res, err := c.Test(context.Background(), req)
	if err != nil {
		t.Fatalf("served request failed: %v", err)
	}

	rep, err := oracle.NewReplay(n, data)
	if err != nil {
		t.Fatalf("building replay: %v", err)
	}
	dcfg := cfg
	dcfg.Workers = 1
	direct, err := core.Test(rep, rng.New(5), k, eps, dcfg)
	if err != nil {
		t.Fatalf("direct run failed: %v", err)
	}
	assertBitIdentical(t, res, direct, rep.Samples())
}

// TestRegisteredSamplerMatchesInline: a run referencing a registered
// spec is bit-identical to the same run with the spec inline (the
// registry only changes where the alias tables live).
func TestRegisteredSamplerMatchesInline(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 2})
	ctx := context.Background()

	reg, err := c.RegisterSampler(ctx, fastSpec())
	if err != nil {
		t.Fatalf("registering sampler: %v", err)
	}
	if reg.ID == "" || reg.N != fastSpec().N {
		t.Fatalf("bad register response: %+v", reg)
	}

	inline := fastReq()
	byID := inline
	byID.Spec = nil
	byID.Sampler = reg.ID

	resInline, err := c.Test(ctx, inline)
	if err != nil {
		t.Fatalf("inline request failed: %v", err)
	}
	resByID, err := c.Test(ctx, byID)
	if err != nil {
		t.Fatalf("registered request failed: %v", err)
	}
	if *resInline.Trace != *resByID.Trace || resInline.SamplesUsed != resByID.SamplesUsed {
		t.Fatalf("registered-sampler run differs from inline:\n  inline: %+v\n  by-id:  %+v", resInline, resByID)
	}
}

// TestCancellationReleasesPooledCounts is acceptance criterion (b): a
// run cut off by its deadline returns within one sieve round (far below
// the full runtime) and the pool counters balance — every pooled Counts
// the cancelled run acquired was released.
func TestCancellationReleasesPooledCounts(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 1})

	before := oracle.PoolStatsSnapshot()
	start := time.Now()
	req := client.TestRequest{Spec: ptr(slowSpec()), K: 8, Eps: 0.3, TimeoutMS: 150}
	_, err := c.Test(context.Background(), req)
	elapsed := time.Since(start)

	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("expected an APIError, got %v", err)
	}
	if apiErr.Code != client.ErrCodeCanceled || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("expected canceled/504, got %s/%d", apiErr.Code, apiErr.Status)
	}
	// The full workload runs ≈2.6 s serial (see calibration in the sieve
	// batch sizing); a deadline at 150 ms must surface within one sieve
	// batch of the cutoff, comfortably under half the full runtime.
	if elapsed > raceScale*1300*time.Millisecond {
		t.Fatalf("cancelled run took %s; cancellation did not cut the run short", elapsed)
	}
	// The HTTP response is written only after the worker finished the
	// run, so the pool deltas are settled: balance proves the cancelled
	// run retained no pooled Counts.
	after := oracle.PoolStatsSnapshot()
	acq := after.Acquires - before.Acquires
	rel := after.Releases - before.Releases
	if acq != rel {
		t.Fatalf("pool counters unbalanced after cancellation: %d acquires vs %d releases", acq, rel)
	}
	if acq == 0 {
		t.Fatalf("cancelled run drew no pooled batches; the workload never reached the sieve")
	}
}

// TestClientDisconnectCancelsRun: closing the client connection cancels
// the run server-side (criterion (b), client-abandonment flavor). The
// pool must settle balanced once the worker notices.
func TestClientDisconnectCancelsRun(t *testing.T) {
	s, hs, _ := newTestServer(t, serve.Config{Workers: 1})

	before := oracle.PoolStatsSnapshot()
	body, _ := json.Marshal(client.TestRequest{Spec: ptr(slowSpec()), K: 8, Eps: 0.3})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	httpReq, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/test", strings.NewReader(string(body)))
	httpReq.Header.Set("Content-Type", "application/json")
	_, err := http.DefaultClient.Do(httpReq)
	if err == nil {
		t.Fatalf("expected the client-side deadline to abort the request")
	}

	// Drain waits for the worker to finish the cancelled run, so after
	// it returns the pool deltas are settled.
	dctx, dcancel := context.WithTimeout(context.Background(), raceScale*10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
	after := oracle.PoolStatsSnapshot()
	if acq, rel := after.Acquires-before.Acquires, after.Releases-before.Releases; acq != rel {
		t.Fatalf("pool counters unbalanced after disconnect: %d acquires vs %d releases", acq, rel)
	}
}

// TestQueueSaturation is acceptance criterion (c): with one worker and a
// one-deep queue, a third concurrent request is pushed back with 429 +
// Retry-After, and the typed client's backoff rides out the saturation
// and completes once the pool frees up.
func TestQueueSaturation(t *testing.T) {
	// The per-request deadline starts at admission, so a retry that lands
	// in the queue spends its budget waiting behind the slow occupants —
	// scale the deadline with the occupants' race-detector slowdown.
	_, hs, c := newTestServer(t, serve.Config{
		Workers: 1, QueueDepth: 1, RetryAfter: time.Second,
		DefaultTimeout: raceScale * 30 * time.Second,
	})

	slow := client.TestRequest{Spec: ptr(fastSpec()), K: 8, Eps: 0.3} // ≈1.2 s serial
	post := func() (*http.Response, error) {
		body, _ := json.Marshal(slow)
		return http.Post(hs.URL+"/v1/test", "application/json", strings.NewReader(string(body)))
	}

	// Occupy the worker and the queue slot.
	var wg sync.WaitGroup
	results := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := post()
			if err != nil {
				t.Errorf("background request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			results[i] = resp.StatusCode
		}(i)
		// Give request i time to be admitted before the next submission,
		// so worker + queue are deterministically occupied.
		time.Sleep(150 * time.Millisecond)
	}

	// The third request must be pushed back immediately.
	resp, err := post()
	if err != nil {
		t.Fatalf("saturating request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 under saturation, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("expected Retry-After: 1, got %q", ra)
	}

	// The typed client retries through the saturation and succeeds once
	// the two occupants finish (the occupants themselves slow down under
	// the race detector, so the retry budget scales too).
	c.MaxRetries = 30 * raceScale
	res, err := c.Test(context.Background(), slow)
	if err != nil {
		t.Fatalf("client did not recover from saturation: %v", err)
	}
	if res.Err != "" || !res.Accept {
		t.Fatalf("recovered request returned a bad verdict: %+v", res)
	}
	wg.Wait()
	for i, code := range results {
		if code != http.StatusOK {
			t.Fatalf("background request %d finished with %d", i, code)
		}
	}
}

// TestSaturatedQueueHonorsDeadline: the per-request deadline starts at
// admission and is honored end to end — a request whose deadline expires
// while it is still WAITING in the queue is answered 504 at the
// deadline, not after the worker eventually dequeues it. Before the fix
// the deadline clock only started when a worker picked the job up, so
// queue wait silently extended the budget past what the client asked for.
func TestSaturatedQueueHonorsDeadline(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})

	// Occupy the single worker with a run that takes seconds.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = c.Test(context.Background(), client.TestRequest{Spec: ptr(slowSpec()), K: 8, Eps: 0.3})
	}()
	time.Sleep(300 * time.Millisecond) // the occupant is on the worker now

	// This request is admitted into the queue but cannot reach the worker
	// until the occupant finishes — far beyond its own 200 ms deadline.
	start := time.Now()
	_, err := c.Test(context.Background(), client.TestRequest{Spec: ptr(fastSpec()), K: 8, Eps: 0.8, TimeoutMS: 200})
	elapsed := time.Since(start)

	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("expected an APIError, got %v", err)
	}
	if apiErr.Code != client.ErrCodeCanceled || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("expected canceled/504, got %s/%d", apiErr.Code, apiErr.Status)
	}
	// The occupant holds the worker for seconds; being answered anywhere
	// near the 200 ms deadline proves the response did not wait for the
	// dequeue.
	if elapsed > raceScale*1200*time.Millisecond {
		t.Fatalf("queued request answered after %s; deadline not honored end to end", elapsed)
	}
	wg.Wait()
}

// TestDrain: draining flips /healthz and admission to 503 (with a
// Retry-After hint) while the in-flight run completes, and Drain returns
// cleanly once the pool idles.
func TestDrain(t *testing.T) {
	s, hs, c := newTestServer(t, serve.Config{Workers: 1, RetryAfter: 2 * time.Second})

	// Park one run in the pool.
	type outcome struct {
		res *client.TestResult
		err error
	}
	inFlight := make(chan outcome, 1)
	go func() {
		res, err := c.Test(context.Background(), client.TestRequest{Spec: ptr(fastSpec()), K: 8, Eps: 0.3})
		inFlight <- outcome{res, err}
	}()
	time.Sleep(200 * time.Millisecond) // let it be admitted

	s.StartDraining()

	if err := c.Health(context.Background()); err == nil {
		t.Fatalf("healthz still healthy while draining")
	} else if apiErr, ok := err.(*client.APIError); !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 from healthz, got %v", err)
	}

	body, _ := json.Marshal(fastReq())
	resp, err := http.Post(hs.URL+"/v1/test", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("post while draining: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expected 503 while draining, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("expected Retry-After: 2 while draining, got %q", ra)
	}

	// The in-flight run must finish normally under the drain.
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-inFlight
	if out.err != nil {
		t.Fatalf("in-flight run failed under drain: %v", out.err)
	}
	if !out.res.Accept {
		t.Fatalf("in-flight run rejected unexpectedly: %+v", out.res)
	}
}

// TestDrainDeadlineCancelsInFlight: when the drain budget expires, the
// in-flight run is hard-cancelled through the tester's context checks
// and Drain still returns (with the deadline error).
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s, _, c := newTestServer(t, serve.Config{Workers: 1, DefaultTimeout: -1})

	done := make(chan error, 1)
	go func() {
		_, err := c.Test(context.Background(), client.TestRequest{Spec: ptr(slowSpec()), K: 8, Eps: 0.3})
		done <- err
	}()
	time.Sleep(300 * time.Millisecond) // the run is on the worker now

	dctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(dctx)
	if err == nil {
		t.Fatalf("expected the drain deadline to expire")
	}
	if waited := time.Since(start); waited > raceScale*2*time.Second {
		t.Fatalf("drain hard-stop took %s; the cancellation did not reach the run", waited)
	}
	apiErr, ok := (<-done).(*client.APIError)
	if !ok || apiErr.Code != client.ErrCodeCanceled {
		t.Fatalf("in-flight run should have been cancelled, got %v", apiErr)
	}
}

// TestStreamBatch: the streaming endpoint fans a batch across the pool
// and yields every result; per-index results are bit-identical to
// single-request runs.
func TestStreamBatch(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 4, QueueDepth: 8})
	ctx := context.Background()

	reqs := make([]client.TestRequest, 3)
	for i := range reqs {
		reqs[i] = fastReq()
		reqs[i].Seed = uint64(100 + i)
	}
	batch, err := c.TestBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(batch), len(reqs))
	}
	for i, res := range batch {
		if res.Index != i {
			t.Fatalf("results not sorted by index: %v", batch)
		}
		single, err := c.Test(ctx, reqs[i])
		if err != nil {
			t.Fatalf("single request %d failed: %v", i, err)
		}
		if *single.Trace != *res.Trace {
			t.Fatalf("batch result %d differs from single-request run", i)
		}
	}
}

// TestStreamBatchDatasetsBitIdentical: a batch of a dataset, a spec and
// a second dataset. Each result line must be bit-identical to the direct
// run of its own sub-request, so each dataset reaches the sub-request it
// was sent in.
func TestStreamBatchDatasetsBitIdentical(t *testing.T) {
	_, _, c := newTestServer(t, serve.Config{Workers: 2, QueueDepth: 8})

	// Scaled down, so each dataset is ~10⁵ samples rather than ~10⁷.
	n, k, eps, scale := 4096, 4, 0.5, 0.01
	cfg := core.PracticalConfig().Scale(scale)
	need := int(core.ExpectedSamples(n, k, eps, cfg)) * 3 / 2
	if need < 10_000 {
		t.Fatalf("datasets of %d samples, want at least 10⁴", need)
	}
	dataset := func(seed uint64, size, width int) []int {
		src := rng.New(seed)
		data := make([]int, size)
		for i := range data {
			data[i] = src.Intn(width)
		}
		return data
	}
	reqs := []client.TestRequest{
		{Samples: dataset(42, need, n/4), N: n, K: k, Eps: eps, Seed: 5, Scale: scale},
		fastReq(),
		{Samples: dataset(43, need+1000, n/2), N: n, K: k, Eps: eps, Seed: 6, Scale: scale},
	}
	batch, err := c.TestBatch(context.Background(), reqs)
	if err != nil {
		t.Fatalf("batch failed: %v", err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(batch), len(reqs))
	}
	for i, res := range batch {
		if res.Index != i {
			t.Fatalf("results not sorted by index: %v", batch)
		}
		if reqs[i].Samples == nil {
			direct, samples := directSpecRun(t, reqs[i])
			assertBitIdentical(t, &res, direct, samples)
			continue
		}
		rep, err := oracle.NewReplay(n, reqs[i].Samples)
		if err != nil {
			t.Fatalf("building replay: %v", err)
		}
		dcfg := cfg
		dcfg.Workers = 1
		direct, err := core.Test(rep, rng.New(reqs[i].Seed), k, eps, dcfg)
		if err != nil {
			t.Fatalf("direct run %d failed: %v", i, err)
		}
		assertBitIdentical(t, &res, direct, rep.Samples())
	}
}

// TestStreamBatchOverloaded: a batch larger than the queue is pushed
// back atomically with 429 — no partial admission.
func TestStreamBatchOverloaded(t *testing.T) {
	_, hs, _ := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 2})
	reqs := client.BatchRequest{Requests: []client.TestRequest{fastReq(), fastReq(), fastReq()}}
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(hs.URL+"/v1/test/stream", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("posting batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429 for an oversized batch, got %d", resp.StatusCode)
	}
}

// TestBodyOverLimitNamesTheLimit: a JSON body longer than MaxBodyBytes
// is a 400 on every JSON endpoint, and its message names the limit in
// bytes and the histd flag that raises it, not just net/http's "request
// body too large".
func TestBodyOverLimitNamesTheLimit(t *testing.T) {
	const limit = 1024
	_, hs, c := newTestServer(t, noJanitor(serve.Config{Workers: 1, MaxBodyBytes: limit}))
	info, err := c.CreateStream(context.Background(), client.StreamSpec{N: 100, K: 2, Eps: 0.5})
	if err != nil {
		t.Fatalf("creating stream: %v", err)
	}
	samples := strings.Repeat("1,", limit) + "1"
	for _, path := range []string{
		"/v1/test", "/v1/test/stream", "/v1/closeness", "/v1/samplers", "/v1/streams",
		"/v1/streams/" + info.ID + "/test",
	} {
		body := `{"samples":[` + samples + `],"n":2,"k":2,"eps":0.5}`
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var wire client.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s: decoding error body: %v", path, err)
		}
		want := "request body exceeds the 1024-byte limit set by histd -max-body"
		if resp.StatusCode != http.StatusBadRequest || wire.Code != client.ErrCodeBadRequest || !strings.Contains(wire.Error, want) {
			t.Errorf("POST %s: got %d/%s %q, want 400/%s containing %q", path, resp.StatusCode, wire.Code, wire.Error, client.ErrCodeBadRequest, want)
		}
	}
}

// TestBadRequests: the validation surface — every malformed request is
// rejected before costing a queue slot, with the right status and code.
func TestBadRequests(t *testing.T) {
	_, hs, _ := newTestServer(t, serve.Config{Workers: 1})
	cases := []struct {
		name   string
		req    client.TestRequest
		status int
		code   string
	}{
		{"no source", client.TestRequest{K: 4, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"two sources", client.TestRequest{Samples: []int{0, 1}, Spec: ptr(fastSpec()), N: 2, K: 4, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"bad k", client.TestRequest{Spec: ptr(fastSpec()), K: 0, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"bad eps", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 1.5}, 400, client.ErrCodeBadRequest},
		{"samples without n", client.TestRequest{Samples: []int{0, 1, 2}, K: 2, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"sample out of range", client.TestRequest{Samples: []int{0, 99}, N: 10, K: 2, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"unknown sampler", client.TestRequest{Sampler: "nope", K: 4, Eps: 0.5}, 404, client.ErrCodeUnknownSampler},
		{"n mismatch", client.TestRequest{Spec: ptr(fastSpec()), N: 7, K: 4, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"negative timeout", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 0.5, TimeoutMS: -1}, 400, client.ErrCodeBadRequest},
		{"dataset too small", client.TestRequest{Samples: []int{0, 1, 2, 3}, N: 64, K: 2, Eps: 0.5}, 422, client.ErrCodeNeedMoreSamples},
		{"bad count strategy", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 0.5, CountStrategy: "fast"}, 400, client.ErrCodeBadRequest},
		{"unknown engine", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 0.5, Engine: "adk2"}, 400, client.ErrCodeBadRequest},
		{"engine case-sensitive", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 0.5, Engine: "ADK"}, 400, client.ErrCodeBadRequest},
		{"negative scale", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 0.5, Scale: -1}, 400, client.ErrCodeBadRequest},
		{"over budget", client.TestRequest{Spec: &client.HistogramSpec{N: 1 << 30, Masses: []float64{1}}, K: 2, Eps: 0.01}, 400, client.ErrCodeBadRequest},
		{"vanishing eps", client.TestRequest{Spec: ptr(fastSpec()), K: 4, Eps: 1e-20}, 400, client.ErrCodeBadRequest},
		// Under the sample guard, but the check-stage DP over D̂'s ~160,000
		// pieces would ask for gigabytes: refused before any draw.
		{"check DP over the guard", client.TestRequest{Spec: &client.HistogramSpec{N: 1 << 20, Masses: []float64{1}}, K: 1024, Eps: 0.5}, 400, client.ErrCodeBadRequest},
		{"check DP over the guard cdkl22", client.TestRequest{Spec: &client.HistogramSpec{N: 1 << 20, Masses: []float64{1}}, K: 1024, Eps: 0.5, Engine: "cdkl22"}, 400, client.ErrCodeBadRequest},
		{"check DP over the guard at a small scale", client.TestRequest{Spec: &client.HistogramSpec{N: 1 << 20, Masses: []float64{1}}, K: 4096, Eps: 0.5, Scale: 0.01}, 400, client.ErrCodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(tc.req)
			resp, err := http.Post(hs.URL+"/v1/test", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			var wire client.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
				t.Fatalf("decoding error body: %v", err)
			}
			if resp.StatusCode != tc.status || wire.Code != tc.code {
				t.Fatalf("got %d/%s (%s), want %d/%s", resp.StatusCode, wire.Code, wire.Error, tc.status, tc.code)
			}
		})
	}

	// Anything but JSON whitespace after the request's value is a 400 on
	// every JSON endpoint, however valid the value before it.
	created, err := http.Post(hs.URL+"/v1/streams", "application/json", strings.NewReader(`{"n":16,"k":2,"eps":0.5}`))
	if err != nil {
		t.Fatalf("creating a stream: %v", err)
	}
	var info client.StreamInfo
	if err := json.NewDecoder(created.Body).Decode(&info); err != nil {
		t.Fatalf("decoding stream info: %v", err)
	}
	created.Body.Close()
	specBody, _ := json.Marshal(fastReq())
	dataset := `{"samples":[0,1,2,3],"n":64,"k":2,"eps":0.5}`
	batch := `{"requests":[` + string(specBody) + `]}`
	for _, tc := range []struct{ name, path, body string }{
		{"trailing garbage", "/v1/test", string(specBody) + " garbage"},
		{"second object", "/v1/test", string(specBody) + `{"k":4}`},
		{"dataset then garbage", "/v1/test", dataset + "\n]"},
		{"batch then garbage", "/v1/test/stream", batch + " x"},
		{"spec then garbage", "/v1/samplers", `{"n":16,"masses":[1]} 0`},
		{"stream spec then garbage", "/v1/streams", `{"n":16,"k":2,"eps":0.5}{}`},
		{"stream test then garbage", "/v1/streams/" + info.ID + "/test", `{} x`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("post: %v", err)
			}
			defer resp.Body.Close()
			var wire client.ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
				t.Fatalf("decoding error body: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || wire.Code != client.ErrCodeBadRequest || !strings.Contains(wire.Error, "trailing data") {
				t.Fatalf("got %d/%s (%s), want 400/%s for trailing data", resp.StatusCode, wire.Code, wire.Error, client.ErrCodeBadRequest)
			}
		})
	}

	t.Run("bad spec", func(t *testing.T) {
		body, _ := json.Marshal(client.HistogramSpec{N: 100, Cuts: []int{50, 20}, Masses: []float64{1, 1, 1}})
		resp, err := http.Post(hs.URL+"/v1/samplers", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("expected 400 for an invalid spec, got %d", resp.StatusCode)
		}
	})
}

// TestExpvarCounters: served runs move the histd.* and histtest.*
// counters on /debug/vars.
func TestExpvarCounters(t *testing.T) {
	_, hs, c := newTestServer(t, serve.Config{Workers: 1})

	readVars := func() map[string]json.RawMessage {
		resp, err := http.Get(hs.URL + "/debug/vars")
		if err != nil {
			t.Fatalf("fetching /debug/vars: %v", err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("decoding /debug/vars: %v", err)
		}
		return m
	}
	asInt := func(m map[string]json.RawMessage, key string) int64 {
		raw, ok := m[key]
		if !ok {
			t.Fatalf("expvar %q not published", key)
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("expvar %q is not an int: %s", key, raw)
		}
		return v
	}

	before := readVars()
	if _, err := c.Test(context.Background(), fastReq()); err != nil {
		t.Fatalf("request failed: %v", err)
	}
	after := readVars()

	if d := asInt(after, "histd.runs_accept") - asInt(before, "histd.runs_accept"); d != 1 {
		t.Fatalf("histd.runs_accept moved by %d, want 1", d)
	}
	if d := asInt(after, "histtest.runs_started") - asInt(before, "histtest.runs_started"); d != 1 {
		t.Fatalf("histtest.runs_started moved by %d, want 1", d)
	}
	if d := asInt(after, "histtest.samples_total") - asInt(before, "histtest.samples_total"); d <= 0 {
		t.Fatalf("histtest.samples_total did not move")
	}
}

// TestAdmittedLargeKEpsEndsInVerdict: a request admission accepts ends in
// a verdict. At k = 32, ε = 0.25 over n = 2²⁰ the learned D̂ has about
// 5000 pieces, more than the check-stage DP once took (it answered 500
// after the samples were drawn). The uniform spec is a 1-histogram, so
// both engines must accept.
func TestAdmittedLargeKEpsEndsInVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the check-stage DP over about 5000 pieces per engine")
	}
	_, _, c := newTestServer(t, serve.Config{Workers: 1, DefaultTimeout: raceScale * time.Minute, MaxTimeout: raceScale * time.Minute})
	for _, engine := range []string{"adk", "cdkl22"} {
		req := client.TestRequest{
			Spec: &client.HistogramSpec{N: 1 << 20, Masses: []float64{1}},
			K:    32, Eps: 0.25, CountStrategy: "closed-form", Engine: engine, Scale: 0.25,
		}
		res, err := c.Test(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !res.Accept {
			t.Fatalf("%s: uniform rejected at stage %s: %s", engine, res.Trace.RejectStage, res.Trace.RejectReason)
		}
	}
}
