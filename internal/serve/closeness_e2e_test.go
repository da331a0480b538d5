package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/dist"
	"repro/internal/intervals"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/serve"
)

// closeSpecA / closeSpecB are genuine 4-histograms over the same domain;
// A vs A is a same-distribution pair, A vs B is far (the bucket masses
// differ by 0.6 in TV before flattening effects).
func closeSpecA() client.HistogramSpec {
	return client.HistogramSpec{N: 4096, Cuts: []int{1024, 2048, 3072}, Masses: []float64{0.4, 0.1, 0.3, 0.2}}
}

func closeSpecB() client.HistogramSpec {
	return client.HistogramSpec{N: 4096, Cuts: []int{1024, 2048, 3072}, Masses: []float64{0.1, 0.4, 0.2, 0.3}}
}

// specDist builds the normalized distribution of a wire spec, exactly as
// the server's buildSampler does.
func specDist(t *testing.T, spec client.HistogramSpec) *dist.PiecewiseConstant {
	t.Helper()
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
	return pc
}

// directClosenessConfig resolves a wire closeness request's tester config
// the way resolveCloseness does (server defaults, scale, strategy),
// pinned to serial workers — the whole point is that the served run's
// fan-out must not matter.
func directClosenessConfig(t *testing.T, req client.ClosenessRequest) closeness.Config {
	t.Helper()
	cfg := closeness.DefaultConfig()
	if req.Reps != 0 {
		cfg.Reps = req.Reps
	}
	if req.Scale > 0 && req.Scale != 1 {
		cfg = cfg.Scale(req.Scale)
	}
	cs, err := oracle.ParseCountStrategy(req.CountStrategy)
	if err != nil {
		t.Fatalf("parsing count strategy: %v", err)
	}
	cfg.CountStrategy = cs
	cfg.Workers = 1
	return cfg
}

// closenessSeeds resolves the request's zero-default seeds.
func closenessSeeds(req client.ClosenessRequest) (seed, samplerSeed uint64) {
	seed, samplerSeed = req.Seed, req.SamplerSeed
	if seed == 0 {
		seed = 1
	}
	if samplerSeed == 0 {
		samplerSeed = 1
	}
	return seed, samplerSeed
}

func assertClosenessBitIdentical(t *testing.T, label string, got *client.ClosenessResponse, want *closeness.TwoSampleResult) {
	t.Helper()
	wire := client.ClosenessVerdict{
		Accept: want.Accept, N: want.N, Intervals: want.Intervals,
		B: want.B, M: want.M, Reps: want.Reps, Accepts: want.Accepts,
		Z: want.Z, Threshold: want.Threshold,
		PartitionSamples: want.PartitionSamples, TestSamples: want.TestSamples,
		SamplesA: want.SamplesX, SamplesB: want.SamplesY,
	}
	if got.ClosenessVerdict != wire {
		t.Fatalf("%s: served verdict differs from direct run:\n  served: %+v\n  direct: %+v", label, got.ClosenessVerdict, wire)
	}
}

// TestClosenessSpecPairBitIdentical: a served spec-pair verdict matches a
// direct in-process closeness.TestTwoSample with the server's seed
// derivations — at every requested worker count, both count strategies,
// and for both the same-distribution and the far pair.
func TestClosenessSpecPairBitIdentical(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 2, SieveWorkers: 8}))
	ctx := context.Background()

	for _, tc := range []struct {
		name       string
		b          client.HistogramSpec
		wantAccept bool
	}{
		{"same", closeSpecA(), true},
		{"far", closeSpecB(), false},
	} {
		for _, cs := range []string{"", "closed-form"} {
			req := client.ClosenessRequest{
				A: client.ClosenessSide{Spec: ptr(closeSpecA())},
				B: client.ClosenessSide{Spec: ptr(tc.b)},
				K: 4, Eps: 0.4, Seed: 11, SamplerSeed: 7,
				CountStrategy: cs,
			}
			seed, samplerSeed := closenessSeeds(req)
			oa := oracle.NewSampler(specDist(t, closeSpecA()), rng.New(0)).Fork(rng.New(samplerSeed))
			ob := oracle.NewSampler(specDist(t, tc.b), rng.New(0)).Fork(rng.New(samplerSeed ^ serve.ClosenessSamplerSaltB))
			direct, err := closeness.TestTwoSample(ctx, oa, ob, rng.New(seed), req.K, req.Eps, directClosenessConfig(t, req))
			if err != nil {
				t.Fatalf("%s/%q: direct run failed: %v", tc.name, cs, err)
			}
			if direct.Accept != tc.wantAccept {
				t.Fatalf("%s/%q: direct accept = %v, want %v (%+v)", tc.name, cs, direct.Accept, tc.wantAccept, direct)
			}
			for _, workers := range []int{0, 1, 2, 4, 8} {
				req.Workers = workers
				res, err := c.Closeness(ctx, req)
				if err != nil {
					t.Fatalf("%s/%q workers=%d: %v", tc.name, cs, workers, err)
				}
				assertClosenessBitIdentical(t, tc.name, res, direct)
				if res.EventsA != 0 || res.EventsB != 0 {
					t.Fatalf("%s: non-stream sides reported window events: %+v", tc.name, res)
				}
			}
		}
	}
}

// TestClosenessReplayPairBitIdentical: recorded-dataset pairs run the
// serial replay path; the verdict must match the direct run and be
// independent of the requested worker count.
func TestClosenessReplayPairBitIdentical(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 2, SieveWorkers: 8}))
	ctx := context.Background()

	spec := closeSpecA()
	n, k, eps := spec.N, 4, 0.4
	need := closeness.DefaultConfig().ExpectedSamples(n, k, eps) * 2
	mkData := func(seed uint64) []int {
		src := oracle.NewSampler(specDist(t, spec), rng.New(0)).Fork(rng.New(seed))
		data := make([]int, need)
		for i := range data {
			data[i] = src.Draw()
		}
		return data
	}
	dataA, dataB := mkData(101), mkData(202)

	req := client.ClosenessRequest{
		A: client.ClosenessSide{Samples: dataA},
		B: client.ClosenessSide{Samples: dataB},
		N: n, K: k, Eps: eps, Seed: 13,
	}
	seed, _ := closenessSeeds(req)
	mkReplay := func(data []int) oracle.Oracle {
		rep, err := oracle.NewReplay(n, data)
		if err != nil {
			t.Fatalf("building replay: %v", err)
		}
		return rep
	}
	direct, err := closeness.TestTwoSample(ctx, mkReplay(dataA), mkReplay(dataB), rng.New(seed), k, eps, directClosenessConfig(t, req))
	if err != nil {
		t.Fatalf("direct run failed: %v", err)
	}
	if !direct.Accept {
		t.Fatalf("same-distribution replay pair rejected: %+v", direct)
	}
	for _, workers := range []int{0, 4} {
		req.Workers = workers
		res, err := c.Closeness(ctx, req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertClosenessBitIdentical(t, "replay", res, direct)
	}
}

// TestClosenessStreamPairBitIdentical: two live stream windows, snapshot
// semantics. The direct run folds the same events into pooled Counts and
// replays with the server's documented salts: side A seed^StreamShuffleSalt
// (the one-sample convention), side B seed^ClosenessShuffleSaltB.
func TestClosenessStreamPairBitIdentical(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 2, SieveWorkers: 8}))
	ctx := context.Background()

	n, k, eps := 4096, 4, 0.4
	need := closeness.DefaultConfig().ExpectedSamples(n, k, eps) * 2
	mkEvents := func(seed uint64) []int {
		src := rng.New(seed)
		data := make([]int, need)
		for i := range data {
			data[i] = src.Intn(n / 4) // uniform over the first quarter: a 2-histogram
		}
		return data
	}
	eventsA, eventsB := mkEvents(31), mkEvents(32)

	mkStream := func(events []int) string {
		info, err := c.CreateStream(ctx, client.StreamSpec{N: n, K: k, Eps: eps})
		if err != nil {
			t.Fatalf("creating stream: %v", err)
		}
		const chunk = 8192
		for i := 0; i < len(events); i += chunk {
			if _, err := c.IngestEvents(ctx, info.ID, events[i:min(i+chunk, len(events))]); err != nil {
				t.Fatalf("ingest: %v", err)
			}
		}
		return info.ID
	}
	idA, idB := mkStream(eventsA), mkStream(eventsB)

	req := client.ClosenessRequest{
		A: client.ClosenessSide{Stream: idA},
		B: client.ClosenessSide{Stream: idB},
		K: k, Eps: eps, Seed: 17,
	}
	seed, _ := closenessSeeds(req)
	mkWindow := func(events []int, shuffleSeed uint64) oracle.Oracle {
		counts := oracle.AcquireCounts(n, len(events))
		for _, v := range events {
			counts.AddN(v, 1)
		}
		o := oracle.NewCountsReplay(counts, rng.New(shuffleSeed))
		counts.Release()
		return o
	}
	direct, err := closeness.TestTwoSample(ctx,
		mkWindow(eventsA, seed^serve.StreamShuffleSalt),
		mkWindow(eventsB, seed^serve.ClosenessShuffleSaltB),
		rng.New(seed), k, eps, directClosenessConfig(t, req))
	if err != nil {
		t.Fatalf("direct run failed: %v", err)
	}
	if !direct.Accept {
		t.Fatalf("same-distribution stream pair rejected: %+v", direct)
	}
	for _, workers := range []int{0, 4} {
		req.Workers = workers
		res, err := c.Closeness(ctx, req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertClosenessBitIdentical(t, "stream", res, direct)
		if res.EventsA != int64(len(eventsA)) || res.EventsB != int64(len(eventsB)) {
			t.Fatalf("window sizes %d/%d, want %d/%d", res.EventsA, res.EventsB, len(eventsA), len(eventsB))
		}
	}
}

// TestClosenessValidation covers the admission-time error surface: every
// malformed pair is rejected with its precise status and code, before
// costing a queue slot.
func TestClosenessValidation(t *testing.T) {
	_, hs, c := newTestServer(t, noJanitor(serve.Config{Workers: 1}))
	ctx := context.Background()

	regd, err := c.RegisterSampler(ctx, closeSpecA())
	if err != nil {
		t.Fatalf("registering sampler: %v", err)
	}
	stInfo, err := c.CreateStream(ctx, client.StreamSpec{N: 4096, K: 4, Eps: 0.4})
	if err != nil {
		t.Fatalf("creating stream: %v", err)
	}

	okA := client.ClosenessSide{Spec: ptr(closeSpecA())}
	huge := client.ClosenessSide{Spec: &client.HistogramSpec{N: 1 << 30, Masses: []float64{1}}}
	cases := []struct {
		name     string
		req      client.ClosenessRequest
		status   int
		wantCode string
	}{
		{"no sources", client.ClosenessRequest{K: 4, Eps: 0.4}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"two sources one side", client.ClosenessRequest{A: client.ClosenessSide{Spec: ptr(closeSpecA()), Sampler: regd.ID}, B: okA, K: 4, Eps: 0.4}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"bad k", client.ClosenessRequest{A: okA, B: okA, K: 0, Eps: 0.4}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"bad eps", client.ClosenessRequest{A: okA, B: okA, K: 4, Eps: 1.5}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"unknown sampler side b", client.ClosenessRequest{A: client.ClosenessSide{Sampler: regd.ID}, B: client.ClosenessSide{Sampler: "nope"}, K: 4, Eps: 0.4}, http.StatusNotFound, client.ErrCodeUnknownSampler},
		{"unknown stream", client.ClosenessRequest{A: okA, B: client.ClosenessSide{Stream: "nope"}, K: 4, Eps: 0.4}, http.StatusNotFound, client.ErrCodeNotFound},
		{"empty stream window", client.ClosenessRequest{A: okA, B: client.ClosenessSide{Stream: stInfo.ID}, K: 4, Eps: 0.4}, http.StatusUnprocessableEntity, client.ErrCodeNeedMoreSamples},
		{"mismatched domains", client.ClosenessRequest{A: okA, B: client.ClosenessSide{Spec: &client.HistogramSpec{N: 64, Masses: []float64{1}}}, K: 4, Eps: 0.4}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"dataset without n", client.ClosenessRequest{A: client.ClosenessSide{Samples: []int{1, 2, 3}}, B: okA, K: 4, Eps: 0.4}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"negative reps", client.ClosenessRequest{A: okA, B: okA, K: 4, Eps: 0.4, Reps: -2}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"negative timeout", client.ClosenessRequest{A: okA, B: okA, K: 4, Eps: 0.4, TimeoutMS: -1}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"bad count strategy", client.ClosenessRequest{A: okA, B: okA, K: 4, Eps: 0.4, CountStrategy: "psychic"}, http.StatusBadRequest, client.ErrCodeBadRequest},
		{"over budget", client.ClosenessRequest{A: huge, B: huge, K: 64, Eps: 0.001}, http.StatusBadRequest, client.ErrCodeBadRequest},
	}
	for _, tc := range cases {
		_, err := c.Closeness(ctx, tc.req)
		apiErr, ok := err.(*client.APIError)
		if !ok {
			t.Fatalf("%s: error = %v, want *APIError", tc.name, err)
		}
		if apiErr.Status != tc.status || apiErr.Code != tc.wantCode {
			t.Fatalf("%s: got %d/%s, want %d/%s (%s)", tc.name, apiErr.Status, apiErr.Code, tc.status, tc.wantCode, apiErr.Message)
		}
	}

	// Unknown wire fields are 400, never silently dropped.
	resp, err := http.Post(hs.URL+"/v1/closeness", "application/json",
		strings.NewReader(`{"a":{"sampler":"`+regd.ID+`"},"b":{"sampler":"`+regd.ID+`"},"k":4,"eps":0.4,"bogus":1}`))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// Trailing data after a valid pair is 400, never ignored.
	pair := `{"a":{"sampler":"` + regd.ID + `"},"b":{"sampler":"` + regd.ID + `"},"k":4,"eps":0.4}`
	datasets := `{"a":{"samples":[1,2]},"b":{"samples":[3]},"n":4096,"k":4,"eps":0.4}`
	for _, body := range []string{pair + " garbage", pair + pair, datasets + ` {"k":4}`} {
		resp, err := http.Post(hs.URL+"/v1/closeness", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		var wire client.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			t.Fatalf("decoding error body: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || wire.Code != client.ErrCodeBadRequest {
			t.Fatalf("trailing data %q: got %d/%s (%s), want 400/%s", body, resp.StatusCode, wire.Code, wire.Error, client.ErrCodeBadRequest)
		}
	}

	// A dataset smaller than the budget is a 422 at run time.
	small := make([]int, 64)
	_, err = c.Closeness(ctx, client.ClosenessRequest{
		A: client.ClosenessSide{Samples: small},
		B: client.ClosenessSide{Samples: small},
		N: 4096, K: 4, Eps: 0.4,
	})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != client.ErrCodeNeedMoreSamples {
		t.Fatalf("small dataset: error = %v, want 422 need_more_samples", err)
	}
}

// TestClosenessRepsOverride: the server default and the per-request
// override both reach the tester.
func TestClosenessRepsOverride(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 1, ClosenessReps: 3}))
	ctx := context.Background()
	req := client.ClosenessRequest{
		A: client.ClosenessSide{Spec: ptr(closeSpecA())},
		B: client.ClosenessSide{Spec: ptr(closeSpecA())},
		K: 4, Eps: 0.4,
	}
	res, err := c.Closeness(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 3 {
		t.Fatalf("server default reps = %d, want 3", res.Reps)
	}
	req.Reps = 7
	res, err = c.Closeness(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reps != 7 {
		t.Fatalf("override reps = %d, want 7", res.Reps)
	}
}

// TestClosenessVerdictOnWire: the raw JSON body carries the documented
// field names (the wire schema is the contract; a rename is a break).
func TestClosenessVerdictOnWire(t *testing.T) {
	_, hs, _ := newTestServer(t, noJanitor(serve.Config{Workers: 1}))
	body := `{"a":{"spec":{"n":4096,"cuts":[1024,2048,3072],"masses":[0.4,0.1,0.3,0.2]}},` +
		`"b":{"spec":{"n":4096,"cuts":[1024,2048,3072],"masses":[0.4,0.1,0.3,0.2]}},"k":4,"eps":0.4}`
	resp, err := http.Post(hs.URL+"/v1/closeness", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	for _, field := range []string{"accept", "n", "intervals", "b", "m", "reps", "accepts", "z", "threshold",
		"partition_samples", "test_samples", "samples_a", "samples_b", "elapsed_ms"} {
		if _, ok := raw[field]; !ok {
			t.Fatalf("response missing wire field %q: %v", field, raw)
		}
	}
}

// TestClosenessStreamSideIsNotAnIngest: comparing against a stream
// reads its window without counting an ingest batch — after one ingest
// and three closeness requests the stream reports one batch.
func TestClosenessStreamSideIsNotAnIngest(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 1}))
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.StreamSpec{N: 16, K: 16, Eps: 0.5})
	if err != nil {
		t.Fatalf("creating stream: %v", err)
	}
	events := make([]int, 4096)
	for i := range events {
		events[i] = i % 16
	}
	if _, err := c.IngestEvents(ctx, info.ID, events); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	req := client.ClosenessRequest{
		A: client.ClosenessSide{Stream: info.ID},
		B: client.ClosenessSide{Spec: &client.HistogramSpec{N: 16, Masses: []float64{1}}},
		K: 16, Eps: 0.5,
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Closeness(ctx, req); err != nil {
			t.Fatalf("closeness request %d: %v", i, err)
		}
	}
	got, err := c.GetStream(ctx, info.ID)
	if err != nil {
		t.Fatalf("get stream: %v", err)
	}
	if got.Batches != 1 {
		t.Fatalf("batches = %d after one ingest and three closeness requests, want 1", got.Batches)
	}
}
