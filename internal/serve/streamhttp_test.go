package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/histtest/client"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/serve"
)

// noJanitor disables the background maintenance goroutine so tests
// control rotation and eviction deterministically.
func noJanitor(cfg serve.Config) serve.Config {
	cfg.JanitorInterval = -1
	return cfg
}

// streamEvents synthesizes a deterministic event stream over a
// 2-histogram (uniform over the first quarter of [0, n)), sized at 1.5×
// the tester's expected budget so replay never exhausts.
func streamEvents(n, k int, eps float64) []int {
	need := core.ExpectedSamples(n, k, eps, core.PracticalConfig()) * 3 / 2
	src := rng.New(42)
	data := make([]int, need)
	for i := range data {
		data[i] = src.Intn(n / 4)
	}
	return data
}

// TestStreamVerdictBitIdenticalToDirect is the tentpole acceptance
// test: register a stream, ingest a firehose of raw events in batches
// (binary and ndjson mixed), test it — and the verdict must be
// bit-identical (full Trace, sample accounting included) to running the
// tester directly over the same oracle.Counts with the server's
// snapshot-replay recipe.
func TestStreamVerdictBitIdenticalToDirect(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 2}))
	ctx := context.Background()

	n, k, eps := 4096, 4, 0.5
	const seed = 11
	info, err := c.CreateStream(ctx, client.StreamSpec{N: n, K: k, Eps: eps, Seed: seed})
	if err != nil {
		t.Fatalf("creating stream: %v", err)
	}
	if info.ID == "" || info.N != n || info.Seed != seed {
		t.Fatalf("bad stream info: %+v", info)
	}

	data := streamEvents(n, k, eps)
	// Mixed-format ingest: most batches binary, every eighth as ndjson.
	var total int64
	const batch = 10_000
	for i, b := 0, 0; i < len(data); i, b = i+batch, b+1 {
		chunk := data[i:min(i+batch, len(data))]
		var ack *client.IngestResponse
		var err error
		if b%8 == 7 {
			var sb strings.Builder
			for _, v := range chunk {
				sb.WriteString(strconv.Itoa(v))
				sb.WriteByte('\n')
			}
			ack, err = c.IngestNDJSON(ctx, info.ID, []byte(sb.String()))
		} else {
			ack, err = c.IngestEvents(ctx, info.ID, chunk)
		}
		if err != nil {
			t.Fatalf("ingesting batch %d: %v", b, err)
		}
		if ack.Events != int64(len(chunk)) {
			t.Fatalf("batch %d: %d events acknowledged, sent %d", b, ack.Events, len(chunk))
		}
		total += ack.Events
	}
	if total != int64(len(data)) {
		t.Fatalf("ingested %d events, sent %d", total, len(data))
	}

	res, err := c.StreamTest(ctx, info.ID, client.StreamTestRequest{})
	if err != nil {
		t.Fatalf("stream test failed: %v", err)
	}
	if res.Events != int64(len(data)) {
		t.Fatalf("snapshot covered %d events, want %d", res.Events, len(data))
	}
	if res.Seed != seed {
		t.Fatalf("snapshot seed = %d, want %d", res.Seed, seed)
	}

	// Direct run over the SAME counts: fold the events into a pooled
	// Counts and replay with the server's snapshot recipe — the shuffle
	// RNG derives from seed ^ StreamShuffleSalt, the tester RNG from the
	// seed itself.
	counts := oracle.AcquireCounts(n, len(data))
	for _, v := range data {
		counts.AddN(v, 1)
	}
	o := oracle.NewCountsReplay(counts, rng.New(seed^serve.StreamShuffleSalt))
	counts.Release()
	cfg := core.PracticalConfig()
	cfg.Workers = 1
	direct, err := core.Test(o, rng.New(seed), k, eps, cfg)
	if err != nil {
		t.Fatalf("direct run failed: %v", err)
	}
	assertBitIdentical(t, &res.TestResult, direct, o.Samples())

	// The stream records its last verdict; a second test over the same
	// window with the same seed is deterministic.
	got, err := c.GetStream(ctx, info.ID)
	if err != nil {
		t.Fatalf("get stream: %v", err)
	}
	if got.LastTest == nil || got.LastTest.Accept != res.Accept || got.LastTest.Events != res.Events {
		t.Fatalf("last-test record missing or wrong: %+v", got.LastTest)
	}
	again, err := c.StreamTest(ctx, info.ID, client.StreamTestRequest{})
	if err != nil {
		t.Fatalf("second stream test failed: %v", err)
	}
	if *again.Trace != *res.Trace || again.SamplesUsed != res.SamplesUsed {
		t.Fatalf("repeat test over an unchanged window diverged:\n  first:  %+v\n  second: %+v", res.TestResult, again.TestResult)
	}
}

// TestStreamIngestValidation: malformed frames 400 with a FormatError
// detail, unknown streams 404, and the stream survives bad input.
func TestStreamIngestValidation(t *testing.T) {
	_, hs, c := newTestServer(t, noJanitor(serve.Config{Workers: 1}))
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.StreamSpec{N: 100, K: 2, Eps: 0.5})
	if err != nil {
		t.Fatalf("creating stream: %v", err)
	}

	post := func(path, ct, body string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, hs.URL+path, strings.NewReader(body))
		req.Header.Set("Content-Type", ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return resp
	}

	cases := []struct {
		name, ct, body string
	}{
		{"ndjson garbage", "application/x-ndjson", "not-a-number\n"},
		{"ndjson out of range", "application/x-ndjson", "100\n"},
		{"ndjson negative", "application/x-ndjson", "-3\n"},
		{"binary truncated", "application/octet-stream", "\x80"},
		{"binary out of range", "application/octet-stream", "\x01\x7f"}, // frame of 1 event: 127 >= 100
	}
	for _, tc := range cases {
		resp := post("/v1/streams/"+info.ID+"/events", tc.ct, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	if _, err := c.IngestEvents(ctx, "nope", []int{1}); !isAPIStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown stream ingest: err = %v, want 404", err)
	}
	if _, err := c.StreamTest(ctx, "nope", client.StreamTestRequest{}); !isAPIStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown stream test: err = %v, want 404", err)
	}
	if _, err := c.GetStream(ctx, "nope"); !isAPIStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown stream get: err = %v, want 404", err)
	}

	// The stream still works after the malformed barrage (events from
	// valid prefixes of mixed batches may have been applied; the stream
	// itself must stay consistent).
	ack, err := c.IngestEvents(ctx, info.ID, []int{1, 2, 3})
	if err != nil {
		t.Fatalf("ingest after malformed input: %v", err)
	}
	if ack.Events != 3 {
		t.Fatalf("ingest applied %d events, want 3", ack.Events)
	}
}

// TestStreamIngestOverLimit: an ingest body longer than MaxBodyBytes is
// a 400 whose message names the limit in bytes and histd -max-body, and
// says how many events were applied before the limit cut the body off
// (ndjson and binary alike). The count must be what the stream holds.
func TestStreamIngestOverLimit(t *testing.T) {
	const limit = 1024
	_, hs, c := newTestServer(t, noJanitor(serve.Config{Workers: 1, MaxBodyBytes: limit}))
	ctx := context.Background()
	frame := append(binary.AppendUvarint(nil, 2*limit), bytes.Repeat([]byte{7}, 2*limit)...)
	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"ndjson", "application/x-ndjson", []byte(strings.Repeat("7\n", limit))},
		{"binary", "application/octet-stream", frame},
	} {
		info, err := c.CreateStream(ctx, client.StreamSpec{N: 100, K: 2, Eps: 0.5})
		if err != nil {
			t.Fatalf("%s: creating stream: %v", tc.name, err)
		}
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/streams/"+info.ID+"/events", bytes.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.ct)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: POST: %v", tc.name, err)
		}
		var wire client.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.name, err)
		}
		got, err := c.GetStream(ctx, info.ID)
		if err != nil {
			t.Fatalf("%s: reading stream: %v", tc.name, err)
		}
		want := fmt.Sprintf("request body exceeds the 1024-byte limit set by histd -max-body (%d events applied before the error)", got.TotalEvents)
		if resp.StatusCode != http.StatusBadRequest || wire.Error != want {
			t.Errorf("%s: got %d %q, want 400 %q", tc.name, resp.StatusCode, wire.Error, want)
		}
		if got.TotalEvents == 0 || got.TotalEvents >= limit {
			t.Errorf("%s: %d events applied from a body cut at %d bytes", tc.name, got.TotalEvents, limit)
		}
	}
}

func isAPIStatus(err error, status int) bool {
	apiErr, ok := err.(*client.APIError)
	return ok && apiErr.Status == status
}

// TestStreamCreateValidation: bad registration parameters 400; the
// per-tenant quota pushes back with 429.
func TestStreamCreateValidation(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 1, MaxStreams: 3, StreamTenantQuota: 2}))
	ctx := context.Background()

	bad := []client.StreamSpec{
		{N: 0, K: 2, Eps: 0.5},
		{N: 100, K: 0, Eps: 0.5},
		{N: 100, K: 2, Eps: 0},
		{N: 100, K: 2, Eps: 1.5},
		{N: 100, K: 2, Eps: 0.5, Generations: 4}, // generations without a window
		{N: 100, K: 2, Eps: 0.5, WindowMS: -5},
		{N: 1 << 31, K: 2, Eps: 0.5},                               // domain over the limit
		{N: 100, K: 2, Eps: 0.5, WindowMS: 1},                      // window below the minimum
		{N: 100, K: 2, Eps: 0.5, WindowMS: 1000, Generations: 100}, // too many generations
	}
	for i, spec := range bad {
		if _, err := c.CreateStream(ctx, spec); !isAPIStatus(err, http.StatusBadRequest) {
			t.Fatalf("bad spec %d: err = %v, want 400", i, err)
		}
	}

	ok := client.StreamSpec{N: 100, K: 2, Eps: 0.5, Tenant: "quota-tenant"}
	for i := 0; i < 2; i++ {
		if _, err := c.CreateStream(ctx, ok); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	// Quota pushback is a retryable 429; surface the first refusal
	// instead of waiting it out.
	c.MaxRetries = -1
	if _, err := c.CreateStream(ctx, ok); !isAPIStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("over-quota create: err = %v, want 429", err)
	}
}

// TestStreamDeleteFreesCapacity: DELETE removes the stream and its
// registry slot.
func TestStreamDeleteFreesCapacity(t *testing.T) {
	_, _, c := newTestServer(t, noJanitor(serve.Config{Workers: 1, MaxStreams: 1}))
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.StreamSpec{N: 100, K: 2, Eps: 0.5})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.DeleteStream(ctx, info.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.GetStream(ctx, info.ID); !isAPIStatus(err, http.StatusNotFound) {
		t.Fatalf("get after delete: err = %v, want 404", err)
	}
	if _, err := c.CreateStream(ctx, client.StreamSpec{N: 100, K: 2, Eps: 0.5}); err != nil {
		t.Fatalf("create after delete (capacity 1): %v", err)
	}
}

// TestStreamEmptyWindowNeedsSamples: testing a stream before any ingest
// is the need_more_samples failure, same contract as an undersized
// replay dataset.
func TestStreamEmptyWindowNeedsSamples(t *testing.T) {
	_, hs, c := newTestServer(t, noJanitor(serve.Config{Workers: 1}))
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.StreamSpec{N: 4096, K: 4, Eps: 0.5})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	failed := expvarInt(t, hs, "histd.runs_failed")
	_, err = c.StreamTest(ctx, info.ID, client.StreamTestRequest{})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Code != client.ErrCodeNeedMoreSamples {
		t.Fatalf("empty-window test: err = %v, want %s", err, client.ErrCodeNeedMoreSamples)
	}
	// Refused at admission: no run was queued, so none failed.
	if d := expvarInt(t, hs, "histd.runs_failed") - failed; d != 0 {
		t.Fatalf("histd.runs_failed moved by %d on an empty-window test, want 0", d)
	}
}

// expvarInt reads one integer counter from the server's /debug/vars.
func expvarInt(t *testing.T, hs *httptest.Server, key string) int64 {
	t.Helper()
	resp, err := http.Get(hs.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("fetching /debug/vars: %v", err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("decoding /debug/vars: %v", err)
	}
	var v int64
	if err := json.Unmarshal(vars[key], &v); err != nil {
		t.Fatalf("expvar %q is not an int: %s", key, vars[key])
	}
	return v
}

// TestJanitorSkipsEmptyWindow: the periodic re-test skips a stream whose
// window is empty, so its last-test record stays unset rather than
// holding a need-more-samples error. A second stream on the same
// schedule, holding a few events, shows the janitor did run: a window
// that is too small still runs and records its exhaustion.
func TestJanitorSkipsEmptyWindow(t *testing.T) {
	cfg := serve.Config{Workers: 1, JanitorInterval: 20 * time.Millisecond}
	_, _, c := newTestServer(t, cfg)
	ctx := context.Background()

	spec := client.StreamSpec{N: 256, K: 2, Eps: 0.5, RetestEveryMS: 100}
	empty, err := c.CreateStream(ctx, spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	filled, err := c.CreateStream(ctx, spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.IngestEvents(ctx, filled.ID, []int{1, 2, 3}); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	deadline := time.Now().Add(raceScale * 10 * time.Second)
	for {
		got, err := c.GetStream(ctx, filled.ID)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if got.LastTest != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic re-test never ran on the filled stream")
		}
		time.Sleep(25 * time.Millisecond)
	}
	got, err := c.GetStream(ctx, empty.ID)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if got.LastTest != nil {
		t.Fatalf("empty stream was re-tested: last test %+v", *got.LastTest)
	}
}

// TestJanitorRetestLeavesIdleStreamsEvictable: a periodic re-test is not
// traffic, so a stream nobody touches is TTL-evicted even when its
// re-test beat is shorter than the TTL — whether the beat is skipped
// (empty window) or runs (a few events).
func TestJanitorRetestLeavesIdleStreamsEvictable(t *testing.T) {
	cfg := serve.Config{Workers: 1, JanitorInterval: 10 * time.Millisecond, StreamTTL: 400 * time.Millisecond}
	_, hs, c := newTestServer(t, cfg)
	ctx := context.Background()

	spec := client.StreamSpec{N: 256, K: 2, Eps: 0.5, RetestEveryMS: 100}
	empty, err := c.CreateStream(ctx, spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Read after the first create, which registers the ingest counters.
	evicted := expvarInt(t, hs, "histd.ingest_evictions")
	filled, err := c.CreateStream(ctx, spec)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.IngestEvents(ctx, filled.ID, []int{1, 2, 3}); err != nil {
		t.Fatalf("ingest: %v", err)
	}

	// Poll the eviction counter, not the streams: a lookup is traffic.
	deadline := time.Now().Add(raceScale * 10 * time.Second)
	for expvarInt(t, hs, "histd.ingest_evictions")-evicted < 2 {
		if time.Now().After(deadline) {
			t.Fatal("idle streams on a re-test schedule were never evicted")
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, id := range []string{empty.ID, filled.ID} {
		if _, err := c.GetStream(ctx, id); !isAPIStatus(err, http.StatusNotFound) {
			t.Fatalf("stream %s after its TTL: err = %v, want 404", id, err)
		}
	}
}

// TestJanitorRecordsRefusedRetest: a stream registered with the literal
// paper constants is over the budget guard, so every test of it is
// refused at admission. A client test gets the 400; the periodic re-test,
// which has no client, records the refusal in last_test instead of
// skipping every beat without a trace.
func TestJanitorRecordsRefusedRetest(t *testing.T) {
	cfg := serve.Config{Workers: 1, JanitorInterval: 20 * time.Millisecond}
	_, _, c := newTestServer(t, cfg)
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.StreamSpec{N: 256, K: 2, Eps: 0.5, Paper: true, RetestEveryMS: 100})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.IngestEvents(ctx, info.ID, []int{1, 2, 3}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if _, err := c.StreamTest(ctx, info.ID, client.StreamTestRequest{}); !isAPIStatus(err, http.StatusBadRequest) {
		t.Fatalf("over-budget stream test: err = %v, want 400", err)
	}

	deadline := time.Now().Add(raceScale * 10 * time.Second)
	for {
		got, err := c.GetStream(ctx, info.ID)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if rec := got.LastTest; rec != nil {
			if !strings.Contains(rec.Err, "budget") || rec.Seed != got.Seed {
				t.Fatalf("last test %+v, want the budget refusal under seed %d", *rec, got.Seed)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the refused periodic re-test left no record")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestStreamPeriodicRetest: a stream registered with retest_every_ms
// gets tested by the janitor without any client asking.
func TestStreamPeriodicRetest(t *testing.T) {
	cfg := serve.Config{Workers: 1, JanitorInterval: 20 * time.Millisecond}
	_, _, c := newTestServer(t, cfg)
	ctx := context.Background()

	info, err := c.CreateStream(ctx, client.StreamSpec{N: 256, K: 2, Eps: 0.5, RetestEveryMS: 100})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Enough events that the snapshot test completes, ingested in chunks
	// under the binary frame limit.
	need := core.ExpectedSamples(256, 2, 0.5, core.PracticalConfig()) * 3 / 2
	events := make([]int, need)
	src := rng.New(9)
	for i := range events {
		events[i] = src.Intn(64)
	}
	const chunk = 1 << 19
	for i := 0; i < len(events); i += chunk {
		if _, err := c.IngestEvents(ctx, info.ID, events[i:min(i+chunk, len(events))]); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}

	deadline := time.Now().Add(raceScale * 10 * time.Second)
	for time.Now().Before(deadline) {
		got, err := c.GetStream(ctx, info.ID)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if got.LastTest != nil && got.LastTest.Err == "" {
			return // the scheduler ran a verdict for us
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("periodic re-test never produced a verdict")
}

// TestSieveWorkerDefaultClamped pins the oversubscription fix: when
// SieveWorkers defaults, the aggregate fan-out Workers × SieveWorkers
// stays at GOMAXPROCS instead of Workers × GOMAXPROCS; explicit
// settings are respected.
func TestSieveWorkerDefaultClamped(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers, sieve, want int
	}{
		{4, 0, max(1, procs/4)}, // default divides the machine among the pool
		{1, 0, max(1, procs)},   // one worker gets the whole machine
		{2, 16, 16},             // explicit values are not clamped
		{2, -1, 1},              // negative forces serial sieves
	}
	for _, tc := range cases {
		cfg := serve.Config{Workers: tc.workers, SieveWorkers: tc.sieve}.WithDefaults()
		if cfg.SieveWorkers != tc.want {
			t.Fatalf("Workers=%d SieveWorkers=%d: resolved to %d, want %d",
				tc.workers, tc.sieve, cfg.SieveWorkers, tc.want)
		}
		if tc.sieve == 0 && cfg.Workers*cfg.SieveWorkers > max(procs, cfg.Workers) {
			t.Fatalf("Workers=%d: default fan-out %d×%d oversubscribes GOMAXPROCS=%d",
				tc.workers, cfg.Workers, cfg.SieveWorkers, procs)
		}
	}
}
