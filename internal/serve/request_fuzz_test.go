package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/histtest/client"
	"repro/internal/serve"
)

// FuzzRequestDecoder fuzzes every JSON request decoder of the API with
// raw bodies: whatever arrives at whichever endpoint — malformed JSON,
// unknown fields, contradictory sources, one-registered-one-unknown
// samplers, references to an empty stream window, budgets past the
// server's guard — the server must answer with a verdict or a typed 4xx
// and never panic or 5xx, except the 504 of a run cut short by the
// request's own timeout_ms. endpoint picks the route, modulo the route
// count. A 2²⁰-sample guard bounds every admitted run, and the seeds
// that pass it use k >= n or tiny domains, keeping iterations cheap.
func FuzzRequestDecoder(f *testing.F) {
	s := serve.New(serve.Config{Workers: 1, ClosenessReps: 1, MaxSamplesPerRun: 1 << 20})
	hs := httptest.NewServer(s.Handler())
	f.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	// One registered sampler and one empty stream, so fuzzed bodies can
	// reach the unknown-vs-registered and empty-window branches.
	ctx := context.Background()
	c := client.New(hs.URL)
	regd, err := c.RegisterSampler(ctx, client.HistogramSpec{N: 16, Masses: []float64{1}})
	if err != nil {
		f.Fatalf("registering sampler: %v", err)
	}
	stInfo, err := c.CreateStream(ctx, client.StreamSpec{N: 16, K: 16, Eps: 0.5})
	if err != nil {
		f.Fatalf("creating stream: %v", err)
	}

	const (
		test = iota
		batch
		closeness
		samplers
		streams
		streamTest
	)
	routes := []string{"/v1/test", "/v1/test/stream", "/v1/closeness", "/v1/samplers", "/v1/streams", "/v1/streams/" + stInfo.ID + "/test"}

	spec := `{"n":16,"masses":[1]}`
	huge := `{"n":1073741824,"masses":[1]}`
	seeds := []struct {
		route uint8
		body  string
	}{
		{closeness, ``},
		{closeness, `{}`},
		{closeness, `not json`},
		{closeness, `{"a":{},"b":{},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":0,"eps":9}`},
		{closeness, `{"a":{"spec":` + spec + `,"sampler":"s1"},"b":{"spec":` + spec + `},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"sampler":"` + regd.ID + `"},"b":{"sampler":"ghost"},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"sampler":"` + regd.ID + `"},"b":{"stream":"` + stInfo.ID + `"},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"stream":"` + stInfo.ID + `"},"b":{"stream":"` + stInfo.ID + `"},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"samples":[1,2,3]},"b":{"spec":` + spec + `},"n":16,"k":16,"eps":0.5}`},
		{closeness, `{"a":{"samples":[99]},"b":{"spec":` + spec + `},"n":16,"k":16,"eps":0.5}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":{"n":8,"masses":[1]}},"k":16,"eps":0.5}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5,"bogus":true}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5,"reps":-3,"scale":-1}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":16,"eps":0.5,"count_strategy":"psychic"}`},
		{closeness, `{"a":{"spec":{"n":16,"cuts":[99],"masses":[1,1]}},"b":{"spec":` + spec + `},"k":16,"eps":0.5}`},
		{closeness, strings.Repeat("[", 1000)},
		{closeness, `{"a":{"spec":` + huge + `},"b":{"spec":` + huge + `},"k":64,"eps":0.001}`},
		{closeness, `{"a":{"spec":` + spec + `},"b":{"spec":` + spec + `},"k":2,"eps":1e-20}`},

		{test, `{"spec":` + spec + `,"k":16,"eps":0.5}`},
		{test, `{"spec":` + spec + `,"k":2,"eps":0.5,"engine":"cdkl22","count_strategy":"closed-form","workers":64,"timeout_ms":100}`},
		{test, `{"samples":[1,2,3],"n":16,"k":2,"eps":0.5}`},
		{test, `{"sampler":"ghost","k":2,"eps":0.5}`},
		{test, `{"spec":` + spec + `,"k":2,"eps":0.5,"scale":-1}`},
		{test, `{"spec":` + huge + `,"k":2,"eps":0.01}`},
		{test, `{"spec":` + spec + `,"k":2,"eps":1e-20}`},

		{batch, `{"requests":[{"spec":` + spec + `,"k":16,"eps":0.5},{"samples":[1],"n":16,"k":2,"eps":0.5}]}`},
		{batch, `{"requests":[]}`},
		{batch, `{"requests":[{"spec":` + huge + `,"k":2,"eps":0.01}]}`},

		{samplers, spec},
		{samplers, `{"n":16,"cuts":[8,4],"masses":[1,1,1]}`},
		{samplers, `{"n":0,"masses":[]}`},

		{streams, `{"n":16,"k":16,"eps":0.5}`},
		{streams, `{"n":16,"k":0,"eps":0.5}`},
		{streams, `{"n":16,"k":2,"eps":0.5,"generations":4}`},
		{streams, `{"n":16,"k":2,"eps":0.5,"window_ms":50}`},

		{streamTest, ``},
		{streamTest, `{"seed":7,"workers":4,"timeout_ms":50}`},
		{streamTest, `{"timeout_ms":-1}`},
		{streamTest, `{"bogus":1}`},
	}
	for _, sd := range seeds {
		f.Add(sd.route, sd.body)
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		route := routes[int(endpoint)%len(routes)]
		resp, err := http.Post(hs.URL+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading response: %v", route, err)
		}
		switch resp.StatusCode {
		case http.StatusOK,
			http.StatusCreated,             // a stream registered
			http.StatusBadRequest,          // malformed body / invalid request
			http.StatusNotFound,            // unknown sampler or stream
			http.StatusUnprocessableEntity, // empty window / dataset too small
			http.StatusTooManyRequests:     // single-worker queue momentarily full
		case http.StatusGatewayTimeout:
			// A valid request whose own timeout_ms cut its run short; the
			// 30 s default deadline is out of reach under the guard.
			var er client.ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Code != client.ErrCodeCanceled {
				t.Fatalf("%s: status 504 (%s) for body %q is not a request deadline", route, raw, body)
			}
		default:
			t.Fatalf("%s: status %d for body %q (%s) — a decoder must map every input to a typed 4xx or a verdict", route, resp.StatusCode, body, raw)
		}
		switch {
		case resp.StatusCode == http.StatusCreated:
			// Delete a registered stream again, so the fuzzer cannot pile
			// up accumulators.
			var info client.StreamInfo
			if err := json.Unmarshal(raw, &info); err != nil {
				t.Fatalf("decoding stream info: %v", err)
			}
			if err := c.DeleteStream(ctx, info.ID); err != nil {
				t.Fatalf("deleting stream %s: %v", info.ID, err)
			}
		case resp.StatusCode == http.StatusOK && route == routes[batch]:
			// A batch is answered 200 before its runs finish, so each
			// result line carries its own outcome.
			dec := json.NewDecoder(bytes.NewReader(raw))
			for dec.More() {
				var res client.TestResult
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("decoding batch result: %v", err)
				}
				if res.Code != "" && res.Code != client.ErrCodeNeedMoreSamples && res.Code != client.ErrCodeCanceled {
					t.Fatalf("batch result %d: code %q (%s) for body %q", res.Index, res.Code, res.Err, body)
				}
			}
		}
	})
}
