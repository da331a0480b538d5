package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/histtest/client"
)

// fakeWorkload serves nothing itself: the gate posts to an httptest
// server answering with the served result, and its direct run returns want.
type fakeWorkload struct {
	want client.TestResult
}

func (f *fakeWorkload) setup(context.Context, *http.Client, string) error { return nil }
func (f *fakeWorkload) prepare() error                                    { return nil }
func (f *fakeWorkload) lanes() [clients]lane                              { return [clients]lane{} }
func (f *fakeWorkload) request(int) request {
	return request{method: http.MethodPost, path: "/v1/test", ctype: "application/json", body: []byte("{}")}
}
func (f *fakeWorkload) parse(body []byte) (verdict, error) { return parseTestResult(body) }
func (f *fakeWorkload) direct(context.Context, int) (verdict, stepTimes, error) {
	v, err := testVerdict(f.want)
	return v, stepTimes{}, err
}
func (f *fakeWorkload) gateRequests() int                        { return 2 }
func (f *fakeWorkload) tester() string                           { return "core" }
func (f *fakeWorkload) extraLayers() (map[string]float64, error) { return nil, nil }

func sampleResult() client.TestResult {
	return client.TestResult{Accept: true, SamplesUsed: 12345,
		Trace: &client.Trace{N: 1000, K: 4, B: 12.5, PartitionSamples: 100, LearnSamples: 200, SieveSamples: 12000, TestSamples: 45, FinalZ: 0.25}}
}

// serveResults answers every request with the result next() returns,
// stamping a fresh elapsed_ms each time.
func serveResults(t *testing.T, next func() client.TestResult) string {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		res := next()
		res.ElapsedMS = calls.Add(1) * 7
		_ = json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

func runGate(t *testing.T, base string, w workload) []string {
	t.Helper()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	fails, err := gate(context.Background(), hc, base, w)
	if err != nil {
		t.Fatal(err)
	}
	return fails
}

func TestGatePassesIdenticalVerdicts(t *testing.T) {
	base := serveResults(t, sampleResult)
	if fails := runGate(t, base, &fakeWorkload{want: sampleResult()}); len(fails) != 0 {
		t.Fatalf("gate failed on identical verdicts: %v", fails)
	}
}

func TestGateFailsOnDoctoredVerdict(t *testing.T) {
	for name, doctor := range map[string]func(*client.TestResult){
		"accept":       func(r *client.TestResult) { r.Accept = false },
		"samples_used": func(r *client.TestResult) { r.SamplesUsed++ },
		"trace":        func(r *client.TestResult) { r.Trace.FinalZ = 0.2500000000000001 },
	} {
		t.Run(name, func(t *testing.T) {
			base := serveResults(t, func() client.TestResult {
				r := sampleResult()
				doctor(&r)
				return r
			})
			fails := runGate(t, base, &fakeWorkload{want: sampleResult()})
			if len(fails) != 2 || !strings.HasPrefix(fails[0], "served-vs-direct: request 0") {
				t.Fatalf("gate on a doctored %s = %v, want a served-vs-direct failure per request", name, fails)
			}
		})
	}
}

func TestGateFailsOnUnrepeatableAnswer(t *testing.T) {
	var n atomic.Int64
	base := serveResults(t, func() client.TestResult {
		r := sampleResult()
		if n.Add(1) > 2 { // the repeat of request 0 draws one more sample
			r.SamplesUsed++
		}
		return r
	})
	fails := runGate(t, base, &fakeWorkload{want: sampleResult()})
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "repeat-identical") {
		t.Fatalf("gate = %v, want one repeat-identical failure", fails)
	}
}

func TestAckChain(t *testing.T) {
	c := &ackChain{window: 100}
	if n, err := c.add(10, []byte(`{"events":10,"window_events":110,"total_events":110}`)); err != nil || n != 10 {
		t.Fatalf("a consistent ack: %d, %v", n, err)
	}
	for _, bad := range []string{
		`{"events":9,"window_events":119,"total_events":119}`,  // fewer events than sent
		`{"events":10,"window_events":121,"total_events":121}`, // window grew by more
	} {
		if _, err := c.add(10, []byte(bad)); err == nil {
			t.Errorf("ack %s accepted", bad)
		}
	}
}
