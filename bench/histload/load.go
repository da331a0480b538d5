package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of client connections, one goroutine each: the
// CPU count of the reference box, so the load generator never runs more
// goroutines that send than there are CPUs.
const clients = 2

// requestTimeout bounds one request, so a stuck server cannot hang a run.
const requestTimeout = 60 * time.Second

// newHTTPClient returns a client that opens at most `clients`
// connections to the server and keeps them alive between requests.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// request is one pre-encoded HTTP request.
type request struct {
	method, path, ctype string
	body                []byte
}

// do sends req to base and returns the status and the whole response
// body; the body is always drained so the connection is reused.
func do(ctx context.Context, hc *http.Client, base string, req request) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, base+req.path, body)
	if err != nil {
		return 0, nil, err
	}
	if req.ctype != "" {
		hr.Header.Set("Content-Type", req.ctype)
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get is do for a body-less GET of base+path.
func get(ctx context.Context, hc *http.Client, base, path string) (int, []byte, error) {
	return do(ctx, hc, base, request{method: http.MethodGet, path: path})
}

// postJSON posts a JSON body to base+path.
func postJSON(ctx context.Context, hc *http.Client, base, path string, body []byte) (int, []byte, error) {
	return do(ctx, hc, base, request{method: http.MethodPost, path: path, ctype: "application/json", body: body})
}

// observation is what one 2xx response tells the benchmark.
type observation struct {
	label   string // request label (e.g. "reference" or "comb")
	accept  bool
	samples int64 // oracle draws of a verdict
	// partition and test split a closeness verdict's draws by stage.
	partition, test int64
	events          int64 // events acknowledged by an ingest
}

// lane is one client connection's closed loop: it sends request i only
// after request i-1 has been answered.
type lane struct {
	// verdicts marks a lane whose 2xx answers are verdicts (counted in
	// throughput_rps); the other kind is an ingest lane.
	verdicts bool
	// seq numbers the lane's requests; lanes sharing one counter take
	// turns through a single request sequence.
	seq *atomic.Int64
	// next returns request i.
	next func(i int) request
	// check validates the 2xx answer to request i. An error is a
	// correctness failure, not a failed request.
	check func(i int, body []byte) (observation, error)
}

// laneStats accumulates one lane's results inside the measured window.
type laneStats struct {
	verdicts          bool // copied from the lane
	latMS             []float64
	obs               []observation
	attempted, failed int
	status429         int
	status5xx         int
	checkErrs         []string
}

// passResult is one measured pass over a running server.
type passResult struct {
	window time.Duration
	lanes  [clients]laneStats
	// cpu is the server's CPU time at the window's start and end.
	cpu   [2]time.Duration
	rss   int64     // server VmHWM at the end of the pass, bytes
	probe []float64 // host probe inside the window, ns per iteration
}

// runPass drives the lanes against h for warmup+measure and keeps what
// completed inside the measured window. Requests still in flight at the
// end of the window are finished but not counted.
func runPass(ctx context.Context, hc *http.Client, h *histd, lanes [clients]lane, warmup, measure time.Duration) (*passResult, error) {
	start := time.Now()
	w0, w1 := start.Add(warmup), start.Add(warmup+measure)
	res := &passResult{window: measure}
	var wg sync.WaitGroup
	for li := range lanes {
		res.lanes[li].verdicts = lanes[li].verdicts
		wg.Add(1)
		go func(l lane, st *laneStats) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(w1) {
				i := int(l.seq.Add(1) - 1)
				t := time.Now()
				status, body, err := do(ctx, hc, h.base, l.next(i))
				end := time.Now()
				var o observation
				var cerr error
				if err == nil && status/100 == 2 {
					o, cerr = l.check(i, body)
					if cerr != nil && len(st.checkErrs) < 5 {
						st.checkErrs = append(st.checkErrs, fmt.Sprintf("request %d: %v", i, cerr))
					}
				}
				if end.Before(w0) || end.After(w1) {
					continue
				}
				st.attempted++
				switch {
				case err != nil || status/100 != 2:
					st.failed++
					if status == http.StatusTooManyRequests {
						st.status429++
					}
					if status/100 == 5 {
						st.status5xx++
					}
				case cerr == nil:
					st.latMS = append(st.latMS, ms(end.Sub(t)))
					st.obs = append(st.obs, o)
				}
			}
		}(lanes[li], &res.lanes[li])
	}

	probeDone := make(chan struct{})
	var probeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.probe, probeErr = probeDuring(w0, probeDone)
	}()

	var cpuErr error
	for s, at := range [2]time.Time{w0, w1} {
		if cpuErr == nil {
			res.cpu[s], cpuErr = sleepThenCPU(ctx, at, h)
		}
	}
	close(probeDone)
	wg.Wait()
	for _, err := range []error{cpuErr, probeErr, ctx.Err()} {
		if err != nil {
			return nil, err
		}
	}
	rss, err := peakRSS(h.pid())
	if err != nil {
		return nil, err
	}
	res.rss = rss
	return res, nil
}

// sleepThenCPU waits until t and reads the server's CPU time.
func sleepThenCPU(ctx context.Context, t time.Time, h *histd) (time.Duration, error) {
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-time.After(time.Until(t)):
	}
	return cpuTime(h.pid())
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
