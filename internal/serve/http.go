package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"strconv"

	"repro/histtest/client"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/test         one TestRequest → one TestResult (JSON)
//	POST /v1/test/stream  BatchRequest → ndjson TestResults, completion order
//	POST /v1/closeness    ClosenessRequest → ClosenessResponse (two-sample)
//	POST /v1/samplers     HistogramSpec → RegisterResponse
//	POST /v1/streams      StreamSpec → StreamInfo (register an ingestion stream)
//	GET/DELETE /v1/streams/{id}      stream info / removal
//	POST /v1/streams/{id}/events     ingest a batch (ndjson or binary frames)
//	POST /v1/streams/{id}/test       test the stream's live window
//	GET  /healthz         200 ok / 503 draining
//	GET  /debug/vars      expvar counters (histd.* and histtest.*)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/test", s.handleTest)
	mux.HandleFunc("POST /v1/test/stream", s.handleStream)
	mux.HandleFunc("POST /v1/closeness", s.handleCloseness)
	mux.HandleFunc("POST /v1/samplers", s.handleRegister)
	mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	mux.HandleFunc("GET /v1/streams/{id}", s.handleStreamInfo)
	mux.HandleFunc("DELETE /v1/streams/{id}", s.handleStreamDelete)
	mux.HandleFunc("POST /v1/streams/{id}/events", s.handleStreamIngest)
	mux.HandleFunc("POST /v1/streams/{id}/test", s.handleStreamTest)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

// writeError emits the uniform JSON error body with the status (and
// Retry-After, for pushback statuses) the code maps to.
func (s *Server) writeError(w http.ResponseWriter, code string, err error) {
	status := http.StatusInternalServerError
	switch code {
	case client.ErrCodeBadRequest:
		status = http.StatusBadRequest
	case client.ErrCodeUnknownSampler, client.ErrCodeNotFound:
		status = http.StatusNotFound
	case client.ErrCodeNeedMoreSamples:
		status = http.StatusUnprocessableEntity
	case client.ErrCodeOverloaded:
		status = http.StatusTooManyRequests
	case client.ErrCodeDraining:
		status = http.StatusServiceUnavailable
	case client.ErrCodeCanceled:
		status = http.StatusGatewayTimeout
	}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg)))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(client.ErrorResponse{Code: code, Error: err.Error()})
}

// retryAfterSeconds renders the Retry-After hint (at least 1, the header
// has whole-second granularity).
func retryAfterSeconds(cfg Config) int {
	secs := int(cfg.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	return secs
}

// admitErr maps an admission failure to its wire code.
func admitErr(err error) string {
	if errors.Is(err, errDraining) {
		return client.ErrCodeDraining
	}
	return client.ErrCodeOverloaded
}

// handleTest serves POST /v1/test: resolve, admit, wait for the worker,
// reply. The request context rides into the run, so a disconnecting
// client cancels its own run mid-sieve.
func (s *Server) handleTest(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	var req client.TestRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.failRequest(w, err)
		return
	}
	spec, err := s.resolve(&req, s.testSource(&req))
	if err != nil {
		s.failRequest(w, err)
		return
	}
	j, err := s.submit(r.Context(), spec, 0)
	if err != nil {
		s.writeError(w, admitErr(err), err)
		return
	}
	// The deadline starts at admission, and await answers at the deadline
	// even while the job is still queued, so this wait is bounded by the
	// run's own deadline end to end.
	res := await(j)
	if res.Err != "" {
		s.writeError(w, res.Code, errors.New(res.Err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(res)
}

// failRequest writes a resolution failure (always a *badRequest or a
// body-read or decoding error).
func (s *Server) failRequest(w http.ResponseWriter, err error) {
	var br *badRequest
	if errors.As(err, &br) {
		s.writeError(w, br.code, err)
		return
	}
	s.writeError(w, client.ErrCodeBadRequest, err)
}

// handleStream serves POST /v1/test/stream: the batch is admitted
// atomically (all sub-requests get queue slots, or the whole batch is
// pushed back with 429), runs fan out across the worker pool, and
// results stream back as JSON lines in completion order, each tagged
// with the sub-request's index.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	var batch client.BatchRequest
	if err := s.decodeBody(w, r, &batch); err != nil {
		s.failRequest(w, err)
		return
	}
	if len(batch.Requests) == 0 {
		s.failRequest(w, badReqf("empty batch"))
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		s.failRequest(w, badReqf("batch of %d exceeds the limit %d", len(batch.Requests), s.cfg.MaxBatch))
		return
	}
	specs := make([]*runSpec, len(batch.Requests))
	for i := range batch.Requests {
		sp, err := s.resolve(&batch.Requests[i], s.testSource(&batch.Requests[i]))
		if err != nil {
			s.failRequest(w, fmt.Errorf("request %d: %w", i, err))
			return
		}
		specs[i] = sp
	}
	if s.Draining() {
		s.writeError(w, client.ErrCodeDraining, errDraining)
		return
	}
	if !s.reserve(len(specs)) {
		s.writeError(w, client.ErrCodeOverloaded, fmt.Errorf("queue cannot admit a batch of %d", len(specs)))
		return
	}

	jobs := make([]*job, len(specs))
	for i, sp := range specs {
		jobs[i] = s.enqueue(r.Context(), sp, i)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// Stream in completion order: fan the per-job waits into one channel.
	done := make(chan client.TestResult, len(jobs))
	for _, j := range jobs {
		go func(j *job) { done <- await(j) }(j)
	}
	for range jobs {
		res := <-done
		if err := enc.Encode(res); err != nil {
			// The client went away; its request context cancels the
			// remaining runs, and the fan-in channel is buffered for every
			// job, so returning leaks nothing.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleRegister serves POST /v1/samplers: validate the spec, build the
// shared alias-table prototype once, and hand back its ID.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	if s.Draining() {
		s.writeError(w, client.ErrCodeDraining, errDraining)
		return
	}
	var spec client.HistogramSpec
	if err := s.decodeBody(w, r, &spec); err != nil {
		s.failRequest(w, err)
		return
	}
	proto, err := buildSampler(&spec)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	id, err := s.samplers.register(proto)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(client.RegisterResponse{ID: id, Buckets: len(spec.Masses), N: spec.N})
}

// handleHealth serves GET /healthz: 200 while admitting, 503 once
// draining (so load balancers stop routing before the listener closes).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg)))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}
