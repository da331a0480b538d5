package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/histtest/client"
	"repro/internal/obs"
	"repro/internal/stream"
)

// Streaming-ingestion endpoints: the serving layer of internal/stream.
//
//	POST   /v1/streams              StreamSpec → StreamInfo (register)
//	GET    /v1/streams/{id}         StreamInfo
//	DELETE /v1/streams/{id}         remove the stream
//	POST   /v1/streams/{id}/events  ingest a batch (ndjson or binary)
//	POST   /v1/streams/{id}/test    test the live window's counts
//
// Ingest admission mirrors the tester queue's discipline with its own
// semaphore: a batch acquires an ingest slot non-blockingly BEFORE the
// body is read — a 429 therefore guarantees no event of the batch was
// applied, which is what makes client retries safe. Tests of a stream
// go through the ordinary worker-pool admission (submit), so a test
// burst cannot starve ingest and vice versa.
//
// A janitor goroutine drives the time-based behavior: TTL eviction of
// idle streams, sliding-window rotation, and the periodic re-test
// scheduler (which submits through the same admission path and simply
// skips a beat when the queue is full or the window is empty).

// maxStreamDomain bounds a stream's domain size: large enough for any
// realistic histogram domain, small enough that a dense accumulator
// request cannot ask for an absurd allocation (sparse backings are lazy,
// but the limit is uniform to keep refusal predictable).
const maxStreamDomain = 1 << 30

// streamShuffleSalt decorrelates the snapshot shuffle's RNG stream from
// the tester's own randomness: both derive from the stream's test seed,
// and seeding two generators identically would make the tester's draws
// track the shuffle. The salt is part of the wire contract — a direct
// run must use rng.New(seed ^ streamShuffleSalt) for the replay shuffle
// to reproduce a served verdict bit-for-bit (pinned by the e2e test).
const streamShuffleSalt = 0xa5a5f00d9e3779b9

// handleStreamCreate serves POST /v1/streams.
func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	if s.Draining() {
		s.writeError(w, client.ErrCodeDraining, errDraining)
		return
	}
	var spec client.StreamSpec
	if err := s.decodeBody(w, r, &spec); err != nil {
		s.failRequest(w, err)
		return
	}
	cfg, err := streamConfigFromSpec(&spec)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	st, err := s.streams.Create(cfg)
	if err != nil {
		if errors.Is(err, stream.ErrRegistryFull) || errors.Is(err, stream.ErrTenantQuota) {
			s.writeError(w, client.ErrCodeOverloaded, err)
		} else {
			s.failRequest(w, badReqf("%v", err))
		}
		return
	}
	obs.Ingest().ActiveStreams.Set(int64(s.streams.Len()))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(streamInfo(st))
}

// streamConfigFromSpec validates a wire spec into a registry config.
func streamConfigFromSpec(spec *client.StreamSpec) (stream.StreamConfig, error) {
	var zero stream.StreamConfig
	if spec.N < 1 {
		return zero, badReqf("n = %d must be positive", spec.N)
	}
	if spec.N > maxStreamDomain {
		return zero, badReqf("n = %d exceeds the stream domain limit %d", spec.N, maxStreamDomain)
	}
	if spec.K < 1 {
		return zero, badReqf("k = %d must be positive", spec.K)
	}
	if spec.Eps <= 0 || spec.Eps > 1 {
		return zero, badReqf("eps = %v must be in (0, 1]", spec.Eps)
	}
	if spec.Shards < 0 {
		return zero, badReqf("shards = %d must not be negative", spec.Shards)
	}
	if spec.Generations < 0 {
		return zero, badReqf("generations = %d must not be negative", spec.Generations)
	}
	if spec.WindowMS < 0 || spec.RetestEveryMS < 0 {
		return zero, badReqf("window_ms and retest_every_ms must not be negative")
	}
	gens := spec.Generations
	if spec.WindowMS > 0 && gens == 0 {
		gens = 8 // default sliding-window resolution
	}
	if spec.WindowMS == 0 && gens > 1 {
		return zero, badReqf("generations = %d requires window_ms (no rotation clock without a window)", gens)
	}
	preset := ""
	if spec.Paper {
		preset = "paper"
	}
	return stream.StreamConfig{
		Tenant: spec.Tenant,
		Accum: stream.AccumConfig{
			N:           spec.N,
			Shards:      spec.Shards,
			Generations: gens,
			ForceSparse: spec.ForceSparse,
		},
		Params: stream.TestParams{
			K:    spec.K,
			Eps:  spec.Eps,
			Cfg:  preset,
			Seed: orOne(spec.Seed),
		},
		Window:      time.Duration(spec.WindowMS) * time.Millisecond,
		RetestEvery: time.Duration(spec.RetestEveryMS) * time.Millisecond,
	}, nil
}

// handleStreamInfo serves GET /v1/streams/{id}.
func (s *Server) handleStreamInfo(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	st, ok := s.streams.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, client.ErrCodeNotFound, fmt.Errorf("stream %q is not registered", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(streamInfo(st))
}

// handleStreamDelete serves DELETE /v1/streams/{id}.
func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	if !s.streams.Delete(r.PathValue("id")) {
		s.writeError(w, client.ErrCodeNotFound, fmt.Errorf("stream %q is not registered", r.PathValue("id")))
		return
	}
	obs.Ingest().ActiveStreams.Set(int64(s.streams.Len()))
	w.WriteHeader(http.StatusNoContent)
}

// countingReader tracks how many body bytes the decoder consumed, and
// the limit, if the body ran past MaxBodyBytes: the decoders fold read
// errors into their own messages.
type countingReader struct {
	r     io.Reader
	n     int64
	limit int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if limit, over := overLimit(err); over {
		c.limit = limit
	}
	return n, err
}

// handleStreamIngest serves POST /v1/streams/{id}/events. The ingest
// slot is acquired before the body is touched, so pushback (429/503)
// always means "nothing applied" and clients can retry the same batch.
func (s *Server) handleStreamIngest(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	iv := obs.Ingest()
	if s.Draining() {
		s.writeError(w, client.ErrCodeDraining, errDraining)
		return
	}
	st, ok := s.streams.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, client.ErrCodeNotFound, fmt.Errorf("stream %q is not registered", r.PathValue("id")))
		return
	}
	select {
	case s.ingestSlots <- struct{}{}:
	default:
		iv.Rejected.Add(1)
		s.writeError(w, client.ErrCodeOverloaded, errOverloaded)
		return
	}
	defer func() { <-s.ingestSlots }()

	cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	var applied int64
	var err error
	if strings.TrimSpace(ct) == "application/octet-stream" {
		applied, err = stream.DecodeBinary(cr, st.Acc.N(), 0, st.Acc.Ingest)
	} else {
		applied, err = stream.DecodeNDJSON(cr, st.Acc.N(), st.Acc.Ingest)
	}
	iv.Events.Add(applied)
	iv.Bytes.Add(cr.n)
	st.Touch(time.Now(), cr.n)
	if err != nil {
		iv.FormatErrors.Add(1)
		if cr.limit > 0 {
			err = bodyTooLarge(cr.limit)
		}
		s.failRequest(w, badReqf("%v (%d events applied before the error)", err, applied))
		return
	}
	iv.Batches.Add(1)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(client.IngestResponse{
		Events:       applied,
		WindowEvents: st.Acc.WindowEvents(),
		TotalEvents:  st.Acc.TotalEvents(),
	})
}

// handleStreamTest serves POST /v1/streams/{id}/test: snapshot the live
// window into a pooled Counts, run the tester over its replay, reply
// with the verdict. The run rides the ordinary worker-pool admission;
// an empty window is a 422 before it. An empty body is a plain "test
// now with the stream's own parameters".
func (s *Server) handleStreamTest(w http.ResponseWriter, r *http.Request) {
	vars().requests.Add(1)
	st, ok := s.streams.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, client.ErrCodeNotFound, fmt.Errorf("stream %q is not registered", r.PathValue("id")))
		return
	}
	var req client.StreamTestRequest
	if err := s.decodeBody(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		s.failRequest(w, err)
		return
	}
	sp, err := s.resolveStreamTest(st, &req)
	if err != nil {
		s.failRequest(w, err)
		return
	}
	j, err := s.submit(r.Context(), sp, 0)
	if err != nil {
		s.writeError(w, admitErr(err), err)
		return
	}
	res := await(j)
	obs.Ingest().Tests.Add(1)
	st.RecordTest(testRecord(res, sp))
	if res.Err != "" {
		s.writeError(w, res.Code, errors.New(res.Err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(client.StreamTestResponse{
		TestResult: res,
		StreamID:   st.ID,
		Events:     sp.a.window.Events,
		Distinct:   sp.a.window.Distinct,
		Seed:       sp.seed,
	})
}

// resolveStreamTest resolves a test of the stream as the /v1/test
// request its registration describes (k, ε, preset, seed), with the live
// window as the source. req may override the seed and sets the fan-out
// and deadline.
func (s *Server) resolveStreamTest(st *stream.Stream, req *client.StreamTestRequest) (*runSpec, error) {
	p := st.Cfg.Params
	return s.resolve(&client.TestRequest{
		K: p.K, Eps: p.Eps, Paper: p.Cfg == "paper", Seed: cmp.Or(req.Seed, p.Seed),
		Workers: req.Workers, TimeoutMS: req.TimeoutMS,
	}, func(shuffleSeed uint64) (source, error) { return streamSource("", st, shuffleSeed) })
}

// testRecord condenses a stream test's result into the stream's
// last-test record.
func testRecord(res client.TestResult, sp *runSpec) stream.TestRecord {
	return stream.TestRecord{
		At:       time.Now(),
		Seed:     sp.seed,
		Events:   sp.a.window.Events,
		Distinct: sp.a.window.Distinct,
		Accept:   res.Accept,
		Stage:    res.Stage,
		Err:      res.Err,
	}
}

// streamInfo renders a stream's live state as its wire form.
func streamInfo(st *stream.Stream) client.StreamInfo {
	batches, _ := st.Batches()
	info := client.StreamInfo{
		ID:           st.ID,
		Tenant:       st.Tenant,
		N:            st.Acc.N(),
		K:            st.Cfg.Params.K,
		Eps:          st.Cfg.Params.Eps,
		Seed:         st.Cfg.Params.Seed,
		Dense:        st.Acc.Dense(),
		Shards:       st.Acc.Shards(),
		Generations:  st.Acc.Generations(),
		WindowMS:     st.Cfg.Window.Milliseconds(),
		Created:      st.Created,
		WindowEvents: st.Acc.WindowEvents(),
		TotalEvents:  st.Acc.TotalEvents(),
		Batches:      batches,
		Rotations:    st.Acc.Rotations(),
	}
	if rec, ok := st.LastTest(); ok {
		info.LastTest = &client.StreamTestRecord{
			At:       rec.At,
			Seed:     rec.Seed,
			Events:   rec.Events,
			Distinct: rec.Distinct,
			Accept:   rec.Accept,
			Stage:    rec.Stage,
			Err:      rec.Err,
		}
	}
	return info
}

// janitor drives the registry's time-based behavior on a fixed tick.
func (s *Server) janitor() {
	defer s.workerWG.Done()
	t := time.NewTicker(s.cfg.JanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			s.janitorTick(now)
		}
	}
}

// janitorTick runs one maintenance pass: TTL sweep, window rotations,
// and due periodic re-tests (submitted through the ordinary admission
// path — a full queue skips the beat rather than queue-jumping).
func (s *Server) janitorTick(now time.Time) {
	iv := obs.Ingest()
	if n := s.streams.Sweep(); n > 0 {
		iv.Evictions.Add(int64(n))
	}
	iv.ActiveStreams.Set(int64(s.streams.Len()))
	for _, st := range s.streams.Snapshot() {
		if rot, dropped := st.MaybeRotate(now); rot > 0 {
			iv.Rotations.Add(int64(rot))
			iv.DroppedEvents.Add(dropped)
		}
		if st.DueRetest(now) && !s.Draining() {
			s.scheduleRetest(st)
		}
	}
}

// scheduleRetest submits one automatic re-test for the stream. The
// verdict lands in the stream's last-test record; nobody blocks on it.
func (s *Server) scheduleRetest(st *stream.Stream) {
	sp, err := s.resolveStreamTest(st, &client.StreamTestRequest{})
	if err != nil {
		// An empty window skips this beat, and the clock fires again: the
		// record keeps the last real verdict. Any other refusal (a budget
		// past the guard) is the answer every beat would get, so it is
		// recorded in place of a verdict.
		var br *badRequest
		if !errors.As(err, &br) || br.code != client.ErrCodeNeedMoreSamples {
			st.RecordTest(stream.TestRecord{At: time.Now(), Seed: st.Cfg.Params.Seed, Err: err.Error()})
		}
		return
	}
	j, err := s.submit(context.Background(), sp, 0)
	if err != nil {
		return // queue full or draining: skip this beat, the clock fires again
	}
	go func() {
		res := await(j)
		obs.Ingest().Tests.Add(1)
		st.RecordTest(testRecord(res, sp))
	}()
}
