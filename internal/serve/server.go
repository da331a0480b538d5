// Package serve implements the histd serving layer: an HTTP/JSON front
// end over the core tester (repro/internal/core) with a bounded worker
// pool, admission control, per-request deadlines, and graceful drain.
//
// Request lifecycle:
//
//	admission (queue slot or 429) → queue → worker (per-worker Arena,
//	core.TestContext under the request's context) → response
//
// Each worker owns one core.Arena for its whole lifetime, so the
// steady-state serving path inherits the allocation-free hot path of the
// arena/pool work (PR 2): after the first few requests per worker, a
// served run performs the same ~10² allocations a direct Arena.Test call
// does. Cancellation (client disconnect, per-request deadline, drain
// hard-stop) flows through core.TestContext's cancellation points, so a
// cancelled run returns within one sieve round and releases every pooled
// Counts buffer it acquired.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/histtest/client"
	"repro/internal/closeness"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rng"
	"repro/internal/stream"
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default, applied by New.
type Config struct {
	// Workers is the worker-pool size — the number of tester runs
	// executing concurrently. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// beyond the ones running. A full queue is the admission-control
	// signal: further requests get 429 + Retry-After. 0 means 2×Workers.
	QueueDepth int
	// DefaultTimeout is the per-request deadline applied when the request
	// does not set one. 0 means 30s; negative means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied deadlines. 0 means 5m.
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429/503 responses. 0 means 1s.
	RetryAfter time.Duration
	// SieveWorkers caps the WITHIN-request sieve fan-out a request may ask
	// for (TestRequest.Workers). Requests opt in per call (Workers > 1 in
	// the request); this only bounds what they may ask for. Now that the
	// sieve fan-out is de-contended (padded replicate rows, chunked
	// assignment, per-worker tallies) the cap is purely a
	// latency/throughput trade — results are bit-identical at every
	// worker count. The default (0) divides the machine among the pool:
	// max(1, GOMAXPROCS/Workers), so a saturated pool whose every
	// request opts in runs at most ~GOMAXPROCS sieve goroutines instead
	// of Workers×GOMAXPROCS. Set an explicit positive value to allow
	// more (favoring single-request latency over aggregate throughput),
	// 1 or a negative value to force every served sieve serial.
	SieveWorkers int
	// MaxBatch bounds the sub-requests of one /v1/test/stream call.
	// 0 means 256.
	MaxBatch int
	// MaxBodyBytes bounds request bodies. 0 means 1<<26 (64 MiB, roomy
	// enough for large replay datasets).
	MaxBodyBytes int64
	// MaxSamplers bounds the registered-sampler table. 0 means 1024.
	MaxSamplers int
	// Observer, when non-nil, receives every served run's stage events
	// (e.g. an obs.JSONLines sink behind histd's -trace-json flag). The
	// process-wide obs.Expvar sink is always attached alongside it, so
	// /debug/vars carries live per-stage counters either way.
	Observer obs.Observer
	// MaxSamplesPerRun overrides the testers' MaxSamples, guarding the
	// service against requests whose nominal budget is astronomical:
	// they are refused with 400 at admission. 0 keeps the testers'
	// default (2³¹).
	MaxSamplesPerRun int64
	// ClosenessReps is the default majority-amplification replicate
	// count of /v1/closeness runs (requests may override per call).
	// 0 means 5; negative forces single-shot (reps = 1).
	ClosenessReps int

	// MaxStreams bounds the live ingestion-stream count across all
	// tenants. 0 means stream.DefaultMaxStreams (256).
	MaxStreams int
	// StreamTenantQuota bounds one tenant's streams. 0 means
	// stream.DefaultTenantQuota (32).
	StreamTenantQuota int
	// StreamTTL evicts streams idle (no ingest, test, or lookup) for
	// this long. 0 means stream.DefaultStreamTTL (15m).
	StreamTTL time.Duration
	// IngestQueue bounds concurrently decoding ingest bodies; beyond it
	// batches are pushed back with 429 + Retry-After before any body
	// byte is read. 0 means 2×Workers.
	IngestQueue int
	// JanitorInterval is the tick of the maintenance goroutine (TTL
	// sweep, window rotation, periodic re-tests). 0 means 100ms;
	// negative disables the janitor (tests drive the registry clock
	// directly).
	JanitorInterval time.Duration
}

// withDefaults resolves the zero-value fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SieveWorkers == 0 {
		// Default cap: effective Workers × SieveWorkers stays at
		// GOMAXPROCS. Workers is already resolved above, so the division
		// is against the real pool size.
		c.SieveWorkers = runtime.GOMAXPROCS(0) / c.Workers
	}
	if c.SieveWorkers < 1 {
		c.SieveWorkers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 26
	}
	if c.MaxSamplers <= 0 {
		c.MaxSamplers = 1024
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 2 * c.Workers
	}
	if c.MaxSamplesPerRun <= 0 {
		c.MaxSamplesPerRun = 1 << 31 // the default guard of both testers
	}
	if c.ClosenessReps == 0 {
		c.ClosenessReps = 5
	}
	if c.ClosenessReps < 1 {
		c.ClosenessReps = 1
	}
	if c.JanitorInterval == 0 {
		c.JanitorInterval = 100 * time.Millisecond
	}
	return c
}

// errOverloaded is the admission-control rejection; the HTTP layer maps
// it to 429 + Retry-After.
var errOverloaded = errors.New("serve: queue full")

// errDraining is the drain rejection; the HTTP layer maps it to 503.
var errDraining = errors.New("serve: draining")

// job is one admitted tester run traveling from the HTTP handler to a
// worker and back. Its context carries the per-request deadline, started
// at ADMISSION (see enqueue) so queue wait burns the request's own
// budget rather than extending it.
type job struct {
	ctx     context.Context
	cancel  context.CancelFunc // releases the deadline timer; called by the worker
	spec    *runSpec
	index   int
	started chan struct{}          // closed when a worker dequeues the job
	result  chan client.TestResult // buffered(1); the worker always delivers
}

// await returns the job's result, or answers early with a cancellation
// result if the job's context dies while the job is still QUEUED.
// Without the early arm, a request whose deadline expired in the queue
// would not be answered until a worker got around to dequeuing it — the
// end-to-end latency the deadline was supposed to bound. Once a worker
// owns the job, await always returns the worker's settled result: the
// cancellation reaches the run's context checks and the worker delivers
// within one sieve round, and waiting for it keeps the long-standing
// invariant that responses are written only after the run has fully
// unwound (its pooled buffers released, its counters settled). The
// result channel is buffered, so a delivery to an early-answered job is
// never stranded.
func await(j *job) client.TestResult {
	select {
	case res := <-j.result:
		return res
	case <-j.ctx.Done():
		// A result may already be sitting in the buffer with the context
		// done at the same time — enqueue's drain rejection delivers its
		// ErrCodeDraining result right after cancelling the admission
		// deadline, so both arms of the outer select are ready and Go
		// picks one at random. Prefer the delivered result: it is the
		// job's real answer, and synthesizing a cancellation here would
		// turn a retryable 503 into a terminal 504.
		select {
		case res := <-j.result:
			return res
		default:
		}
		select {
		case <-j.started:
			return <-j.result
		default:
			return errorResult(j.index, client.ErrCodeCanceled, j.ctx.Err())
		}
	}
}

// Server runs tester requests on a bounded worker pool. Create with New,
// serve via Handler, stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg  Config
	jobs chan *job

	// slots is the admission semaphore: one token per queueable request.
	// Tokens are acquired non-blockingly at admission (failure → 429) and
	// released when a worker dequeues the job, so at most QueueDepth
	// requests ever wait beyond the Workers running ones. A semaphore —
	// rather than relying on the jobs channel's capacity — lets the
	// streaming endpoint reserve a whole batch atomically.
	slots chan struct{}

	mu       sync.Mutex // guards closed / the jobs channel close
	closed   bool
	draining chan struct{} // closed by StartDraining
	drainOne sync.Once

	hardStop   context.Context // cancelled to abort in-flight runs at drain deadline
	hardCancel context.CancelFunc

	workerWG sync.WaitGroup

	samplers samplerTable

	// streams is the ingestion-stream registry; ingestSlots its
	// admission semaphore (one token per concurrently decoding batch);
	// janitorStop ends the maintenance goroutine at drain.
	streams     *stream.Registry
	ingestSlots chan struct{}
	janitorStop chan struct{}
}

// New starts a Server's worker pool and returns it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	// obs.Expvar feeds /debug/vars; attaching observers never changes a
	// run's decision or Trace, so served results stay bit-identical to
	// direct core.Test calls.
	cfg.Observer = obs.Multi(cfg.Observer, obs.Expvar())
	hardStop, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		jobs:       make(chan *job, cfg.QueueDepth),
		slots:      make(chan struct{}, cfg.QueueDepth),
		draining:   make(chan struct{}),
		hardStop:   hardStop,
		hardCancel: hardCancel,
	}
	s.samplers.init(cfg.MaxSamplers)
	s.streams = stream.NewRegistry(stream.RegistryConfig{
		MaxStreams:  cfg.MaxStreams,
		TenantQuota: cfg.StreamTenantQuota,
		TTL:         cfg.StreamTTL,
	})
	s.ingestSlots = make(chan struct{}, cfg.IngestQueue)
	s.janitorStop = make(chan struct{})
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	if cfg.JanitorInterval > 0 {
		s.workerWG.Add(1)
		go s.janitor()
	}
	return s
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// StartDraining flips the server into drain mode: /healthz turns 503 and
// every subsequent admission is rejected with ErrCodeDraining. Queued and
// in-flight runs are unaffected; call Drain to wait for them.
func (s *Server) StartDraining() {
	s.drainOne.Do(func() { close(s.draining) })
}

// Drain gracefully shuts the pool down: stop admitting, let queued and
// in-flight runs finish, and return when the pool is idle. If ctx expires
// first, every outstanding run is hard-cancelled (the cancellation
// reaches core.TestContext's per-round checks, so workers return within
// one sieve round) and Drain waits for them before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDraining()
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.janitorStop)
		close(s.jobs)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-idle
		return ctx.Err()
	}
}

// Close shuts the pool down immediately: in-flight runs are cancelled at
// their next cancellation point and the pool is waited for.
func (s *Server) Close() {
	s.hardCancel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}

// submit admits one resolved request: a queue slot is acquired
// non-blockingly (errOverloaded when the queue is full) and the job is
// enqueued. The caller receives the worker's verdict on job.result.
func (s *Server) submit(ctx context.Context, spec *runSpec, index int) (*job, error) {
	if s.Draining() {
		return nil, errDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		vars().overloaded.Add(1)
		return nil, errOverloaded
	}
	return s.enqueue(ctx, spec, index), nil
}

// reserve atomically acquires n queue slots, or none.
func (s *Server) reserve(n int) bool {
	for i := 0; i < n; i++ {
		select {
		case s.slots <- struct{}{}:
		default:
			for ; i > 0; i-- {
				<-s.slots
			}
			vars().overloaded.Add(1)
			return false
		}
	}
	return true
}

// enqueue places a job whose slot is already reserved. The jobs channel
// has the same capacity as the semaphore, so the send cannot block; the
// mutex serializes it against the close in Drain.
//
// The per-request deadline is applied HERE, at admission — not when a
// worker dequeues the job. Starting the clock at dequeue time meant a
// request could wait in the queue indefinitely and then still receive
// its full budget, so the end-to-end latency a client asked to bound
// could far exceed the deadline (TestSaturatedQueueHonorsDeadline pins
// the fixed behavior).
func (s *Server) enqueue(ctx context.Context, spec *runSpec, index int) *job {
	cancel := context.CancelFunc(func() {})
	if spec.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, spec.timeout)
	}
	j := &job{ctx: ctx, cancel: cancel, spec: spec, index: index, started: make(chan struct{}), result: make(chan client.TestResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.slots
		cancel()
		j.result <- errorResult(index, client.ErrCodeDraining, errDraining)
		return j
	}
	vars().queueDepth.Add(1)
	s.jobs <- j
	s.mu.Unlock()
	return j
}

// worker executes queued jobs until the channel closes. Each worker owns
// one Arena for its lifetime — the arena/pool reuse that keeps the
// steady-state serving path allocation-free.
func (s *Server) worker() {
	defer s.workerWG.Done()
	arena := core.NewArena()
	ct := closeness.NewTester() // two-sample scratch, same per-worker reuse
	for j := range s.jobs {
		vars().queueDepth.Add(-1)
		<-s.slots
		close(j.started)
		j.result <- s.execute(arena, ct, j)
	}
}

// execute runs one job on the given arena, mapping every outcome —
// verdict, replay exhaustion, cancellation, failure — to a wire
// TestResult. It is the one place a run's failure becomes a wire code.
func (s *Server) execute(arena *core.Arena, ct *closeness.Tester, j *job) (res client.TestResult) {
	start := time.Now()
	defer func() {
		res.ElapsedMS = time.Since(start).Milliseconds()
		switch {
		case res.Err != "":
			if res.Code == client.ErrCodeCanceled {
				vars().runsCanceled.Add(1)
			} else {
				vars().runsFailed.Add(1)
			}
		case res.Accept:
			vars().runsAccept.Add(1)
		default:
			vars().runsReject.Add(1)
		}
	}()

	// The run's context merges the job's (client disconnect, per-request
	// deadline — started at admission, see enqueue) with the server's
	// hard-stop (drain deadline): whichever fires first aborts the run at
	// the tester's next cancellation point.
	defer j.cancel()
	mctx, mcancel := mergeContexts(j.ctx, s.hardStop)
	defer mcancel()

	// A replay source running out of recorded samples panics with
	// oracle.ErrReplayExhausted; that — and only that — panic is
	// ErrCodeNeedMoreSamples, mirroring histtest.TestSamples. Any other
	// panic is a server bug, contained as ErrCodeInternal rather than
	// killing the pool (the oracle layer's releaseOnPanic has already
	// released a panicking batch's pooled counts).
	defer func() {
		if r := recover(); r != nil {
			if r == oracle.ErrReplayExhausted {
				res = errorResult(j.index, client.ErrCodeNeedMoreSamples, j.spec.exhausted())
				return
			}
			res = errorResult(j.index, client.ErrCodeInternal, fmt.Errorf("panic: %v", r))
		}
	}()

	var err error
	if j.spec.pair != nil {
		res, err = runCloseness(mctx, ct, j.spec)
	} else {
		res, err = runOne(mctx, arena, j.spec, s.cfg.Observer)
	}
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return errorResult(j.index, client.ErrCodeCanceled, err)
	case err != nil:
		return errorResult(j.index, client.ErrCodeInternal, err)
	}
	res.Index = j.index
	return res
}

// mergeContexts returns a context cancelled when either parent is.
func mergeContexts(a, b context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(a)
	stop := context.AfterFunc(b, cancel)
	return ctx, func() { stop(); cancel() }
}

// runOne runs a resolved one-sample request on the worker's arena and
// converts its result to the wire form.
func runOne(ctx context.Context, arena *core.Arena, sp *runSpec, ob obs.Observer) (client.TestResult, error) {
	cfg := sp.cfg
	cfg.Observer = ob
	result, err := arena.TestContext(ctx, sp.a.o, rng.New(sp.seed), sp.k, sp.eps, cfg)
	if err != nil {
		return client.TestResult{}, err
	}
	tr := result.Trace
	return client.TestResult{
		Accept:      result.Accept,
		SamplesUsed: sp.a.o.Samples(),
		Stage:       tr.RejectStage,
		Detail:      tr.RejectReason,
		Trace: &client.Trace{
			N:                tr.N,
			K:                tr.K,
			B:                tr.B,
			SieveRoundsRun:   tr.SieveRoundsRun,
			PartitionSamples: tr.PartitionSamples,
			LearnSamples:     tr.LearnSamples,
			SieveSamples:     tr.SieveSamples,
			TestSamples:      tr.TestSamples,
			RemovedHeavy:     tr.RemovedHeavy,
			HeavySingletons:  tr.HeavySingletons,
			RemovedRounds:    tr.RemovedRounds,
			RemovedMass:      tr.RemovedMass,
			CheckRelaxed:     tr.CheckRelaxed,
			FinalZ:           tr.FinalZ,
			FinalThresh:      tr.FinalThresh,
			RejectStage:      tr.RejectStage,
			RejectReason:     tr.RejectReason,
		},
	}, nil
}

// errorResult wraps a failure as a wire result.
func errorResult(index int, code string, err error) client.TestResult {
	return client.TestResult{Index: index, Err: err.Error(), Code: code}
}
