// Package server exposes the design search as a service: an HTTP JSON
// API that accepts infrastructure and service specs plus requirements,
// runs the §4.1 search and returns the minimum-cost design — the
// "availability design service" deployment the paper sketches for a
// computing utility, where design requests arrive continuously and the
// same questions recur as conditions change.
//
// Endpoints:
//
//	POST /v1/solve    one design problem → the optimal design
//	POST /v1/sweep    a Fig. 6/7/8 requirement sweep over paper inputs
//	GET  /v1/healthz  liveness plus admission state
//	GET  /v1/status   live in-flight requests (phase, elapsed, progress)
//	GET  /metrics     the metrics registry — JSON by default, Prometheus
//	                  text with ?format=prom or an Accept preferring
//	                  text/plain
//
// The layer adds what a shared service needs on top of the library:
// admission control (a bounded number of concurrent solves plus a
// bounded wait queue, 429 beyond that), per-request deadlines threaded
// through the whole evaluation stack as a context, cross-request
// deduplication (concurrent identical requests share one search,
// completed ones answer from a bounded cache) and graceful shutdown
// (drain in-flight solves, then abort stragglers).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aved"
)

// Config parameterises a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// MaxConcurrent bounds simultaneously running solves/sweeps.
	// Defaults to GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; beyond it requests
	// are rejected with 429 immediately. Zero defaults to
	// 4 × MaxConcurrent; negative disables queueing entirely.
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeoutMs.
	// Zero means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every per-request deadline (including requests
	// that asked for none). Zero means no cap.
	MaxTimeout time.Duration
	// Workers is the default worker count for sim-engine replications
	// and Fig. 7 sweep levels (0 = all CPUs). Each solve, and each Fig. 6
	// or Fig. 8 sweep, runs on one goroutine.
	Workers int
	// CacheSize bounds the completed-response cache; 0 disables it.
	CacheSize int
	// Metrics receives request counters and latency histograms; nil
	// allocates a private registry (exposed at /metrics either way).
	Metrics *aved.Metrics
	// Tracer, when set, receives the search events of every request.
	Tracer aved.Tracer
	// TraceDir, when set, additionally writes one JSONL trace stream
	// per request to req-<id>.jsonl files in this directory.
	TraceDir string
}

// Server is the service state shared across requests.
type Server struct {
	cfg     Config
	metrics *aved.Metrics
	group   *flightGroup

	sem    chan struct{}
	queued atomic.Int64
	live   inflightSet

	baseCtx    context.Context
	baseCancel context.CancelFunc
	inflight   sync.WaitGroup
	draining   atomic.Bool

	reqSeq atomic.Uint64
}

var (
	errOverloaded   = errors.New("server: overloaded: concurrency and queue limits reached")
	errShuttingDown = errors.New("server: shutting down")
)

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.Metrics == nil {
		cfg.Metrics = aved.NewMetrics()
	}
	s := &Server{
		cfg:     cfg,
		metrics: cfg.Metrics,
		group:   newFlightGroup(cfg.CacheSize),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		aved.WriteMetricsHTTP(w, r, s.metrics)
	})
	return mux
}

// Shutdown drains the server: new requests are refused, in-flight
// solves run to completion. If ctx expires first, the remaining solves
// are aborted through their contexts (they return promptly with
// context.Canceled) and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Close aborts everything immediately.
func (s *Server) Close() {
	s.draining.Store(true)
	s.baseCancel()
	s.inflight.Wait()
}

// acquire claims a solve slot, waiting in the bounded queue when the
// pool is busy. The returned release func must be called exactly once.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return nil, errOverloaded
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		return nil, errShuttingDown
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":  status,
		"running": len(s.sem),
		"queued":  s.queued.Load(),
	})
}

// badRequestError marks client errors (malformed specs, unknown knobs)
// for the 400 mapping.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Counter("server.requests").Inc()
	var req SolveRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, badRequestError{err}, nil)
		return
	}
	if err := req.validate(); err != nil {
		s.writeError(w, badRequestError{err}, nil)
		return
	}
	key := req.fingerprint()
	if !req.NoCache {
		if resp, ok := s.group.lookup(key); ok {
			s.metrics.Counter("server.cache_hits").Inc()
			out := *resp
			out.Cached = true
			s.finishSolve(w, &out, start)
			return
		}
	}
	if s.draining.Load() {
		s.writeError(w, errShuttingDown, nil)
		return
	}

	// The request context carries the effective deadline; the client
	// dropping the connection cancels it too.
	ctx := r.Context()
	if d := s.timeout(req.TimeoutMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	f, joined := s.group.join(key), true
	if f == nil {
		f, joined = s.startFlight(key, &req)
	}
	if joined {
		s.metrics.Counter("server.singleflight_joined").Inc()
	}

	select {
	case <-f.done:
		if f.err != nil {
			s.writeError(w, f.err, nil)
			return
		}
		out := *f.resp
		out.Shared = joined
		s.finishSolve(w, &out, start)
	case <-ctx.Done():
		last := s.group.leave(f)
		s.metrics.Counter("server.abandoned").Inc()
		if last {
			// We just canceled the shared solve; it aborts through its
			// per-candidate context checks within moments. Wait for it
			// so the reply carries the partial search statistics.
			select {
			case <-f.done:
				if f.err == nil {
					// The solve beat the cancellation; serve it.
					out := *f.resp
					out.Shared = joined
					s.finishSolve(w, &out, start)
					return
				}
				if isCtxErr(f.err) {
					// Our leaving canceled the solve, possibly before its
					// own copy of our deadline fired: report our reason
					// with the solve's partial statistics.
					var ce *aved.CanceledError
					if errors.As(f.err, &ce) {
						s.writeError(w, &aved.CanceledError{Stats: ce.Stats, Err: ctx.Err()}, nil)
						return
					}
					s.writeError(w, f.err, nil)
					return
				}
			case <-time.After(2 * time.Second):
			}
		}
		s.writeError(w, ctx.Err(), nil)
	}
}

// startFlight registers and launches the shared solve for req. The
// solve runs in its own goroutine under a context detached from any
// single request: it is canceled when the last waiter leaves or the
// server shuts down, and bounded by the owning request's effective
// deadline. The second return reports whether the caller joined a
// racing flight instead of owning a new one.
func (s *Server) startFlight(key reqFP, req *SolveRequest) (*flight, bool) {
	var (
		fctx    context.Context
		fcancel context.CancelFunc
	)
	if d := s.timeout(req.TimeoutMS); d > 0 {
		fctx, fcancel = context.WithTimeout(s.baseCtx, d)
	} else {
		fctx, fcancel = context.WithCancel(s.baseCtx)
	}
	f, owner := s.group.begin(key, fcancel)
	if !owner {
		return f, true
	}
	if s.draining.Load() {
		s.group.settle(key, f, nil, errShuttingDown, false)
		fcancel()
		return f, false
	}
	s.inflight.Add(1)
	reqCopy := *req
	go func() {
		defer s.inflight.Done()
		defer fcancel()
		ent := s.live.begin("solve", key.hex())
		defer s.live.done(ent)
		resp, err := s.runSolve(fctx, &reqCopy, ent)
		s.group.settle(key, f, resp, err, isCtxErr(err))
	}()
	return f, false
}

// runSolve executes one admitted solve end to end: admission slot,
// model binding, solver construction, search. ent mirrors the solve's
// progress for /v1/status: "queued" until the slot is claimed, "bind"
// through model construction, then the solver's own phases as its
// trace reports them.
func (s *Server) runSolve(ctx context.Context, req *SolveRequest, ent *inflightEntry) (*SolveResponse, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	ent.setPhase("bind")

	inf, svc, err := req.models()
	if err != nil {
		return nil, badRequestError{err}
	}
	reqs, err := req.requirements()
	if err != nil {
		return nil, badRequestError{err}
	}
	eng, err := newEngine(req.spec(s.workers(req.Workers)))
	if err != nil {
		return nil, badRequestError{err}
	}
	search, err := req.searchMode()
	if err != nil {
		return nil, badRequestError{err}
	}
	tracer, closeTrace, err := s.requestTracer()
	if err != nil {
		return nil, err
	}
	defer closeTrace()
	opts := aved.Options{
		Registry:           aved.PaperRegistry(),
		Engine:             eng,
		Search:             search,
		ExploreSpareWarmth: req.WarmSpares,
		Metrics:            s.metrics,
		Tracer:             aved.TeeTracers(tracer, ent.progressTracer()),
	}
	if req.Bronze {
		opts.FixedMechanisms = aved.Bronze()
	}
	solver, err := aved.NewSolver(inf, svc, opts)
	if err != nil {
		return nil, badRequestError{err}
	}
	sol, err := solver.SolveContext(ctx, reqs)
	if err != nil {
		return nil, err
	}
	return buildResponse(sol, reqs), nil
}

// newEngine builds a request's availability engine; a variable so
// tests can observe the spec a request resolves to.
var newEngine = aved.NewEngine

// workers resolves a request's worker count: its own, else the server
// default.
func (s *Server) workers(n int) int {
	if n == 0 {
		return s.cfg.Workers
	}
	return n
}

// timeout resolves a request's effective deadline: its own timeoutMs,
// else the server default, capped by the server maximum in either
// case. Zero means no deadline.
func (s *Server) timeout(timeoutMS int64) time.Duration {
	d := time.Duration(timeoutMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if max := s.cfg.MaxTimeout; max > 0 && (d <= 0 || d > max) {
		d = max
	}
	return d
}

// requestTracer assembles the per-request trace sink: the shared
// tracer, plus a dedicated JSONL stream in TraceDir when configured.
func (s *Server) requestTracer() (aved.Tracer, func(), error) {
	if s.cfg.TraceDir == "" {
		return s.cfg.Tracer, func() {}, nil
	}
	id := s.reqSeq.Add(1)
	path := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("req-%06d.jsonl", id))
	jt, err := aved.NewJSONLFileTracer(path)
	if err != nil {
		return nil, nil, fmt.Errorf("server: request trace: %w", err)
	}
	return aved.TeeTracers(s.cfg.Tracer, jt), func() {
		if cerr := jt.Close(); cerr != nil {
			s.metrics.Counter("server.trace_errors").Inc()
		}
	}, nil
}

// finishSolve writes a success response.
func (s *Server) finishSolve(w http.ResponseWriter, resp *SolveResponse, start time.Time) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	resp.ElapsedMS = ms
	s.metrics.Counter("server.ok").Inc()
	s.metrics.Histogram("server.request_ms").Observe(ms)
	writeJSON(w, http.StatusOK, resp)
}

// writeError maps an error to its status code and JSON body.
func (s *Server) writeError(w http.ResponseWriter, err error, _ *SolveRequest) {
	s.metrics.Counter("server.errors").Inc()
	resp := ErrorResponse{Error: err.Error(), Kind: "internal"}
	code := http.StatusInternalServerError
	var (
		bad badRequestError
		inf *aved.InfeasibleError
		ce  *aved.CanceledError
	)
	switch {
	case errors.As(err, &bad):
		code, resp.Kind = http.StatusBadRequest, "bad_request"
	case errors.As(err, &inf):
		code, resp.Kind = http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, errOverloaded):
		code, resp.Kind = http.StatusTooManyRequests, "overloaded"
		s.metrics.Counter("server.rejected_overload").Inc()
	case errors.Is(err, errShuttingDown):
		code, resp.Kind = http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, context.DeadlineExceeded):
		code, resp.Kind = http.StatusGatewayTimeout, "canceled"
		s.metrics.Counter("server.deadline_exceeded").Inc()
	case errors.Is(err, context.Canceled):
		code, resp.Kind = http.StatusServiceUnavailable, "canceled"
	}
	if errors.As(err, &ce) {
		st := statsReport(ce.Stats)
		resp.Stats = &st
	}
	writeJSON(w, code, resp)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}
