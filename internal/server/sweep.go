package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"aved"
)

// SweepRequest is the body of POST /v1/sweep: regenerate one of the
// paper's evaluation figures over the built-in Fig. 3/4/5 inputs, with
// configurable grid resolution. Sweeps are admitted through the same
// bounded slot pool as solves (one slot per sweep, which runs on one
// goroutine) but are neither deduplicated nor cached — they are batch
// work, not the interactive path.
type SweepRequest struct {
	// Fig selects the figure: 6, 7 or 8.
	Fig int `json:"fig"`
	// Loads and Budgets set the grid resolution for figs 6 and 8.
	Loads   int `json:"loads,omitempty"`
	Budgets int `json:"budgets,omitempty"`
	// Points sets the requirement grid for fig 7.
	Points int `json:"points,omitempty"`
	// Workers bounds the worker pool of sim replications (0 = server
	// default); every figure sweep runs on one goroutine.
	Workers int `json:"workers,omitempty"`

	// EngineParams select the availability engine, as in SolveRequest.
	EngineParams

	// TimeoutMS is the per-request deadline in milliseconds.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// SweepResponse carries the requested figure's data series.
type SweepResponse struct {
	Fig       int              `json:"fig"`
	Fig6      *aved.Fig6Result `json:"fig6,omitempty"`
	Fig7      []aved.Fig7Point `json:"fig7,omitempty"`
	Fig8      []aved.Fig8Curve `json:"fig8,omitempty"`
	ElapsedMS float64          `json:"elapsedMs"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.Counter("server.requests").Inc()
	var req SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, badRequestError{err}, nil)
		return
	}
	if req.Fig < 6 || req.Fig > 8 {
		s.writeError(w, badRequestError{fmt.Errorf("fig must be 6, 7 or 8 (got %d)", req.Fig)}, nil)
		return
	}
	if !s.enter() {
		s.writeError(w, errShuttingDown, nil)
		return
	}
	defer s.inflight.Done()

	ctx := r.Context()
	if d := s.timeout(req.TimeoutMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	ent := s.live.begin("sweep", "")
	defer s.live.done(ent)
	release, err := s.acquire(ctx)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	defer release()
	ent.setPhase("bind")

	resp, err := s.runSweep(ctx, &req, ent)
	if err != nil {
		s.writeError(w, err, nil)
		return
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	resp.ElapsedMS = ms
	s.metrics.Counter("server.ok").Inc()
	s.metrics.Histogram("server.request_ms").Observe(ms)
	writeJSON(w, http.StatusOK, resp)
}

// runSweep builds the figure's solver and grids and runs it under ctx.
// ent mirrors the sweep's progress for /v1/status: the teed tracer
// counts sweep.point events into cellsDone/cellsTotal, so a poller
// sees "cell 37 of 120" style progress on a long figure regeneration.
func (s *Server) runSweep(ctx context.Context, req *SweepRequest, ent *inflightEntry) (*SweepResponse, error) {
	workers := s.workers(req.Workers)
	eng, err := newEngine(req.spec(workers))
	if err != nil {
		return nil, badRequestError{err}
	}
	loads, budgets, points := req.Loads, req.Budgets, req.Points
	if loads == 0 {
		loads = 10
	}
	if budgets == 0 {
		budgets = 12
	}
	if points == 0 {
		points = 15
	}
	resp := &SweepResponse{Fig: req.Fig}
	tracer := aved.TeeTracers(s.cfg.Tracer, ent.progressTracer())
	if req.Fig == 7 {
		inf, svc, err := aved.PaperScenario("scientific")
		if err != nil {
			return nil, err
		}
		solver, err := aved.NewSolver(inf, svc, aved.Options{
			Registry: aved.PaperRegistry(), FixedMechanisms: aved.Bronze(),
			Engine: eng, Metrics: s.metrics, Tracer: tracer,
		})
		if err != nil {
			return nil, err
		}
		grid, err := aved.LogGrid(1, 1000, points)
		if err != nil {
			return nil, badRequestError{err}
		}
		res, err := aved.SweepFig7(ctx, solver, grid)
		if err != nil {
			return nil, err
		}
		resp.Fig7 = res.Points
		return resp, nil
	}
	inf, svc, err := aved.PaperScenario("apptier")
	if err != nil {
		return nil, err
	}
	solver, err := aved.NewSolver(inf, svc, aved.Options{
		Registry: aved.PaperRegistry(), Engine: eng, Metrics: s.metrics, Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	if req.Fig == 6 {
		loadGrid, err := aved.LinGrid(400, 5000, loads)
		if err != nil {
			return nil, badRequestError{err}
		}
		budgetGrid, err := aved.LogGrid(0.1, 10000, budgets)
		if err != nil {
			return nil, badRequestError{err}
		}
		resp.Fig6, err = aved.SweepFig6(ctx, solver, loadGrid, budgetGrid)
		return resp, err
	}
	budgetGrid, err := aved.LogGrid(0.1, 100, budgets)
	if err != nil {
		return nil, badRequestError{err}
	}
	resp.Fig8, err = aved.SweepFig8(ctx, solver, []float64{400, 800, 1600, 3200}, budgetGrid)
	return resp, err
}
