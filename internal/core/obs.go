package core

import (
	"errors"
	"fmt"
	"time"

	"aved/internal/model"
	"aved/internal/obs"
)

// fpHex renders a packed fingerprint for trace events. Only called on
// tracer-enabled paths; the disabled hot path never formats.
func fpHex(fp fp128) string {
	return fmt.Sprintf("%016x%016x", fp.hi, fp.lo)
}

// This file is the solver's observability seam. Everything here is cold
// path: it runs once per Solve, never per candidate. The per-candidate
// hot paths carry only nil-checked tracer emissions and the atomic
// counters they always carried; with Tracer and Metrics unset (the
// default) the search does no event construction and no extra
// allocation, which TestObsDisabledZeroAlloc and BenchmarkEvalTier pin.

// obsInstrumentable is implemented by availability engines that can
// expose internal counters on a metrics registry and emit trace events
// (avail.MarkovEngine, sim.Engine). The interface is structural so core
// carries no dependency on the engine packages.
type obsInstrumentable interface {
	InstrumentObs(reg *obs.Registry, tr obs.Tracer)
}

// memoStatser is implemented by engines with a mode-chain memo
// (avail.MarkovEngine). Used to attribute memo activity to a solve by
// before/after deltas.
type memoStatser interface {
	MemoStats() (hits, solves uint64)
}

// repStatser is implemented by Monte-Carlo engines (sim.Engine). Used
// to attribute replication work to a solve by before/after deltas.
type repStatser interface {
	RepStats() (replications, batches uint64)
}

// solveObs carries one Solve invocation's observability state from
// beginSolve to endSolve: the wall-clock start and the engine-counter
// bases the deltas subtract.
type solveObs struct {
	start    time.Time
	kind     string
	req      model.Requirements
	memoBase [2]uint64
	repBase  [2]uint64
	hasMemo  bool
	hasReps  bool
}

func reqKindString(k model.RequirementKind) string {
	switch k {
	case model.ReqEnterprise:
		return "enterprise"
	case model.ReqJob:
		return "job"
	default:
		return "unknown"
	}
}

// beginSolve captures engine-counter bases (always — Solution.Stats
// surfaces the deltas whether or not tracing is on) and announces the
// search on the tracer.
func (s *Solver) beginSolve(req model.Requirements) solveObs {
	so := solveObs{start: time.Now(), kind: reqKindString(req.Kind), req: req}
	if eng, ok := s.opts.Engine.(memoStatser); ok {
		so.hasMemo = true
		so.memoBase[0], so.memoBase[1] = eng.MemoStats()
	}
	if eng, ok := s.opts.Engine.(repStatser); ok {
		so.hasReps = true
		so.repBase[0], so.repBase[1] = eng.RepStats()
	}
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{
			Ev:      obs.EvSearchStart,
			Service: s.svc.Name,
			Kind:    so.kind,
			Load:    so.req.PeakLoad(),
			Budget:  so.req.MaxAnnualDowntime.Minutes(),
			ReqH:    so.req.MaxJobTime.Hours(),
		})
	}
	return so
}

// endSolve completes the Solve observability: engine deltas into the
// Solution's Stats, search counters and latency into the registry, and
// a terminal search.end or search.error event.
func (s *Solver) endSolve(so solveObs, sol *Solution, err error) (*Solution, error) {
	ns := time.Since(so.start).Nanoseconds()
	ms := obs.DurMS(ns)
	if err != nil {
		if reg := s.opts.Metrics; reg != nil {
			reg.Counter("core.solve_errors").Inc()
			var inf *InfeasibleError
			if errors.As(err, &inf) {
				reg.Counter("core.infeasible").Inc()
			}
			var ce *CanceledError
			if errors.As(err, &ce) {
				reg.Counter("core.solve_canceled").Inc()
			}
		}
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{
				Ev:      obs.EvSearchError,
				Service: s.svc.Name,
				Kind:    so.kind,
				Load:    so.req.PeakLoad(),
				DurNs:   ns,
				MS:      ms,
				Err:     err.Error(),
			})
		}
		return nil, err
	}
	if so.hasMemo {
		h, sv := s.opts.Engine.(memoStatser).MemoStats()
		sol.Stats.ModeMemoHits = h - so.memoBase[0]
		sol.Stats.ModeMemoSolves = sv - so.memoBase[1]
	}
	if so.hasReps {
		r, b := s.opts.Engine.(repStatser).RepStats()
		sol.Stats.SimReplications = r - so.repBase[0]
		sol.Stats.SimBatches = b - so.repBase[1]
	}
	if reg := s.opts.Metrics; reg != nil {
		reg.Counter("core.solves").Inc()
		reg.Counter("core.candidates").Add(int64(sol.Stats.CandidatesGenerated))
		reg.Counter("core.cost_pruned").Add(int64(sol.Stats.CostPruned))
		reg.Counter("core.evaluations").Add(int64(sol.Stats.Evaluations))
		reg.Counter("core.eval_cache_hits").Add(int64(sol.Stats.EvalCacheHits))
		reg.Counter("core.bound_pruned").Add(int64(sol.Stats.BoundPruned))
		reg.Counter("core.warm_reuse").Add(int64(sol.Stats.WarmStartReuse))
		reg.Counter("core.frontier_reuse").Add(int64(sol.Stats.FrontierReuse))
		reg.Counter("core.walk_reuse").Add(int64(sol.Stats.WalkReuse))
		reg.Histogram("core.solve_ms").Observe(ms)
	}
	if tr := s.opts.Tracer; tr != nil {
		tr.Emit(obs.Event{
			Ev:            obs.EvSearchEnd,
			Service:       s.svc.Name,
			Kind:          so.kind,
			Load:          so.req.PeakLoad(),
			Cost:          float64(sol.Cost),
			Down:          sol.DowntimeMinutes,
			JobH:          sol.JobTime.Hours(),
			Candidates:    int64(sol.Stats.CandidatesGenerated),
			Pruned:        int64(sol.Stats.CostPruned),
			Evals:         int64(sol.Stats.Evaluations),
			CacheHits:     int64(sol.Stats.EvalCacheHits),
			BoundPruned:   int64(sol.Stats.BoundPruned),
			WarmReuse:     int64(sol.Stats.WarmStartReuse),
			FrontierReuse: int64(sol.Stats.FrontierReuse),
			WalkReuse:     int64(sol.Stats.WalkReuse),
			MemoHits:      sol.Stats.ModeMemoHits,
			MemoSolves:    sol.Stats.ModeMemoSolves,
			SimReps:       sol.Stats.SimReplications,
			DurNs:         ns,
			MS:            ms,
		})
	}
	return sol, nil
}
