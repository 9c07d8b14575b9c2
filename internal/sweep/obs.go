package sweep

import (
	"fmt"
	"time"

	"aved/internal/core"
	"aved/internal/obs"
)

// Totals aggregates search effort across a sweep: the per-point
// core.Stats summed over every feasible cell, plus the cell counts
// themselves. An infeasible cell adds to Infeasible only: its solve
// returns an InfeasibleError without Stats, so the effort it spent is
// in none of the sums. The CLIs print it as a closing line so a long
// sweep reports how much work it actually did.
//
// Determinism caveat: cells share the solver's singleflight eval cache
// and its engine, so which cell's solve executes a miss (vs replaying
// it as a hit) and how engine deltas split between overlapping solves
// are scheduling-dependent — only Points/Infeasible, Candidates,
// CostPruned, and the sum Evaluations+EvalCacheHits are exact at any
// worker count. String prints exactly that projection, keeping CLI
// output byte-identical across worker counts; the raw split and the
// engine-delta fields remain available here as approximations.
type Totals struct {
	// Points counts feasible cells (one Solution each); Infeasible
	// counts cells where no design met the requirement.
	Points     int
	Infeasible int

	Candidates    int64
	CostPruned    int64
	BoundPruned   int64
	Evaluations   int64
	EvalCacheHits int64
	// WarmStartReuse sums eval-cache hits on earlier solves' entries; on
	// a sequential sweep it is exact, with concurrently
	// overlapping solves on one solver it is a scheduling-dependent
	// approximation like the raw hit/miss split.
	WarmStartReuse int64
	// FrontierReuse sums tier frontiers the cells served from their
	// budget chain's memo instead of building (Fig6/Fig8 run each load
	// as one Solver.SolveChain). Each memo is private to its chain, so
	// unlike the raw hit/miss split this is exact at any worker count.
	FrontierReuse int64
	// WalkReuse sums per-tier searches the cells replayed from their
	// chain's memo instead of walking; exact at any worker count for the
	// same reason as FrontierReuse.
	WalkReuse int64

	ModeMemoHits   uint64
	ModeMemoSolves uint64

	SimReplications uint64
	SimBatches      uint64

	// PhaseNanos sums the per-cell Stats.PhaseNanos by phase — where the
	// sweep's solve time went. Nil when timing is off (every cell
	// reported nil). Wall-clock, so scheduling-dependent like the raw
	// hit/miss split; String deliberately omits it.
	PhaseNanos map[string]int64
}

// Add folds one feasible point's solve statistics into the totals.
func (t *Totals) Add(st core.Stats) {
	t.Points++
	t.Candidates += int64(st.CandidatesGenerated)
	t.CostPruned += int64(st.CostPruned)
	t.BoundPruned += int64(st.BoundPruned)
	t.Evaluations += int64(st.Evaluations)
	t.EvalCacheHits += int64(st.EvalCacheHits)
	t.WarmStartReuse += int64(st.WarmStartReuse)
	t.FrontierReuse += int64(st.FrontierReuse)
	t.WalkReuse += int64(st.WalkReuse)
	t.ModeMemoHits += st.ModeMemoHits
	t.ModeMemoSolves += st.ModeMemoSolves
	t.SimReplications += st.SimReplications
	t.SimBatches += st.SimBatches
	if len(st.PhaseNanos) > 0 {
		if t.PhaseNanos == nil {
			t.PhaseNanos = make(map[string]int64, len(st.PhaseNanos))
		}
		for phase, ns := range st.PhaseNanos {
			t.PhaseNanos[phase] += ns
		}
	}
}

// String renders the totals as the CLIs' closing line — only the
// scheduling-independent projection (see the type comment), so the
// line diffs clean across worker counts.
func (t Totals) String() string {
	s := fmt.Sprintf("%d points", t.Points)
	if t.Infeasible > 0 {
		s += fmt.Sprintf(" (%d infeasible)", t.Infeasible)
	}
	s += fmt.Sprintf(": %d candidates, %d cost-pruned, %d bound-pruned, %d evaluations (incl. cache replays)",
		t.Candidates, t.CostPruned, t.BoundPruned, t.Evaluations+t.EvalCacheHits)
	if t.FrontierReuse > 0 {
		// Only when the sweep actually reused frontiers, so sweeps that
		// never enter the combination phase print unchanged.
		s += fmt.Sprintf(", %d frontier reuses", t.FrontierReuse)
	}
	return s
}

// PointObs instruments per-cell sweep progress: one sweep.point trace
// event and a set of registry counters for every grid cell, feasible
// or not. The figure sweeps and the sensitivity package share it. The
// zero value (no tracer, no registry) is inert and skips even the
// clock reads, keeping untraced sweeps free.
type PointObs struct {
	tr    obs.Tracer
	reg   *obs.Registry
	total int
}

// NewPointObs builds the per-cell instrumentation for a sweep of total
// cells. When a registry is present the sweep.total gauge is set up
// front so /metrics pollers see the progress denominator immediately.
func NewPointObs(tr obs.Tracer, reg *obs.Registry, total int) PointObs {
	if reg != nil {
		reg.Gauge("sweep.total").Set(float64(total))
	}
	return PointObs{tr: tr, reg: reg, total: total}
}

// solverPointObs wires PointObs to the sweep's solver, picking up the
// tracer and registry its options carry.
func solverPointObs(s *core.Solver, total int) PointObs {
	return NewPointObs(s.Tracer(), s.Metrics(), total)
}

func (p PointObs) on() bool { return p.tr != nil || p.reg != nil }

// Begin marks the start of one cell. The zero time when observability
// is off keeps the disabled path clock-free.
func (p PointObs) Begin() time.Time {
	if !p.on() {
		return time.Time{}
	}
	return time.Now()
}

// Done records one finished cell. ev carries the cell's coordinates
// and outcome (Err "infeasible" for cells with no design); Done fills
// in the event type, the 1-based grid position and the timing, and
// bumps the sweep.* registry counters.
func (p PointObs) Done(i int, start time.Time, ev obs.Event) {
	if !p.on() {
		return
	}
	ns := time.Since(start).Nanoseconds()
	ms := obs.DurMS(ns)
	if p.reg != nil {
		p.reg.Counter("sweep.points").Inc()
		if ev.Err != "" {
			p.reg.Counter("sweep.infeasible").Inc()
		}
		p.reg.Histogram("sweep.point_ms").Observe(ms)
	}
	if p.tr != nil {
		ev.Ev = obs.EvSweepPoint
		ev.Index = i + 1
		ev.Total = p.total
		ev.DurNs = ns
		ev.MS = ms
		p.tr.Emit(ev)
	}
}
