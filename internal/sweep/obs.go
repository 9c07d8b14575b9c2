package sweep

import (
	"fmt"
	"time"

	"aved/internal/core"
	"aved/internal/obs"
)

// Totals aggregates search effort across a sweep: the cell counts,
// the per-point core.Stats summed over every feasible cell (the
// embedded Stats), and the effort of the infeasible cells (their
// core.InfeasibleError.Stats) summed apart. The CLIs print it as a
// closing line so a long sweep reports how much work it actually did.
//
// Every counter is exact at any worker count: the figure sweeps solve
// their load chains and levels in order on one goroutine. The
// engine-delta fields are the one exception: cells solving at once on
// one shared engine — sensitivity factors on an engine the caller
// passed — split its counters between them arbitrarily. PhaseNanos is
// wall-clock, so it varies from run to run; String omits it.
type Totals struct {
	// Points counts feasible cells (one Solution each); Infeasible
	// counts cells where no design met the requirement.
	Points     int
	Infeasible int
	// Stats sums the feasible cells' effort.
	core.Stats
	// InfeasibleStats sums the effort of the Infeasible cells, which
	// Stats does not count; String omits it.
	InfeasibleStats core.Stats
}

// Add counts one feasible point and folds its effort into Stats.
func (t *Totals) Add(st core.Stats) {
	t.Points++
	t.Stats.Add(st)
}

// AddInfeasible counts one infeasible cell and folds its effort, an
// InfeasibleError's Stats, into InfeasibleStats.
func (t *Totals) AddInfeasible(st core.Stats) {
	t.Infeasible++
	t.InfeasibleStats.Add(st)
}

// String renders the totals as the CLIs' closing line: the cell
// counts and the feasible cells' candidates, pruning, evaluations
// (engine runs and cache replays together) and frontier reuses.
func (t Totals) String() string {
	s := fmt.Sprintf("%d points", t.Points)
	if t.Infeasible > 0 {
		s += fmt.Sprintf(" (%d infeasible)", t.Infeasible)
	}
	s += fmt.Sprintf(": %d candidates, %d cost-pruned, %d bound-pruned, %d evaluations (incl. cache replays)",
		t.CandidatesGenerated, t.CostPruned, t.BoundPruned, t.Evaluations+t.EvalCacheHits)
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
