package sweep

import (
	"fmt"
	"time"

	"aved/internal/core"
	"aved/internal/obs"
)

// Totals aggregates search effort across a sweep: the per-point
// core.Stats summed over every feasible cell, the effort of the
// infeasible cells (their core.InfeasibleError.Stats) summed apart, and
// the cell counts themselves. The CLIs print it as a closing line so a
// long sweep reports how much work it actually did.
//
// Every counter is exact at any worker count: Fig. 6 and Fig. 8 solve
// their load chains in order on one goroutine, and Fig. 7 levels each
// solve on a solver of their own. The engine-delta fields are the one
// exception: cells solving at once on one shared engine — sensitivity
// factors, or Fig. 7 levels, on an engine the caller passed — split
// its counters between them arbitrarily.
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
	// WarmStartReuse sums eval-cache hits on entries an earlier solve on
	// the same solver stored: a Fig. 6 or Fig. 8 cell replaying what an
	// earlier cell of its sweep evaluated, in its own load chain or an
	// earlier one. Zero on Fig. 7, whose levels each have a solver of
	// their own.
	WarmStartReuse int64
	// FrontierReuse sums tier frontiers the cells served from their
	// budget chain's memo instead of building (Fig6/Fig8 run each load
	// as one Solver.SolveChain).
	FrontierReuse int64
	// WalkReuse sums per-tier searches the cells replayed from their
	// chain's memo instead of walking.
	WalkReuse int64

	ModeMemoHits   uint64
	ModeMemoSolves uint64

	SimReplications uint64
	SimBatches      uint64

	// PhaseNanos sums the per-cell Stats.PhaseNanos by phase — where the
	// sweep's solve time went. Nil when timing is off (every cell
	// reported nil). Wall-clock, so it varies from run to run; String
	// omits it.
	PhaseNanos map[string]int64

	// InfeasibleStats sums the effort of the Infeasible cells, which
	// none of the fields above count; String omits it.
	InfeasibleStats core.Stats
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

// AddInfeasible counts one infeasible cell and folds its effort, an
// InfeasibleError's Stats, into InfeasibleStats.
func (t *Totals) AddInfeasible(st core.Stats) {
	t.Infeasible++
	sum := &t.InfeasibleStats
	sum.CandidatesGenerated += st.CandidatesGenerated
	sum.CostPruned += st.CostPruned
	sum.Evaluations += st.Evaluations
	sum.EvalCacheHits += st.EvalCacheHits
	sum.BoundPruned += st.BoundPruned
	sum.WarmStartReuse += st.WarmStartReuse
	sum.FrontierReuse += st.FrontierReuse
	sum.WalkReuse += st.WalkReuse
	sum.ModeMemoHits += st.ModeMemoHits
	sum.ModeMemoSolves += st.ModeMemoSolves
	sum.SimReplications += st.SimReplications
	sum.SimBatches += st.SimBatches
	for phase, ns := range st.PhaseNanos {
		if sum.PhaseNanos == nil {
			sum.PhaseNanos = make(map[string]int64, len(st.PhaseNanos))
		}
		sum.PhaseNanos[phase] += ns
	}
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
