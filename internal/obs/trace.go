// Package obs is Aved's observability layer: a concurrent metrics
// registry (counters, gauges, log-bucketed histograms), a structured
// trace facility emitting typed search events, and optional runtime
// debug endpoints (net/http/pprof, expvar, a /metrics JSON snapshot).
//
// The package is dependency-light by design — standard library only —
// so every internal layer (core, avail, sim, sweep, sensitivity) can
// import it without cycles. Instrumentation is off by default and free
// when off: hot paths guard every emission behind a nil check, the
// registry's hot-path increments are single atomic adds, and the
// solver's disabled path is pinned at zero allocations by tests in the
// instrumented packages.
package obs

import "sync"

// Event types, forming the search-trace taxonomy. Names are dotted
// "<subsystem>.<what>" strings so JSONL consumers can filter on
// prefixes.
const (
	// EvSearchStart opens one Solver.Solve: service, requirement kind
	// and the requirement values.
	EvSearchStart = "search.start"
	// EvSearchEnd closes a successful solve: the winning cost, the
	// achieved downtime or job time, the final search counters and the
	// wall-clock milliseconds.
	EvSearchEnd = "search.end"
	// EvSearchError closes a failed solve (infeasible included).
	EvSearchError = "search.error"
	// EvPhaseStart/EvPhaseEnd bracket one solver phase ("tier-search",
	// "frontier", "combine", "job-search"); the end event carries the
	// phase's elapsed milliseconds.
	EvPhaseStart = "phase.start"
	EvPhaseEnd   = "phase.end"
	// EvTierDone reports one tier finishing within a phase, with the
	// tier's own elapsed milliseconds.
	EvTierDone = "tier.done"
	// EvCandGen is one complete candidate design generated (tier,
	// resource, counts, cost).
	EvCandGen = "cand.gen"
	// EvCandPrune is a candidate rejected on cost alone, without an
	// availability evaluation.
	EvCandPrune = "cand.prune"
	// EvBoundPrune is a candidate rejected by an admissible
	// branch-and-bound bound without an availability evaluation: the
	// sorted within-size tail dearer than the incumbent, or a whole
	// frontier size subtree over the combination cost threshold.
	EvBoundPrune = "bound.prune"
	// EvWarmReuse is an eval-cache hit on an entry computed by an
	// earlier solve on the same solver — a grid sweep cell replaying an
	// earlier cell's evaluation. Always paired with an eval.hit for the
	// same fingerprint.
	EvWarmReuse = "warm.reuse"
	// EvFrontierReuse is a whole tier frontier served from the walk and
	// frontier memo that every Solver.SolveChain budget chain on one
	// solver shares, instead of rebuilt: Tier names the tier and FP
	// carries the frontier key. The replay charges no candidates,
	// pruning or evaluations.
	EvFrontierReuse = "frontier.reuse"
	// EvWalkReuse is one per-tier search replayed from the walk and
	// frontier memo the Solver.SolveChain budget chains of one solver
	// share, instead of walked: an earlier walk of the same tier
	// candidate space, keyed FP, at this load or another, covered the
	// requested budget. The replay charges no candidates, pruning or
	// evaluations.
	EvWalkReuse = "walk.reuse"
	// EvEvalMiss is an availability evaluation actually run by the
	// engine (an eval-cache miss); EvEvalHit is a request served from
	// the fingerprint cache. The final whole-design evaluation is
	// emitted as a miss with Tier "design".
	EvEvalMiss = "eval.miss"
	EvEvalHit  = "eval.hit"
	// EvIncumbent reports the per-option incumbent improving: a new
	// cheapest feasible candidate.
	EvIncumbent = "incumbent"
	// EvMemoHit/EvMemoSolve trace the Markov engine's mode-chain memo:
	// a solved birth–death chain replayed vs actually solved. The split
	// between hit and solve per key is scheduling-dependent (the memo
	// is not singleflight), so determinism tests filter "memo.*".
	EvMemoHit   = "memo.hit"
	EvMemoSolve = "memo.solve"
	// EvSimBatch is one Monte-Carlo replication batch folded into the
	// running estimate, with the cumulative replication count, mean and
	// 95% CI half-width after the fold.
	EvSimBatch = "sim.batch"
	// EvSweepPoint is one sweep cell solved (figs 6–8, sensitivity),
	// with its 1-based index, the grid total and the cell's outcome.
	EvSweepPoint = "sweep.point"
)

// Event is one trace record. It is a single flat struct across the
// whole taxonomy — only the fields relevant to an event's type are set,
// and JSON encoding drops the rest — so sinks stay schema-free and the
// hot-path construction is one stack value, no interfaces, no maps.
type Event struct {
	// T is the emission timestamp in Unix nanoseconds, stamped by the
	// sink (zero under sinks configured without a clock, and in
	// determinism tests).
	T  int64  `json:"t,omitempty"`
	Ev string `json:"ev"`

	// Solve identity (search.start / search.end / sweep.point).
	Service string  `json:"svc,omitempty"`
	Kind    string  `json:"kind,omitempty"` // "enterprise" or "job"
	Load    float64 `json:"load,omitempty"`
	Budget  float64 `json:"budget,omitempty"` // downtime budget, minutes
	ReqH    float64 `json:"reqh,omitempty"`   // job-time requirement, hours
	Factor  float64 `json:"factor,omitempty"` // sensitivity perturbation factor

	// Structural position.
	Phase string `json:"phase,omitempty"`
	Tier  string `json:"tier,omitempty"`
	Res   string `json:"res,omitempty"`

	// Candidate shape.
	N    int `json:"n,omitempty"`
	M    int `json:"m,omitempty"`
	S    int `json:"s,omitempty"`
	Warm int `json:"warm,omitempty"`

	// Outcomes.
	Cost float64 `json:"cost,omitempty"`
	Down float64 `json:"down,omitempty"` // downtime minutes
	JobH float64 `json:"jobh,omitempty"`
	FP   string  `json:"fp,omitempty"` // packed design fingerprint, hex

	// Simulation batches.
	Reps int     `json:"reps,omitempty"` // cumulative replications after the fold
	Mean float64 `json:"mean,omitempty"`
	HW95 float64 `json:"hw95,omitempty"`

	// Final counters (search.end).
	Candidates  int64 `json:"cand,omitempty"`
	Pruned      int64 `json:"pruned,omitempty"`
	Evals       int64 `json:"evals,omitempty"`
	CacheHits   int64 `json:"hits,omitempty"`
	BoundPruned int64 `json:"bpruned,omitempty"`
	WarmReuse   int64 `json:"wreuse,omitempty"`
	// FrontierReuse counts tier frontiers served from the solver's memo
	// (search.end; also the sweep totals carried on sweep.point events).
	FrontierReuse int64 `json:"freuse,omitempty"`
	// WalkReuse counts tier walks replayed from the solver's memo
	// (search.end; also the per-cell count on sweep.point events).
	WalkReuse  int64  `json:"walkreuse,omitempty"`
	MemoHits   uint64 `json:"memoh,omitempty"`
	MemoSolves uint64 `json:"memos,omitempty"`
	SimReps    uint64 `json:"simreps,omitempty"`

	// Timing and progress. DurNs is the span's exact wall-clock
	// nanoseconds (phase.end, tier.done, eval.miss, sweep.point); MS is
	// the same duration in milliseconds, kept for human-readable sinks.
	// Consistency checks sum DurNs — integer nanoseconds add exactly,
	// so the totals match Stats.PhaseNanos without float tolerance.
	DurNs int64   `json:"durns,omitempty"`
	MS    float64 `json:"ms,omitempty"`
	Index int     `json:"i,omitempty"` // 1-based so omitempty never eats it
	Total int     `json:"total,omitempty"`
	Err   string  `json:"err,omitempty"`
}

// Tracer consumes trace events. Implementations must be safe for
// concurrent Emit calls: sweeps, sensitivity runs and the server run
// instrumented solves on several goroutines at once. A nil Tracer means tracing is off — every emission site
// guards with a nil check, so the disabled path does no Event
// construction at all.
type Tracer interface {
	Emit(e Event)
}

// CollectTracer accumulates events in memory, for tests and for
// in-process consumers (progress displays).
type CollectTracer struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (c *CollectTracer) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (c *CollectTracer) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Len reports how many events have been emitted.
func (c *CollectTracer) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// multiTracer fans one emission to several sinks, in order.
type multiTracer []Tracer

func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Tee combines tracers into one; nils are skipped. It returns nil when
// nothing remains — callers can pass the result straight to an Options
// field and keep the disabled path free — and the tracer itself when
// only one remains.
func Tee(ts ...Tracer) Tracer {
	var out multiTracer
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// FuncTracer adapts a function to the Tracer interface. The function
// must be safe for concurrent calls.
type FuncTracer func(e Event)

// Emit implements Tracer.
func (f FuncTracer) Emit(e Event) { f(e) }
