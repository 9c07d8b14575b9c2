package core

import (
	"aved/internal/avail"
)

// evalCache caches settled availability evaluations by packed
// fingerprint. A solver runs on one goroutine, so it is a plain map;
// it initializes lazily on first store — reads on a nil map are safe —
// so a solver built per request allocates none until it evaluates.
// Only successful evaluations are stored: a context error says nothing
// about the model, and any other engine error aborts the solve that
// met it.
type evalCache map[fp128]cachedEval

// cachedEval is one settled evaluation and the solve generation that
// ran it (see Solver.gen): a hit from a later generation is warm-start
// reuse.
type cachedEval struct {
	entry evalEntry
	gen   uint64
}

// modeCache caches resolved effective-mode slices by mode fingerprint,
// so candidate enumeration stops re-resolving mechanism references per
// (active, spare) split: every design sharing (option, relevant combo
// settings, warmth, has-spares) reuses one []avail.Mode. Slices are
// shared read-only — engines never mutate Modes. Lazily initialized
// like evalCache.
type modeCache map[fp128][]avail.Mode

// searchStats accumulates one solve's effort while it is in flight:
// the Stats counters themselves (a solve runs on one goroutine, so they
// are plain integers; Evaluations counts actual engine invocations)
// plus the per-phase clock, which snapshot turns into PhaseNanos.
type searchStats struct {
	Stats
	// gen is this solve's generation (Solver.gen at solve start).
	gen uint64
	// phaseNs accumulates wall-clock nanoseconds per solver phase (see
	// phaseID); written only when the solver is timed, so an untimed
	// solve's snapshot sees all zeros and reports a nil PhaseNanos.
	phaseNs [numPhases]int64
	// pools, when non-nil, collect the (cost, downtime) pairs the tier
	// walks evaluate, one pool per tier in service order, each kept
	// Pareto-reduced as walks merge into it (see mergePool) — raw
	// material for the combination upper bound, gathered free of extra
	// engine work (see combineBounds).
	pools [][]costDown
}

// snapshot returns the counters with PhaseNanos filled in. The map
// materializes only when some phase recorded time — an untimed solve
// keeps PhaseNanos nil, so disabled-path Stats stay allocation-free and
// bitwise comparable.
func (st *searchStats) snapshot() Stats {
	s := st.Stats
	for i, ns := range st.phaseNs {
		if ns != 0 {
			if s.PhaseNanos == nil {
				s.PhaseNanos = make(map[string]int64, numPhases)
			}
			s.PhaseNanos[phaseNames[i]] = ns
		}
	}
	return s
}
