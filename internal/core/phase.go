package core

import "aved/internal/obs"

// phaseID indexes the solver's phase taxonomy. The bracketed phases
// ("tier-search" through "job-search") wrap whole solver stages and
// emit phase.start/phase.end trace pairs; phaseEval is cross-cutting —
// the wall clock spent inside the availability engine, accumulated per
// evaluation from wherever evaluations happen (tier searches, frontier
// builds, the final whole-design check) and carried on eval.miss
// events instead of phase brackets.
type phaseID int

const (
	phaseTierSearch phaseID = iota
	phaseBound
	phaseFrontier
	phaseCombine
	phaseJobSearch
	phaseEval
	numPhases
)

// phaseNames spells each phase the way traces, Stats.PhaseNanos keys
// and the solve.phase.* histogram names do.
var phaseNames = [numPhases]string{
	"tier-search", "bound", "frontier", "combine", "job-search", "eval",
}

// PhaseNames lists the solver's phase taxonomy in canonical order —
// the keys Stats.PhaseNanos can carry and the suffixes of the
// solve.phase.* histograms. CLIs render their timing tables in this
// order so breakdowns read the same everywhere.
func PhaseNames() []string {
	out := make([]string, numPhases)
	copy(out[:], phaseNames[:])
	return out
}

// nopEnd is the shared disabled-path closer; returning the same func
// value keeps phaseSpan allocation-free when timing is off.
var nopEnd = func() {}

// phaseSpan opens one bracketed phase: it emits phase.start when
// tracing, starts a span against the phase's histogram when metrics
// are on, and returns the closer that accumulates the elapsed
// nanoseconds into stats.phaseNs and emits the matching phase.end
// carrying DurNs. With timing off (no Timings, no Tracer, no Metrics)
// both halves are no-ops and nothing allocates.
//
// A phase may run more than once per solve (the frontier phase rebuilds
// after a failed truncation check): each run emits its own bracket and
// histogram observation, and the nanosecond total keeps the invariant
// sum(phase.end DurNs per phase) == Stats.PhaseNanos[phase].
func (s *Solver) phaseSpan(stats *searchStats, id phaseID) func() {
	if !s.timed {
		return nopEnd
	}
	tr := s.opts.Tracer
	if tr != nil {
		tr.Emit(obs.Event{Ev: obs.EvPhaseStart, Phase: phaseNames[id]})
	}
	sp := obs.StartSpan(s.phaseHists[id])
	return func() {
		ns := sp.Stop()
		stats.phaseNs[id] += ns
		if tr != nil {
			tr.Emit(obs.Event{
				Ev:    obs.EvPhaseEnd,
				Phase: phaseNames[id],
				DurNs: ns,
				MS:    obs.DurMS(ns),
			})
		}
	}
}
