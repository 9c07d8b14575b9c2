package avail

import "aved/internal/obs"

// memoSinks are an instrumented engine's observability outputs: the
// registry counters its memo counts into and the memo-event trace sink.
// Either side may be nil.
type memoSinks struct {
	hits, solves *obs.Counter
	tr           obs.Tracer
}

// InstrumentObs counts the engine's mode-chain memo hits and solves
// into reg's avail.memo.hits and avail.memo.solves counters and routes
// memo events to tr. It implements the solver's structural
// instrumentation interface. Counting into the registry's own counters
// makes engines sharing one registry add up: a server's requests each
// build one. Re-instrumenting
// with the same registry reuses its counters, so solvers sharing one
// engine (sensitivity sweeps build one per factor) may all call it;
// the latest call's sinks win. A memo-less zero engine has nothing to
// count or emit; the call is a no-op.
func (e MarkovEngine) InstrumentObs(reg *obs.Registry, tr obs.Tracer) {
	if e.memo == nil {
		return
	}
	s := &memoSinks{tr: tr}
	if reg != nil {
		s.hits, s.solves = reg.Counter("avail.memo.hits"), reg.Counter("avail.memo.solves")
	}
	e.memo.sinks.Store(s)
}

// observe reports one memo lookup of tier tm's mode k to the sinks.
func (s *memoSinks) observe(tm *TierModel, k modeKey, hit bool) {
	ev, c := obs.EvMemoSolve, s.solves
	if hit {
		ev, c = obs.EvMemoHit, s.hits
	}
	if c != nil {
		c.Inc()
	}
	if s.tr != nil {
		s.tr.Emit(obs.Event{Ev: ev, Tier: tm.Name, N: k.n, M: k.m, S: k.spares})
	}
}
