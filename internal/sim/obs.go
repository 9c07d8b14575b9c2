package sim

import "aved/internal/obs"

// simSinks are an instrumented engine's observability outputs: the
// registry counters its batches count into and the batch-event trace
// sink. Either side may be nil.
type simSinks struct {
	reps, batches *obs.Counter
	tr            obs.Tracer
}

// InstrumentObs counts the engine's replications and batches into
// reg's sim.replications and sim.batches counters and routes batch
// events to tr. It implements the solver's structural instrumentation
// interface. Counting into the registry's own counters makes engines
// sharing one registry add up; re-instrumenting with the same registry
// reuses its counters, so solvers sharing one engine may all call it.
// The latest call's sinks win.
func (e *Engine) InstrumentObs(reg *obs.Registry, tr obs.Tracer) {
	s := &simSinks{tr: tr}
	if reg != nil {
		s.reps, s.batches = reg.Counter("sim.replications"), reg.Counter("sim.batches")
	}
	e.sinks.Store(s)
}

// RepStats reports the engine's lifetime Monte-Carlo work: replications
// run and batches dispatched, across every evaluation since
// construction. The solver differences these around a solve to
// attribute work per solution.
func (e *Engine) RepStats() (replications, batches uint64) {
	return e.nreps.Load(), e.nbatches.Load()
}
