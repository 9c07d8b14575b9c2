package avail

import "aved/internal/obs"

// tracerBox wraps a Tracer for atomic.Value storage: atomic.Value
// requires every Store to carry the same concrete type, and tracer
// implementations differ.
type tracerBox struct{ t obs.Tracer }

// obsTracer reports the memo's instrumented tracer, nil when none.
func (mm *modeMemo) obsTracer() obs.Tracer {
	if b, ok := mm.tracer.Load().(tracerBox); ok {
		return b.t
	}
	return nil
}

// InstrumentObs exposes the engine's mode-chain memo counters on reg
// and routes memo events to tr. It implements the solver's structural
// instrumentation interface. Idempotent and race-safe: RegisterFunc
// replaces on re-register and the tracer swaps atomically, so solvers
// sharing one engine (sensitivity sweeps build one per factor) may all
// call it. A memo-less zero engine has no counters to expose; the call
// is a no-op.
func (e MarkovEngine) InstrumentObs(reg *obs.Registry, tr obs.Tracer) {
	if e.memo == nil {
		return
	}
	mm := e.memo
	reg.RegisterFunc("avail.memo.hits", func() int64 { return int64(mm.hits.Load()) })
	reg.RegisterFunc("avail.memo.solves", func() int64 { return int64(mm.solves.Load()) })
	if tr != nil {
		mm.tracer.Store(tracerBox{t: tr})
	}
}
