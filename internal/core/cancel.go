package core

import (
	"context"
	"errors"

	"aved/internal/avail"
)

// CanceledError reports a solve aborted by context cancellation or
// deadline expiry, carrying the search-effort statistics accumulated up
// to the abort so callers (the server, the CLIs) can report partial
// progress. It unwraps to the underlying context error, so
// errors.Is(err, context.DeadlineExceeded) and errors.Is(err,
// context.Canceled) work through it.
type CanceledError struct {
	// Stats is the search effort spent before the abort.
	Stats Stats
	// Err is the context error that stopped the search.
	Err error
}

func (e *CanceledError) Error() string {
	return "core: solve aborted: " + e.Err.Error()
}

func (e *CanceledError) Unwrap() error { return e.Err }

// isCtxErr reports whether err stems from context cancellation or
// deadline expiry — the errors that mark a result as "gave up", not
// "model is wrong", and so must never settle a cache entry.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// wrapCanceled converts a context error bubbling out of a search into a
// CanceledError carrying the partial stats; other errors (and nil) pass
// through unchanged.
func wrapCanceled(err error, stats *searchStats) error {
	if err == nil || !isCtxErr(err) {
		return err
	}
	return &CanceledError{Stats: stats.snapshot(), Err: err}
}

// ctxEvaluator is implemented by availability engines that accept a
// context for their evaluation (sim.Engine, whose Monte-Carlo batches
// check it between batches). Structural, like obsInstrumentable, so core
// carries no dependency on the engine packages. Engines without it (the
// analytic engines) evaluate fast enough that the per-batch checks in
// the search loops bound the cancellation latency on their own.
type ctxEvaluator interface {
	EvaluateCtx(ctx context.Context, tms []avail.TierModel) (avail.Result, error)
}

// engineEvaluate routes a whole-model evaluation through the engine's
// context-aware entry point when it has one. The assertion is resolved
// once at solver construction (Solver.ctxEng), so the per-evaluation
// cost is one nil check.
func (s *Solver) engineEvaluate(ctx context.Context, tms []avail.TierModel) (avail.Result, error) {
	if s.ctxEng != nil {
		return s.ctxEng.EvaluateCtx(ctx, tms)
	}
	return s.opts.Engine.Evaluate(tms)
}

// priceDesign reports a whole design's annual downtime: through the
// engine's lean designPricer when the solver resolved one, else from a
// full evaluation.
func (s *Solver) priceDesign(ctx context.Context, tms []avail.TierModel) (float64, error) {
	if s.designPricer != nil {
		return s.designPricer.PriceDesign(tms)
	}
	res, err := s.engineEvaluate(ctx, tms)
	return res.DowntimeMinutes, err
}
