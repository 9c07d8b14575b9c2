// Package par is the shared worker-pool helper behind Aved's parallel
// evaluation paths: Monte-Carlo replications (internal/sim), sweep load
// chains (internal/sweep) and sensitivity factors
// (internal/sensitivity). Each item is coarse work — a whole chain of
// solves, a re-solve, a replication batch — while a single solve runs
// on one goroutine, its per-candidate work far too fine to pay for a
// pool. All of those fan independent work items over a bounded pool
// and write results by index, so callers stay bit-identical to their
// sequential order regardless of the worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aved/internal/obs"
)

// Workers resolves a configured worker count: n when positive, else
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) across a pool of workers
// goroutines (workers ≤ 0 means GOMAXPROCS). Items are claimed
// dynamically, so fn must not depend on execution order; determinism
// comes from writing each result into its own index. Every item is
// attempted even when some fail, and the returned error is the one from
// the lowest failing index — the same error a sequential loop would hit
// first — so error reporting is independent of the worker count.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, fn)
}

// Timing attributes a pool fan's wall clock: Wait is submitted→claimed
// per item (how long work sat behind busy workers — the queue-wait that
// eats parallel speedup), Run is claimed→done (the item's own
// execution). Both observe milliseconds. A nil *Timing disables timing
// entirely: ForEachTimedCtx with nil Timing is exactly ForEachCtx, no
// clock reads, no allocations.
type Timing struct {
	Wait *obs.Histogram
	Run  *obs.Histogram
}

// NewTiming builds a Timing feeding reg's "par.wait_ms" and
// "par.run_ms" histograms, or nil when reg is nil — nil-in-nil-out so
// callers can thread an optional registry without guarding.
func NewTiming(reg *obs.Registry) *Timing {
	if reg == nil {
		return nil
	}
	return &Timing{
		Wait: reg.Histogram("par.wait_ms"),
		Run:  reg.Histogram("par.run_ms"),
	}
}

// ForEachCtx is ForEach with cancellation: each worker checks ctx once
// per item claim, so a cancelled context stops the pool after at most
// one in-flight item per worker instead of draining the remaining
// items. A skipped item counts as failing with ctx.Err() at its index,
// so the lowest-index error rule covers cancellation too: fn errors
// below the cancellation point still win, and a run cancelled before
// any fn error reports ctx.Err(). The ctx check is a non-blocking read
// of a captured Done channel — context.Background() (nil Done) makes
// ForEachCtx exactly ForEach, with no per-item overhead or allocation.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					if firstErr == nil {
						firstErr = ctx.Err()
					}
					return firstErr
				default:
				}
			}
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if done != nil {
					select {
					case <-done:
						record(i, ctx.Err())
						return
					default:
					}
				}
				if err := fn(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ForEachTimedCtx is ForEachCtx with per-item wall-clock attribution:
// every item observes its queue wait (fan start → claim) on t.Wait and
// its execution (claim → done) on t.Run. Claim order is dynamic, so
// the wait distribution is scheduling-dependent — only its shape is
// meaningful, and determinism tests must not depend on it. A nil t
// falls through to ForEachCtx untouched, keeping the disabled path
// free of clock reads.
func ForEachTimedCtx(ctx context.Context, workers, n int, t *Timing, fn func(i int) error) error {
	if t == nil {
		return ForEachCtx(ctx, workers, n, fn)
	}
	start := time.Now()
	timed := func(i int) error {
		claimed := time.Now()
		t.Wait.Observe(float64(claimed.Sub(start)) / float64(time.Millisecond))
		err := fn(i)
		t.Run.Observe(float64(time.Since(claimed)) / float64(time.Millisecond))
		return err
	}
	return ForEachCtx(ctx, workers, n, timed)
}
