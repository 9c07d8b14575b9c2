package server

import (
	"context"
	"sync"
)

// This file implements the cross-request evaluation deduplication: a
// singleflight group keyed by the packed request fingerprint, plus a
// bounded response cache for completed solves. Two concurrent requests
// for the same design problem share one search; a later identical
// request is answered from the cache without searching at all.
//
// Cancellation is refcounted: the shared solve runs under its own
// context, which is canceled only when every request waiting on it has
// gone away. One impatient client (short deadline, dropped connection)
// detaches without killing the solve for the others; the last waiter
// leaving aborts it. Flights settled by a context error are never
// published — the same gave-up-versus-wrong distinction the solver's
// own eval cache draws: it never stores an error.

// reqFP is the packed 128-bit request fingerprint (see fingerprint.go).
type reqFP struct{ hi, lo uint64 }

// flight is one in-progress shared solve.
type flight struct {
	done    chan struct{} // closed once resp/err are set
	resp    *SolveResponse
	err     error
	waiters int                // guarded by the group mutex
	cancel  context.CancelFunc // aborts the shared solve
}

// flightGroup is the singleflight table plus the response cache.
type flightGroup struct {
	mu      sync.Mutex
	flights map[reqFP]*flight

	// cache maps fingerprints to completed responses; order is the FIFO
	// eviction queue. cacheCap <= 0 disables caching entirely.
	cache    map[reqFP]*SolveResponse
	order    []reqFP
	cacheCap int
}

func newFlightGroup(cacheCap int) *flightGroup {
	g := &flightGroup{
		flights:  map[reqFP]*flight{},
		cacheCap: cacheCap,
	}
	if cacheCap > 0 {
		g.cache = make(map[reqFP]*SolveResponse, cacheCap)
	}
	return g
}

// lookup consults the response cache only.
func (g *flightGroup) lookup(key reqFP) (*SolveResponse, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	resp, ok := g.cache[key]
	return resp, ok
}

// join returns the in-flight solve for key, registering the caller as a
// waiter, or nil when the caller should run the solve itself (after
// calling begin).
func (g *flightGroup) join(key reqFP) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		f.waiters++
		return f
	}
	return nil
}

// begin registers a new flight for key under the given cancel func and
// one waiter (the owner). It re-checks for a racing flight and joins it
// instead when one appeared since join; the second return is false then
// and the caller's cancel is released immediately.
func (g *flightGroup) begin(key reqFP, cancel context.CancelFunc) (*flight, bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		cancel()
		return f, false
	}
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.flights[key] = f
	g.mu.Unlock()
	return f, true
}

// settle publishes the flight's outcome, removes it from the table and
// caches successful responses. ctxErr marks outcomes that reflect the
// waiters giving up rather than the problem itself; those are never
// cached (and the flight entry is removed either way, so a later
// request re-solves).
func (g *flightGroup) settle(key reqFP, f *flight, resp *SolveResponse, err error, ctxErr bool) {
	g.mu.Lock()
	f.resp, f.err = resp, err
	if g.flights[key] == f {
		delete(g.flights, key)
	}
	if err == nil && !ctxErr && g.cacheCap > 0 {
		if _, dup := g.cache[key]; !dup {
			for len(g.cache) >= g.cacheCap {
				old := g.order[0]
				g.order = g.order[1:]
				delete(g.cache, old)
			}
			g.cache[key] = resp
			g.order = append(g.order, key)
		}
	}
	g.mu.Unlock()
	close(f.done)
}

// leave drops one waiter from an unfinished flight. When the last
// waiter leaves, the shared solve is canceled — nobody is listening for
// its result anymore — and leave reports true so the caller knows the
// flight is about to settle with the abort's partial statistics.
func (g *flightGroup) leave(f *flight) (last bool) {
	g.mu.Lock()
	f.waiters--
	last = f.waiters == 0
	g.mu.Unlock()
	if last {
		f.cancel()
	}
	return last
}
