package core

import (
	"context"
	"math"
	"sync"

	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/perf"
)

// This file implements the frontier cache behind SolveCell's
// FrontierSet argument: whole per-tier Pareto frontiers shared across the SolveCell calls of
// one grid chain on one Solver.
//
// The key observation is requirement-invariance. A tier's frontier
// depends on the models and on the throughput requirement — never on
// the downtime budget — and on the throughput only through each
// option's performance minimum nMinPerf (plus whether the option is
// ruled out entirely by its curve or instance cap). Every cell of a
// sweep sharing one load therefore needs the SAME frontier, truncated
// at a budget-dependent cost threshold — and the truncated frontier is
// exactly the ≤ maxCost prefix of a frontier built under any larger
// bound (see tierFrontier), so serving a prefix of a cached build is
// bit-identical to rebuilding under the cell's own bound.
//
// Entries are built BOUNDED, at the first requesting cell's threshold,
// never unbounded on purpose: a frontier built with no cost bound
// degenerates into an exhaustive walk of the tier space — the very work
// the branch-and-bound truncation exists to avoid — and costs more than
// an entire budget chain of bounded builds. Instead the cache relies on
// the chain order the sweeps establish: budgets tightest first. A
// looser budget's optimum never costs more, so the thresholds mostly
// shrink along the chain and the first combination-phase cell mostly
// builds at the chain's high-water bound. Each cell's bound comes from
// its own waterfilling pass, though, which is not monotone in the
// budget, so a later cell can need a larger bound. It then rebuilds at
// it — the superseded build's evaluations replay from the solver's
// evaluation cache, so extension costs only the new tail.
//
// A FrontierSet is one chain's cache, used sequentially, which is what
// makes the effort accounting deterministic: each build is charged to
// the cell that runs it (candidates, pruning, evaluations, cache hits —
// via a private stats block, merged as-is), and each replay charges the
// recorded build effort with every evaluation request counted as an
// EvalCacheHit (the engine never ran for it) plus one FrontierReuse.
// Chain order is fixed regardless of worker count — the sweeps
// parallelise across chains, never within one — so per-cell Stats and
// their sums are exact at any worker count. Sharing one set across
// concurrently running chains is memory-safe but forfeits exactly that
// determinism, so the sweeps create one set per chain. A solver's
// models never change, so an entry never goes stale.

// FrontierSet caches per-tier Pareto frontiers across the SolveCell
// calls of one sequential grid chain (see SolveCell). The zero value is not usable; create one per chain with NewFrontierSet.
type FrontierSet struct {
	mu sync.Mutex
	m  map[fp128]*frontierEntry
}

// NewFrontierSet creates an empty frontier cache for one grid chain.
func NewFrontierSet() *FrontierSet {
	return &FrontierSet{}
}

// frontierEntry is one cached frontier build: the Pareto points, the
// cost bound they were built under, and the effort the build spent, for
// replaying cells to account deterministically.
type frontierEntry struct {
	points []TierCandidate
	bound  float64
	delta  frontierDelta
}

// frontierDelta is the effort one frontier build spent, lifted from its
// private stats block. requests is the build's evaluation requests —
// engine runs plus cache replays — which a replaying cell charges
// entirely to EvalCacheHits.
type frontierDelta struct {
	candidates  int
	costPruned  int
	boundPruned int
	requests    int
}

// frontierKey fingerprints everything a tier's frontier can depend on
// under a fixed Solver beyond the cost bound: the tier name, each
// option's resource identity, and each option's throughput-derived
// size minimum (or its infeasibility). Option order is part of the
// tier's identity, so the fold is ordered, not commutative. The
// solver-level knobs that also shape frontiers (MaxRedundancy,
// ExploreSpareWarmth, FixedMechanisms, the engine) are fixed per
// Solver and a set never outlives its solver, so they need no key bits.
func (s *Solver) frontierKey(tier *model.Tier, load tierLoad) (fp128, error) {
	f := fp128{hi: fnvOffset64, lo: saltEntry}.mixString(tier.Name)
	for i := range tier.Options {
		opt := &tier.Options[i]
		rt := opt.ResourceType()
		f = f.mixString(rt.Name)
		curve, err := s.curveFor(opt)
		if err != nil {
			return fp128{}, err
		}
		n, ok := perf.MinActive(curve, load.full, opt.NActive)
		if ok {
			if maxTotal := rt.MaxInstances(); maxTotal > 0 && n > maxTotal {
				ok = false
			}
		}
		// 0 encodes "option ruled out", n+1 a feasible minimum — the same
		// split newOptionSearch applies, so two loads share a key exactly
		// when every option enumerates the same candidate space. The
		// degraded minimum shapes each candidate's up-threshold M, so it
		// is part of the space and gets its own key bits.
		if !ok {
			f = f.mixUint(0)
		} else {
			f = f.mixUint(uint64(n) + 1)
			nd := n
			if load.degraded < load.full {
				if m, mok := perf.MinActive(curve, load.degraded, opt.NActive); mok && m < n {
					nd = m
				}
			}
			f = f.mixUint(uint64(nd) + 1)
		}
	}
	return f, nil
}

// cachedTierFrontier is tierFrontier through a chain's frontier set:
// serve the ≤ maxCost prefix of a cached build whose bound covers the
// request, otherwise build at maxCost and cache. The returned slice may
// share the cached backing array and must be treated read-only — the
// combiners only read.
func (s *Solver) cachedTierFrontier(ctx context.Context, set *FrontierSet, tier *model.Tier, load tierLoad, maxCost float64, stats *searchStats) ([]TierCandidate, error) {
	key, err := s.frontierKey(tier, load)
	if err != nil {
		return nil, err
	}
	set.mu.Lock()
	e := set.m[key]
	set.mu.Unlock()
	if e != nil && maxCost <= e.bound {
		stats.candidates += e.delta.candidates
		stats.pruned += e.delta.costPruned
		stats.boundPruned += e.delta.boundPruned
		stats.cacheHits += e.delta.requests
		stats.frontierReuse++
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Ev: obs.EvFrontierReuse, Tier: tier.Name,
				FP: fpHex(key), Evals: int64(e.delta.requests)})
		}
		return frontierPrefix(e.points, maxCost), nil
	}
	// Build — or extend, rebuilding from scratch at the larger bound; the
	// superseded build's evaluations replay from the evaluation cache, so
	// extension costs only the new tail. The build runs against a private
	// stats block so its effort can be recorded on the entry; pool
	// collection is already off by the frontier phase (finishBounds), so
	// none is configured.
	bs := searchStats{gen: stats.gen}
	points, err := s.tierFrontier(ctx, tier, load, maxCost, &bs)
	if err != nil {
		return nil, err
	}
	delta := frontierDelta{
		candidates:  bs.candidates,
		costPruned:  bs.pruned,
		boundPruned: bs.boundPruned,
		requests:    bs.evals + bs.cacheHits,
	}
	stats.candidates += bs.candidates
	stats.pruned += bs.pruned
	stats.boundPruned += bs.boundPruned
	stats.evals += bs.evals
	stats.cacheHits += bs.cacheHits
	stats.warmReuse += bs.warmReuse
	// Engine time the build spent (the only phase a frontier build
	// accrues — the bracketed phases run on the outer stats) carries
	// over so PhaseNanos["eval"] keeps matching the eval.miss trace.
	for i, ph := range bs.phaseNs {
		stats.phaseNs[i] += ph
	}
	set.mu.Lock()
	if set.m == nil {
		set.m = map[fp128]*frontierEntry{}
	}
	set.m[key] = &frontierEntry{points: points, bound: maxCost, delta: delta}
	set.mu.Unlock()
	return points, nil
}

// frontierPrefix trims a cost-ascending frontier to its ≤ maxCost
// prefix without copying. Identical to the trailing trim tierFrontier
// applies to a truncated build.
func frontierPrefix(points []TierCandidate, maxCost float64) []TierCandidate {
	if math.IsInf(maxCost, 1) {
		return points
	}
	out := points
	for len(out) > 0 && float64(out[len(out)-1].Cost) > maxCost {
		out = out[:len(out)-1]
	}
	return out
}
