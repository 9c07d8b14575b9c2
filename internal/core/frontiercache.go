package core

import (
	"context"
	"math"
	"slices"

	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/perf"
)

// This file implements the memo behind Solver.SolveChain: one chain of
// cells — one service and load at a run of downtime budgets — shares
// whole per-tier Pareto frontiers and the per-tier walks of phase 1 and
// the waterfilling bound, each walk replayable over the exact budget
// interval it cannot tell apart (see tierWalk).
//
// The key observation is requirement-invariance. A tier's frontier
// depends on the models and on the throughput requirement — never on
// the downtime budget — and on the throughput only through each
// option's performance minimum nMinPerf (plus whether the option is
// ruled out entirely by its curve or instance cap). Every cell of a
// chain therefore needs the SAME frontier, truncated at a
// budget-dependent cost threshold — and the truncated frontier is
// exactly the ≤ maxCost prefix of a frontier built under any larger
// bound (see tierFrontier), so serving a prefix of a cached build is
// bit-identical to rebuilding under the cell's own bound.
//
// Entries are built BOUNDED, at the first requesting cell's threshold,
// never unbounded on purpose: a frontier built with no cost bound
// degenerates into an exhaustive walk of the tier space — the very work
// the branch-and-bound truncation exists to avoid — and costs more than
// an entire budget chain of bounded builds. Instead the memo relies on
// the chain order SolveChain fixes: budgets tightest first. A looser
// budget's optimum never costs more, so the thresholds mostly shrink
// along the chain and the first combination-phase cell mostly builds at
// the chain's high-water bound. Each cell's bound comes from its own
// waterfilling pass, though, which is not monotone in the budget, so a
// later cell can need a larger bound. It then rebuilds at it — the
// superseded build's evaluations replay from the solver's evaluation
// cache, so extension costs only the new tail.
//
// A chain lives inside one SolveChain call, which is what makes the
// effort accounting deterministic: each build or walk is charged to the
// cell that runs it (candidates, pruning, evaluations, cache hits), and
// each replay charges the recorded effort with every evaluation request
// counted as an EvalCacheHit (the engine never ran for it) plus one
// FrontierReuse or WalkReuse. A solver's
// models never change, so an entry never goes stale.

// chain is one SolveChain call's memo: each service tier's frontierKey
// at the chain's load, computed by the chain's first enterprise solve,
// and the frontier builds and tier walks its cells have recorded. A nil
// *chain — the SolveContext path — walks every tier and builds every
// frontier afresh.
type chain struct {
	keys      []fp128
	frontiers map[fp128]*frontierEntry
	walks     map[fp128][]*walkEntry
}

func newChain() *chain {
	return &chain{frontiers: map[fp128]*frontierEntry{}, walks: map[fp128][]*walkEntry{}}
}

// keyTiers sets c.keys at load unless an earlier cell already has: a
// chain's cells share one load, so the keys are fixed for the chain.
func (s *Solver) keyTiers(c *chain, load tierLoad) error {
	if c == nil || c.keys != nil {
		return nil
	}
	keys := make([]fp128, len(s.svc.Tiers))
	for i := range s.svc.Tiers {
		var err error
		if keys[i], err = s.frontierKey(&s.svc.Tiers[i], load); err != nil {
			return err
		}
	}
	c.keys = keys
	return nil
}

// frontierEntry is one cached frontier build: the Pareto points, the
// cost bound they were built under, and the effort the build spent, for
// replaying cells to account deterministically.
type frontierEntry struct {
	points []TierCandidate
	bound  float64
	delta  effortDelta
}

// effortDelta is the effort one frontier build or tier walk spent.
// requests is its evaluation requests — engine runs plus cache replays
// — which a replaying cell charges entirely to EvalCacheHits.
type effortDelta struct {
	candidates  int
	costPruned  int
	boundPruned int
	requests    int
}

// effort reads the counters a replay re-charges, as of now; the effort
// of a stretch of search is the difference of two readings.
func (st *searchStats) effort() effortDelta {
	return effortDelta{st.CandidatesGenerated, st.CostPruned, st.BoundPruned, st.Evaluations + st.EvalCacheHits}
}

func (d effortDelta) sub(o effortDelta) effortDelta {
	return effortDelta{d.candidates - o.candidates, d.costPruned - o.costPruned,
		d.boundPruned - o.boundPruned, d.requests - o.requests}
}

// charge adds a replayed build's or walk's effort to stats, every
// evaluation request as an EvalCacheHit: the engine never ran for it.
func (d effortDelta) charge(stats *searchStats) {
	stats.CandidatesGenerated += d.candidates
	stats.CostPruned += d.costPruned
	stats.BoundPruned += d.boundPruned
	stats.EvalCacheHits += d.requests
}

// walkEntry is one recorded tier walk: its answer and budget interval,
// the effort it spent, and its Pareto-reduced bound-pool pairs (nil
// when its solve collected no pools — fixed per solver, see
// collectsPools, so a replaying solve collects exactly when the
// recording did).
type walkEntry struct {
	tierWalk
	delta effortDelta
	pairs []costDown
}

// walk returns a recorded walk of the tier keyed key whose budget
// interval covers budget, or nil.
func (c *chain) walk(key fp128, budget float64) *walkEntry {
	for _, e := range c.walks[key] {
		if e.lo <= budget && budget < e.hi {
			return e
		}
	}
	return nil
}

// chainSearchTier is searchTier through the chain's walk memo: a
// recorded walk of the tier whose budget interval covers budget is
// replayed — its answer returned, its effort charged like a frontier
// replay, its reduced pairs added to the tier's pool — and otherwise
// the tier is walked and the walk recorded. A walk's answer at every
// budget in its interval is the walk's own (see tierWalk), so a replay
// is exactly what a fresh walk would return. The returned candidate may
// be shared with the memo and must be treated read-only.
func (s *Solver) chainSearchTier(ctx context.Context, c *chain, ti int, load tierLoad, budget float64, stats *searchStats) (*TierCandidate, bool, error) {
	if c == nil {
		w, err := s.searchTier(ctx, ti, load, budget, stats)
		return w.best, w.cert, err
	}
	key := c.keys[ti]
	if e := c.walk(key, budget); e != nil {
		e.delta.charge(stats)
		stats.WalkReuse++
		if stats.pools != nil {
			stats.pools[ti] = append(stats.pools[ti], e.pairs...)
		}
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Ev: obs.EvWalkReuse, Tier: s.svc.Tiers[ti].Name,
				FP: fpHex(key), Evals: int64(e.delta.requests)})
		}
		return e.best, e.cert, nil
	}
	before, start := stats.effort(), 0
	if stats.pools != nil {
		start = len(stats.pools[ti])
	}
	w, err := s.searchTier(ctx, ti, load, budget, stats)
	if err != nil {
		return nil, false, err
	}
	e := &walkEntry{tierWalk: w, delta: stats.effort().sub(before)}
	if stats.pools != nil {
		// Reduce the walk's own pairs in place: the pool's reduction is
		// unchanged (see reducePairs) and the record keeps only these.
		seg := reducePairs(stats.pools[ti][start:])
		stats.pools[ti] = stats.pools[ti][:start+len(seg)]
		e.pairs = slices.Clone(seg)
	}
	c.walks[key] = append(c.walks[key], e)
	return w.best, w.cert, nil
}

// frontierKey fingerprints everything a tier's frontier can depend on
// under a fixed Solver beyond the cost bound: the tier name, each
// option's resource identity, and each option's throughput-derived
// size minimum (or its infeasibility). Option order is part of the
// tier's identity, so the fold is ordered, not commutative. The
// solver-level knobs that also shape frontiers (MaxRedundancy,
// ExploreSpareWarmth, FixedMechanisms, the engine) are fixed per
// Solver and a chain never outlives its solver, so they need no key
// bits.
// A tier walk reads the load through the same option minima, so the
// walk memo shares the key; its budget dependence is the walk's
// interval (see tierWalk).
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

// chainTierFrontier is tierFrontier for service tier ti through the
// chain's memo: serve the ≤ maxCost prefix of a cached build whose
// bound covers the request, otherwise build at maxCost and cache.
// Without a chain it builds afresh. The returned slice may share the
// cached backing array and must be treated read-only — the combiners
// only read.
func (s *Solver) chainTierFrontier(ctx context.Context, c *chain, ti int, load tierLoad, maxCost float64, stats *searchStats) ([]TierCandidate, error) {
	tier := &s.svc.Tiers[ti]
	if c == nil {
		return s.tierFrontier(ctx, tier, load, maxCost, stats)
	}
	key := c.keys[ti]
	if e := c.frontiers[key]; e != nil && maxCost <= e.bound {
		e.delta.charge(stats)
		stats.FrontierReuse++
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
	stats.Add(bs.Stats)
	// Engine time the build spent (the only phase a frontier build
	// accrues — the bracketed phases run on the outer stats) carries
	// over so PhaseNanos["eval"] keeps matching the eval.miss trace.
	for i, ph := range bs.phaseNs {
		stats.phaseNs[i] += ph
	}
	c.frontiers[key] = &frontierEntry{points: points, bound: maxCost, delta: bs.effort()}
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
