package core

import (
	"context"
	"math"
	"slices"

	"aved/internal/model"
	"aved/internal/obs"
)

// This file implements the memo behind Solver.SolveChain: the chains
// of cells on one solver — each chain one service and load at a run of
// downtime budgets — share whole per-tier Pareto frontiers and the
// per-tier walks of phase 1 and the waterfilling bound, each walk
// replayable over the exact budget interval it cannot tell apart (see
// tierWalk).
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
// bit-identical to rebuilding under the cell's own bound. The same
// holds across loads: two loads whose option minima agree share a
// frontierKey, so a sweep's later loads replay an earlier load's walks
// and frontiers (on the Fig 4 e-commerce grids the database tier has
// one key at every load).
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
// The memo lives on the Solver, which one goroutine owns, and the
// sweeps run their chains in a fixed order, so what it holds at each
// cell — and so every replay — is the same at any worker count. Every
// effort counter counts work the cell actually did: a build or walk is
// charged to the cell that runs it (candidates, pruning, evaluations,
// cache hits), and a replay charges only its FrontierReuse or WalkReuse,
// so each counter equals its trace event count. A solver's models never
// change, so an entry never goes stale.

// tierMemo is a solver's walk and frontier memo: the frontier builds
// and tier walks its SolveChain cells have recorded, by frontierKey.
// It lives on the Solver, so every chain on the solver shares it — a
// sweep's loads with one key share one record.
type tierMemo struct {
	frontiers map[fp128]*frontierEntry
	walks     map[fp128][]*walkEntry
}

// chain is one SolveChain call: each service tier's frontierKey at the
// chain's one load, computed by the chain's first enterprise solve, and
// the solver's memo. A nil *chain — the SolveContext path — walks every
// tier and builds every frontier afresh.
type chain struct {
	keys []fp128
	*tierMemo
}

// newChain starts a SolveChain call on the solver's memo, creating the
// memo on the first chain.
func (s *Solver) newChain() *chain {
	if s.memo.frontiers == nil {
		s.memo = tierMemo{frontiers: map[fp128]*frontierEntry{}, walks: map[fp128][]*walkEntry{}}
	}
	return &chain{tierMemo: &s.memo}
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

// frontierEntry is one cached frontier build: the Pareto points and the
// cost bound they were built under.
type frontierEntry struct {
	points []TierCandidate
	bound  float64
}

// walkEntry is one recorded tier walk: its answer and budget interval,
// and its Pareto-reduced bound-pool pairs (nil when its solve collected
// no pools — fixed per solver, see collectsPools, so a replaying solve
// collects exactly when the recording did).
type walkEntry struct {
	tierWalk
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
// replayed — its answer returned, one WalkReuse charged, its reduced
// pairs merged into the tier's pool, which stays reduced (mergePool) —
// and otherwise the tier is walked and the walk recorded with a copy of
// its reduced pairs. A walk's answer at every budget in its interval is
// the walk's own (see tierWalk), so a replay is exactly what a fresh
// walk would return. The returned candidate may be shared with the memo
// and must be treated read-only.
func (s *Solver) chainSearchTier(ctx context.Context, c *chain, ti int, load tierLoad, budget float64, stats *searchStats) (*TierCandidate, bool, error) {
	if c == nil {
		w, _, err := s.searchTier(ctx, ti, load, budget, stats)
		return w.best, w.cert, err
	}
	key := c.keys[ti]
	if e := c.walk(key, budget); e != nil {
		stats.WalkReuse++
		if stats.pools != nil {
			s.mergePool(stats, ti, e.pairs)
		}
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Ev: obs.EvWalkReuse, Tier: s.svc.Tiers[ti].Name,
				FP: fpHex(key)})
		}
		return e.best, e.cert, nil
	}
	w, seg, err := s.searchTier(ctx, ti, load, budget, stats)
	if err != nil {
		return nil, false, err
	}
	// seg is solver scratch; the record keeps a copy.
	c.walks[key] = append(c.walks[key], &walkEntry{tierWalk: w, pairs: slices.Clone(seg)})
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
		f = f.mixString(opt.ResourceType().Name)
		t, err := s.optionTable(tier, opt)
		if err != nil {
			return fp128{}, err
		}
		// 0 encodes "option ruled out", n+1 a feasible minimum — the
		// limits every walk of the option reads at this load, so two
		// loads share a key exactly when every option enumerates the same
		// candidate space. The degraded minimum shapes each candidate's
		// up-threshold M, so it is part of the space and gets its own key
		// bits.
		lim := t.limits(load, s.opts.MaxRedundancy)
		if !lim.ok {
			f = f.mixUint(0)
		} else {
			f = f.mixUint(uint64(lim.nMinPerf) + 1).mixUint(uint64(lim.nMinDegraded) + 1)
		}
	}
	return f, nil
}

// chainTierFrontier is tierFrontier for service tier ti through the
// memo: serve the ≤ maxCost prefix of a cached build whose bound covers
// the request, otherwise build at maxCost and cache. A replay charges
// one FrontierReuse. Without a chain it builds afresh. The
// returned slice may share the cached backing array and must be treated
// read-only — the combiners only read.
func (s *Solver) chainTierFrontier(ctx context.Context, c *chain, ti int, load tierLoad, maxCost float64, stats *searchStats) ([]TierCandidate, error) {
	tier := &s.svc.Tiers[ti]
	if c == nil {
		return s.tierFrontier(ctx, tier, load, maxCost, stats)
	}
	key := c.keys[ti]
	if e := c.frontiers[key]; e != nil && maxCost <= e.bound {
		stats.FrontierReuse++
		if tr := s.opts.Tracer; tr != nil {
			tr.Emit(obs.Event{Ev: obs.EvFrontierReuse, Tier: tier.Name, FP: fpHex(key)})
		}
		return frontierPrefix(e.points, maxCost), nil
	}
	// Build — or extend, rebuilding from scratch at the larger bound; the
	// superseded build's evaluations replay from the evaluation cache, so
	// extension costs only the new tail. Pool collection is already off
	// by the frontier phase (finishBounds), so none is configured.
	points, err := s.tierFrontier(ctx, tier, load, maxCost, stats)
	if err != nil {
		return nil, err
	}
	c.frontiers[key] = &frontierEntry{points: points, bound: maxCost}
	return points, nil
}

// frontierPrefix trims a cost-ascending frontier to its ≤ maxCost
// prefix without copying: the trim tierFrontier applies to a truncated
// build, and the one a replay serves from a cached build.
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
