package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"aved/internal/avail"
	"aved/internal/jobtime"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/perf"
	"aved/internal/units"
)

// TierCandidate couples a tier design with its evaluated cost and
// annual downtime.
type TierCandidate struct {
	Design          model.TierDesign
	Cost            units.Money
	DowntimeMinutes float64
}

// evalEntry caches one tier design's availability evaluation together
// with the derived work-loss MTBF the job analysis needs.
type evalEntry struct {
	downtimeMinutes float64
	sysMTBF         units.Duration
}

// evalTier evaluates one tier design through the configured engine,
// caching by packed availability fingerprint so candidates that differ
// only in availability-neutral mechanism settings (e.g. checkpoint
// intervals) share an evaluation; Evaluations counts distinct
// fingerprints. Callers on the search hot paths assemble fps from
// per-option precomputed parts, so a cache hit does no allocation and
// no string work at all.
//
// Errors are never stored (see evalCache), so a cancelled evaluation is
// re-run by the next request for the fingerprint — from a later solve
// on this solver, or a retried server request.
func (s *Solver) evalTier(ctx context.Context, td *model.TierDesign, fps candFP, stats *searchStats) (evalEntry, error) {
	ce, hit := s.evalCache[fps.avail]
	var evalNs int64
	warm := false
	if hit {
		stats.EvalCacheHits++
		// A hit on an entry another solve generation stored is
		// warm-start reuse: the evaluation this solve got for free from
		// an earlier solve on the same solver.
		if ce.gen != stats.gen {
			warm = true
			stats.WarmStartReuse++
		}
	} else {
		var sp obs.Span
		if s.timed {
			sp = obs.StartSpan(s.phaseHists[phaseEval])
		}
		entry, err := s.evalTierMiss(ctx, td, fps.mode)
		if err != nil {
			return evalEntry{}, err
		}
		stats.Evaluations++
		if s.timed {
			// Engine wall clock accrues to the cross-cutting "eval"
			// phase; the matching eval.miss event carries the same
			// nanoseconds, so trace sums and PhaseNanos agree exactly.
			evalNs = sp.Stop()
			stats.phaseNs[phaseEval] += evalNs
		}
		ce = cachedEval{entry: entry, gen: stats.gen}
		if s.evalCache == nil {
			s.evalCache = evalCache{}
		}
		s.evalCache[fps.avail] = ce
	}
	if tr := s.opts.Tracer; tr != nil {
		ev := obs.EvEvalMiss
		if hit {
			ev = obs.EvEvalHit
		}
		tr.Emit(obs.Event{
			Ev:    ev,
			Tier:  td.TierName,
			FP:    fpHex(fps.avail),
			N:     td.NActive,
			M:     td.MinActive,
			S:     td.NSpare,
			Down:  ce.entry.downtimeMinutes,
			DurNs: evalNs, // zero (omitted) on hits
			MS:    obs.DurMS(evalNs),
		})
		if warm {
			tr.Emit(obs.Event{
				Ev:   obs.EvWarmReuse,
				Tier: td.TierName,
				FP:   fpHex(fps.avail),
				N:    td.NActive,
				S:    td.NSpare,
			})
		}
	}
	return ce.entry, nil
}

// evalTierMiss is the uncached evaluation behind evalTier. The resolved
// effective modes are themselves cached by mode fingerprint: every
// (active, spare) split of one (option, combo, warmth) shares a single
// EffectiveModes resolution.
func (s *Solver) evalTierMiss(ctx context.Context, td *model.TierDesign, modeFP fp128) (evalEntry, error) {
	modes, ok := s.modeCache[modeFP]
	if !ok {
		var err error
		modes, err = avail.BuildTierModes(td)
		if err != nil {
			return evalEntry{}, err
		}
		if s.modeCache == nil {
			s.modeCache = modeCache{}
		}
		s.modeCache[modeFP] = modes
	}
	tm := avail.TierModel{
		Name:  td.TierName,
		N:     td.NActive,
		M:     td.MinActive,
		S:     td.NSpare,
		Modes: modes,
	}
	if s.pricer != nil {
		// Lean single-tier pricing: bit-identical downtime without the
		// full Result construction (see tierPricer).
		s.priceModel = tm
		down, err := s.pricer.PriceTier(&s.priceModel)
		if err != nil {
			return evalEntry{}, err
		}
		sysMTBF, err := jobtime.SystemMTBF(modes, td.NActive)
		if err != nil {
			return evalEntry{}, err
		}
		return evalEntry{downtimeMinutes: down, sysMTBF: sysMTBF}, nil
	}
	res, err := s.engineEvaluate(ctx, []avail.TierModel{tm})
	if err != nil {
		return evalEntry{}, err
	}
	sysMTBF, err := jobtime.SystemMTBF(modes, td.NActive)
	if err != nil {
		return evalEntry{}, err
	}
	return evalEntry{downtimeMinutes: res.DowntimeMinutes, sysMTBF: sysMTBF}, nil
}

// tierLoad carries the two loads a tier is planned against: full is
// the sizing load (the traffic curve's peak, or the scalar
// throughput), degraded is the load the tier must still sustain while
// a failure is being masked (the failover latency-degradation SLO;
// equal to full when no degradation is tolerated).
type tierLoad struct {
	full     float64
	degraded float64
}

// loadOf derives the tier load pair from the service requirements.
func loadOf(req model.Requirements) tierLoad {
	return tierLoad{full: req.PeakLoad(), degraded: req.DegradedLoad()}
}

// minActiveFor reports the §4.2 minimum-actives parameter m: the
// performance minimum for dynamically sized, resource-scoped tiers and
// the full active count otherwise. For the dynamic case the caller
// passes the DEGRADED performance minimum — the instances that must
// survive for the tier to count as up while a failure is masked —
// which equals the full-load minimum unless a degraded-throughput SLO
// relaxes it.
func minActiveFor(opt *model.ResourceOption, nActive, nMinDegraded int) int {
	if opt.Sizing == model.SizingStatic || opt.FailureScope == model.ScopeTier {
		return nActive
	}
	return nMinDegraded
}

// optionSearch walks one resource option's design dimensions in the
// paper's order: total resources ascending from the performance
// minimum; within a total, every (active, spare) split on the allowed
// grid, every spare operational mode, and every mechanism combination.
// visit is called for every candidate with its cost; it returns whether
// the candidate's availability was (or would have been) needed, letting
// the caller implement cost-first pruning. The walk applies the
// paper's termination rules through the controller callbacks.
type optionSearch struct {
	solver   *Solver
	tier     *model.Tier
	opt      *model.ResourceOption
	nMinPerf int
	// nMinDegraded is the performance minimum against the degraded
	// (failover) load: the up-threshold M for dynamically sized,
	// resource-scoped designs. Equal to nMinPerf unless the
	// requirements carry a degraded-throughput SLO.
	nMinDegraded int
	maxTotal     int // component-level instance cap; 0 means unlimited
	// cs is the resource type's combinations with their fingerprints and
	// price table.
	cs *comboSet

	// base is the (tier, resource) fingerprint hoisted out of the
	// per-candidate loop.
	base fp128
	// warmSpare is the warmth-level list for candidates with spares,
	// computed once instead of per (active, spare) split.
	warmSpare []int
	// contiguous reports that the active-count grid contains every
	// integer the search can explore. The frontier cost cut relies on
	// the option's minimum cost being non-decreasing in the total, whose
	// proof maps a candidate at total t+1 to one at t by dropping an
	// instance — valid only on a step-1 grid. Non-contiguous options
	// build their frontiers uncut.
	contiguous bool
}

// tailCostLB lower-bounds, in closed form, the cost of every candidate
// at total size t or beyond: at least nMinPerf instances run active,
// every further instance adds at least the cheapest per-instance cost,
// and every instance carries at least the cheapest mechanism
// combination. It is monotone in t, making it an admissible bound on
// whole unexplored size tails regardless of grid contiguity. The bound
// needs per-size minimum cost to be non-decreasing beyond any size,
// which holds exactly when adding an instance cannot reduce cost
// (minInst + mechMin >= 0); otherwise no closed-form bound exists and
// tailCostLB reports -Inf.
func (o *optionSearch) tailCostLB(t int) float64 {
	cs := o.cs
	if !(cs.minInst+cs.mechMin >= 0) {
		return math.Inf(-1)
	}
	extra := float64(t - o.nMinPerf)
	if extra < 0 {
		extra = 0
	}
	return float64(o.nMinPerf)*(float64(cs.active)+cs.mechMin) +
		extra*(cs.minInst+cs.mechMin)
}

// warmZeroLevels is the warmth list for spare-less candidates: shared,
// never mutated.
var warmZeroLevels = []int{0}

// newOptionSearch prepares the enumeration for one resource option,
// reporting ok=false when the option cannot meet the throughput at any
// allowed size.
func (s *Solver) newOptionSearch(tier *model.Tier, opt *model.ResourceOption, load tierLoad) (*optionSearch, bool, error) {
	curve, err := s.curveFor(opt)
	if err != nil {
		return nil, false, err
	}
	nMinPerf, ok := perf.MinActive(curve, load.full, opt.NActive)
	if !ok {
		return nil, false, nil
	}
	nMinDegraded := nMinPerf
	if load.degraded < load.full {
		// The in-order grid scan stops no later for a weaker bar, so
		// nMinDegraded ≤ nMinPerf; the ok fallback guards non-monotone
		// curves only.
		if n, ok := perf.MinActive(curve, load.degraded, opt.NActive); ok && n < nMinPerf {
			nMinDegraded = n
		}
	}
	rt := opt.ResourceType()
	maxTotal := rt.MaxInstances()
	if maxTotal > 0 && nMinPerf > maxTotal {
		// The component instance cap rules this option out before it
		// even meets the performance requirement.
		return nil, false, nil
	}
	cs, err := s.mechCombos(rt)
	if err != nil {
		return nil, false, err
	}
	contiguous := true
	for n := nMinPerf; n <= nMinPerf+s.opts.MaxRedundancy; n++ {
		if maxTotal > 0 && n > maxTotal {
			break
		}
		if !opt.NActive.Contains(float64(n)) {
			contiguous = false
			break
		}
	}
	return &optionSearch{
		solver:       s,
		tier:         tier,
		opt:          opt,
		nMinPerf:     nMinPerf,
		nMinDegraded: nMinDegraded,
		maxTotal:     maxTotal,
		cs:           cs,
		base:         baseFP(tier.Name, rt.Name),
		warmSpare:    s.warmLevels(rt, 1),
		contiguous:   contiguous,
	}, true, nil
}

// warmLevels reports the candidate spare warmth levels for a resource
// type: only cold spares by default (§5.1's restriction), or every
// dependency-closed prefix when the search explores warmth.
func (s *Solver) warmLevels(rt *model.ResourceType, nSpare int) []int {
	if nSpare == 0 || !s.opts.ExploreSpareWarmth {
		return warmZeroLevels
	}
	out := make([]int, len(rt.Components)+1)
	for i := range out {
		out[i] = i
	}
	return out
}

// candidates yields every candidate at a given total resource count,
// together with its packed cache fingerprints and its price. Both are
// assembled from the per-solver combo set, so the walk does no
// per-candidate key allocation and no cost-model lookups.
func (o *optionSearch) candidates(total int, yield func(td model.TierDesign, fps candFP, c units.Money) error) error {
	grid := o.opt.NActive
	for nActive := o.nMinPerf; nActive <= total; nActive++ {
		if !grid.Contains(float64(nActive)) {
			continue
		}
		nSpare := total - nActive
		minActive := minActiveFor(o.opt, nActive, o.nMinDegraded)
		warms := warmZeroLevels
		if nSpare > 0 {
			warms = o.warmSpare
		}
		for _, warm := range warms {
			for ci, combo := range o.cs.combos {
				td := model.TierDesign{
					TierName:   o.tier.Name,
					Option:     o.opt,
					NActive:    nActive,
					NSpare:     nSpare,
					NMinPerf:   o.nMinPerf,
					MinActive:  minActive,
					SpareWarm:  warm,
					Mechanisms: combo,
				}
				mfp := modeFPOf(o.base, o.cs.fps[ci], warm, nSpare > 0)
				fps := candFP{avail: availFPOf(mfp, nActive, minActive, nSpare), mode: mfp}
				if err := yield(td, fps, o.cs.price(nActive, nSpare, warm, ci)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// searchOption finds the option's minimum-cost design meeting the
// downtime budget, seeding the incumbent from w.best — the searches of
// other options — so pruning carries across resource types, and leaving
// the improved incumbent there. Every evaluated downtime narrows w's
// budget interval, and every evaluated (cost, downtime) pair joins pool
// when it is non-nil.
//
// Two strategies share one loop: each size's batch is generated, then
// visited candidate by candidate, and they differ only in the visit
// order and at the first candidate dearer than the incumbent.
// SearchExhaustive visits in enumeration order, pruning each dearer
// candidate and continuing (§4.1). SearchBnB visits in ascending-cost
// order instead: the first feasible candidate is the size's cheapest,
// so the first dearer candidate cuts the rest of the batch in one
// stroke without an engine evaluation, including whole dominated option
// subtrees (their first size cuts at zero evaluations and the size rule
// ends the option). Both orders leave the same incumbent: the final
// best is the cheapest feasible candidate with ties broken toward lower
// downtime and then enumeration order, which the (cost, index) sort
// preserves.
//
// Cancellation: the candidate yield checks ctx once per candidate via a
// captured Done channel — a non-blocking select against a nil channel
// when the context cannot be cancelled, so the un-cancelled hot path
// stays allocation-free and branch-cheap.
//
// It returns the option's tail certificate: a proven lower bound on
// the cost of every candidate the size loop did NOT visit (+Inf when it
// exhausted the whole size grid). searchTier compares the
// certificates against the tier's final optimum to certify it as a true
// cost lower bound over the tier's entire candidate space — what the
// combination bounds in solveEnterprise rely on.
func (s *Solver) searchOption(ctx context.Context, tier *model.Tier, opt *model.ResourceOption, load tierLoad, budgetMinutes float64,
	w *tierWalk, pool *[]costDown, stats *searchStats) (float64, error) {

	tail := math.Inf(1)
	o, ok, err := s.newOptionSearch(tier, opt, load)
	if err != nil || !ok {
		return tail, err
	}
	tr := s.opts.Tracer
	res := opt.ResourceType().Name
	done := ctx.Done()
	best := w.best
	bnb := s.opts.Search != SearchExhaustive
	// Per-size batch, reused across sizes within the walk and pooled
	// across walks.
	sc := searchScratchPool.Get().(*searchScratch)
	buf, fpsBuf, order := sc.buf, sc.fps, sc.order
	defer func() {
		sc.buf, sc.fps, sc.order = buf[:0], fpsBuf[:0], order[:0]
		searchScratchPool.Put(sc)
	}()
	prevBestDowntime := math.Inf(1)
	for extra := 0; extra <= s.opts.MaxRedundancy; extra++ {
		total := o.nMinPerf + extra
		if o.maxTotal > 0 && total > o.maxTotal {
			break
		}
		minCostAtTotal := math.Inf(1)
		bestDowntimeAtTotal := math.Inf(1)
		buf, fpsBuf = buf[:0], fpsBuf[:0]
		err := o.candidates(total, func(td model.TierDesign, fps candFP, c units.Money) error {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			stats.CandidatesGenerated++
			if tr != nil {
				tr.Emit(obs.Event{Ev: obs.EvCandGen, Tier: tier.Name, Res: res,
					N: td.NActive, S: td.NSpare, Warm: td.SpareWarm, Cost: float64(c)})
			}
			if float64(c) < minCostAtTotal {
				minCostAtTotal = float64(c)
			}
			buf = append(buf, TierCandidate{Design: td, Cost: c})
			fpsBuf = append(fpsBuf, fps)
			return nil
		})
		if err != nil {
			return tail, err
		}
		// Visit order: enumeration order, or for B&B best-first — ascending
		// cost with the enumeration index as the deterministic tie-break.
		order = order[:0]
		for i := range buf {
			order = append(order, i)
		}
		if bnb {
			insertSortByCost(order, buf)
		}
		for k, i := range order {
			c := buf[i].Cost
			if best != nil && c > best.Cost {
				if bnb {
					// Admissible bound: costs are sorted, so every
					// remaining candidate is dearer than the incumbent and
					// cannot replace it.
					stats.BoundPruned += len(order) - k
					if tr != nil {
						for _, i := range order[k:] {
							tr.Emit(obs.Event{Ev: obs.EvBoundPrune, Tier: tier.Name, Res: res,
								N: buf[i].Design.NActive, S: buf[i].Design.NSpare, Cost: float64(buf[i].Cost)})
						}
					}
					break
				}
				// §4.1: once a feasible design is known, evaluate cost
				// first and reject dearer candidates without an
				// availability evaluation. Equal-cost candidates still
				// evaluate so ties break toward lower downtime.
				stats.CostPruned++
				if tr != nil {
					tr.Emit(obs.Event{Ev: obs.EvCandPrune, Tier: tier.Name, Res: res,
						N: buf[i].Design.NActive, S: buf[i].Design.NSpare, Cost: float64(c)})
				}
				continue
			}
			entry, err := s.evalTier(ctx, &buf[i].Design, fpsBuf[i], stats)
			if err != nil {
				return tail, err
			}
			down := entry.downtimeMinutes
			if pool != nil {
				*pool = append(*pool, costDown{c, down})
			}
			if down < bestDowntimeAtTotal {
				bestDowntimeAtTotal = down
			}
			// The walk's one use of the budget. A NaN downtime fails the
			// test at every budget, so it narrows neither end.
			feasible := down <= budgetMinutes
			if feasible {
				w.lo = max(w.lo, down)
			} else if down < w.hi {
				w.hi = down
			}
			if feasible &&
				(best == nil || c < best.Cost || (c == best.Cost && down < best.DowntimeMinutes)) {
				b := buf[i]
				b.DowntimeMinutes = down
				best = &b
				if tr != nil {
					tr.Emit(obs.Event{Ev: obs.EvIncumbent, Tier: tier.Name, Res: res,
						N: b.Design.NActive, S: b.Design.NSpare, Warm: b.Design.SpareWarm,
						Cost: float64(c), Down: down})
				}
			}
		}
		// Termination: when every candidate at this size already costs
		// at least the incumbent, larger sizes only cost more. The tail
		// certificate for the unvisited sizes is this size's minimum cost
		// when the grid is contiguous (per-size minimum cost is then
		// non-decreasing), and the closed-form floor otherwise.
		if best != nil && minCostAtTotal >= float64(best.Cost) {
			if o.contiguous {
				tail = minCostAtTotal
			} else {
				tail = o.tailCostLB(total + 1)
			}
			break
		}
		// Infeasibility: no feasible design yet and the availability
		// metric degrades as resources grow (§4.1). Nothing beyond this
		// size was priced, so only the closed-form floor certifies it.
		if best == nil && bestDowntimeAtTotal > prevBestDowntime {
			tail = o.tailCostLB(total + 1)
			break
		}
		prevBestDowntime = bestDowntimeAtTotal
	}
	w.best = best
	return tail, nil
}

// tierWalk is one searchTier run: its answer and the budget interval
// [lo, hi) the walk cannot tell apart. The walk uses the budget only in
// the test down <= budget on each evaluated downtime, so with lo the
// largest evaluated downtime at or under the budget and hi the smallest
// one over it (±Inf when there is none), every test comes out the same
// at every budget in [lo, hi) — and so does the whole walk: its answer,
// certificate, prunes, evaluation requests and pool pairs. The interval
// is open at hi because a budget of hi passes the test down = hi.
type tierWalk struct {
	best   *TierCandidate
	cert   bool
	lo, hi float64
}

// searchTier finds the minimum-cost design for service tier ti in
// isolation, adding the (cost, downtime) pairs it evaluates to the
// tier's bound pool when the solve collects pools.
//
// The walk's cert reports that its result is a proven cost lower bound
// over the tier's ENTIRE candidate space, not just the visited part:
// every option's tail certificate — the lower bound on whatever its
// size loop left unexplored — is at least the final optimum's cost.
// Candidates at visited sizes need no certificate: evaluated ones
// competed for the incumbency directly and pruned ones were dearer than
// an incumbent the final optimum only improved on.
func (s *Solver) searchTier(ctx context.Context, ti int, load tierLoad, budgetMinutes float64, stats *searchStats) (tierWalk, error) {
	tier := &s.svc.Tiers[ti]
	var pool *[]costDown
	if stats.pools != nil {
		pool = &stats.pools[ti]
	}
	w := tierWalk{lo: math.Inf(-1), hi: math.Inf(1)}
	minTail := math.Inf(1) // the weakest option certificate
	for i := range tier.Options {
		tail, err := s.searchOption(ctx, tier, &tier.Options[i], load, budgetMinutes, &w, pool, stats)
		if err != nil {
			return tierWalk{}, err
		}
		minTail = math.Min(minTail, tail)
	}
	w.cert = w.best != nil && minTail >= float64(w.best.Cost)
	return w, nil
}

// frontierImproveEps is the minimum relative downtime improvement a
// larger design must deliver for the frontier search to keep growing a
// resource option.
const frontierImproveEps = 0.01

// sizeBatch holds one size's generated candidates for the frontier
// walk. Two instances alternate so the lookahead generation reuses
// buffers instead of reallocating per size.
type sizeBatch struct {
	cands   []TierCandidate
	fps     []candFP
	minCost float64
	total   int
	ok      bool // size exists within the redundancy and instance caps
}

// optionFrontier collects the option's Pareto-optimal (cost, downtime)
// candidates, exploring sizes until added resources stop improving the
// best achievable downtime. Unlike searchOption, every candidate here
// is evaluated regardless of order.
//
// maxCost is the branch-and-bound cut (+Inf disables it). Three prunes
// apply, each before any engine evaluation:
//
//   - Size subtree: on a contiguous grid, per-size minimum cost is
//     non-decreasing, so once a size's cheapest candidate is over the
//     bound, the whole remaining size tail is cut.
//   - Last-size candidates: individual over-bound candidates are
//     skipped only at the LAST admitted size (the next size is over the
//     bound or off the grid). Earlier sizes must evaluate everything:
//     the improvement rule below consumes evaluated downtimes, and a
//     skip there could change which sizes this walk explores relative
//     to the unbounded one. At the last size no later size can
//     contribute in-bound points, so the termination divergence is
//     irrelevant. The generation lookahead this needs is deferred-
//     counted: a looked-ahead batch joins the stats (and the trace)
//     only when the walk actually reaches or prunes it, keeping
//     candidate counts identical to the unbounded walk.
//   - Whole option: a non-contiguous grid breaks the per-size
//     monotonicity argument, so the only admissible cut is the closed-
//     form floor over the whole option (tailCostLB at the performance
//     minimum). Over the bound, the option is skipped as one pruned
//     subtree; otherwise it builds unbounded.
//
// Every cut removes only candidates dearer than maxCost, and removing a
// dearer-than-threshold candidate can never change which ≤-threshold
// points survive Pareto reduction — so the reduced frontier is exactly
// the ≤ maxCost prefix of the unbounded one (see tierFrontier).
func (s *Solver) optionFrontier(ctx context.Context, tier *model.Tier, opt *model.ResourceOption, load tierLoad, maxCost float64, stats *searchStats) ([]TierCandidate, error) {
	o, ok, err := s.newOptionSearch(tier, opt, load)
	if err != nil || !ok {
		return nil, err
	}
	tr := s.opts.Tracer
	res := opt.ResourceType().Name
	bounded := !math.IsInf(maxCost, 1)
	if bounded && !o.contiguous {
		if lb := o.tailCostLB(o.nMinPerf); lb > maxCost {
			// Whole-option subtree prune: even the closed-form floor over
			// every size is over the bound. Counted as one pruned subtree —
			// its candidates were never generated.
			stats.BoundPruned++
			if tr != nil {
				tr.Emit(obs.Event{Ev: obs.EvBoundPrune, Tier: tier.Name, Res: res,
					N: o.nMinPerf, Cost: lb})
			}
			return nil, nil
		}
		bounded = false
		maxCost = math.Inf(1)
	}
	done := ctx.Done()
	gen := func(total int, b *sizeBatch) error {
		b.cands, b.fps = b.cands[:0], b.fps[:0]
		b.minCost = math.Inf(1)
		b.total = total
		b.ok = total <= o.nMinPerf+s.opts.MaxRedundancy && (o.maxTotal == 0 || total <= o.maxTotal)
		if !b.ok {
			return nil
		}
		return o.candidates(total, func(td model.TierDesign, fps candFP, c units.Money) error {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if float64(c) < b.minCost {
				b.minCost = float64(c)
			}
			b.cands = append(b.cands, TierCandidate{Design: td, Cost: c})
			b.fps = append(b.fps, fps)
			return nil
		})
	}
	// admit counts a generated batch into the stats and the trace; prune
	// marks an admitted batch (or part of one) bound-pruned.
	admit := func(b *sizeBatch) {
		stats.CandidatesGenerated += len(b.cands)
		if tr != nil {
			for i := range b.cands {
				td := &b.cands[i].Design
				tr.Emit(obs.Event{Ev: obs.EvCandGen, Tier: tier.Name, Res: res,
					N: td.NActive, S: td.NSpare, Warm: td.SpareWarm, Cost: float64(b.cands[i].Cost)})
			}
		}
	}
	prune := func(cands []TierCandidate) {
		stats.BoundPruned += len(cands)
		if tr != nil {
			for i := range cands {
				tr.Emit(obs.Event{Ev: obs.EvBoundPrune, Tier: tier.Name, Res: res,
					N: cands[i].Design.NActive, S: cands[i].Design.NSpare, Cost: float64(cands[i].Cost)})
			}
		}
	}
	sc := searchScratchPool.Get().(*searchScratch)
	all, evalIdx, skipped := sc.all[:0], sc.evalIdx[:0], sc.skipped[:0]
	cur, nxt := &sc.a, &sc.b
	defer func() {
		// paretoReduce copies the surviving candidates out, so the
		// accumulation buffer goes straight back to the pool.
		sc.all, sc.evalIdx, sc.skipped = all[:0], evalIdx[:0], skipped[:0]
		searchScratchPool.Put(sc)
	}()
	if err := gen(o.nMinPerf, cur); err != nil {
		return nil, err
	}
	bestDowntime := math.Inf(1)
	stale := 0
	for cur.ok {
		admit(cur)
		if cur.minCost > maxCost {
			// Size subtree cut: this size's cheapest candidate is already
			// over the bound, and larger sizes only cost more.
			prune(cur.cands)
			break
		}
		if err := gen(cur.total+1, nxt); err != nil {
			return nil, err
		}
		last := bounded && (!nxt.ok || nxt.minCost > maxCost)
		evalIdx = evalIdx[:0]
		skipped = skipped[:0]
		for i := range cur.cands {
			if last && float64(cur.cands[i].Cost) > maxCost {
				skipped = append(skipped, cur.cands[i])
				continue
			}
			evalIdx = append(evalIdx, i)
		}
		prune(skipped)
		improvedTo := bestDowntime
		for _, i := range evalIdx {
			entry, err := s.evalTier(ctx, &cur.cands[i].Design, cur.fps[i], stats)
			if err != nil {
				return nil, err
			}
			cur.cands[i].DowntimeMinutes = entry.downtimeMinutes
			if entry.downtimeMinutes < improvedTo {
				improvedTo = entry.downtimeMinutes
			}
			all = append(all, cur.cands[i])
		}
		if last {
			if nxt.ok {
				// The looked-ahead size is over the bound: account it and
				// cut the remaining size tail.
				admit(nxt)
				prune(nxt.cands)
			}
			break
		}
		if improvedTo < bestDowntime*(1-frontierImproveEps) {
			bestDowntime = improvedTo
			stale = 0
		} else {
			stale++
			if stale >= 2 {
				break
			}
		}
		cur, nxt = nxt, cur
	}
	return paretoReduce(all), nil
}

// tierFrontier merges option frontiers into the tier's Pareto frontier,
// sorted by ascending cost (and so descending downtime), merging the
// option frontiers in option order.
//
// maxCost, when finite, truncates the result to points the combination
// phase can actually use: designs dearer than the tier's admissible
// cost threshold cannot appear in any combination cheaper than the
// solve's upper bound. The truncated frontier is exactly the ≤ maxCost
// prefix of the untruncated one, which is what the combiner's
// post-combination validity check relies on (see solveEnterprise).
func (s *Solver) tierFrontier(ctx context.Context, tier *model.Tier, load tierLoad, maxCost float64, stats *searchStats) ([]TierCandidate, error) {
	var all []TierCandidate
	for i := range tier.Options {
		f, err := s.optionFrontier(ctx, tier, &tier.Options[i], load, maxCost, stats)
		if err != nil {
			return nil, err
		}
		all = append(all, f...)
	}
	out := paretoReduce(all)
	if !math.IsInf(maxCost, 1) {
		for len(out) > 0 && float64(out[len(out)-1].Cost) > maxCost {
			out = out[:len(out)-1]
		}
	}
	return out, nil
}

// costDown is one evaluated (cost, downtime) pair of a bound pool.
type costDown struct {
	cost units.Money
	down float64
}

// reducePairs is the bound pools' Pareto reducer: it keeps only pairs
// not dominated in (cost, downtime), sorted by ascending cost, in place
// — the result is a prefix of p. Exact duplicates collapse to one, so
// the result is a function of the set of pairs alone, and reducing a
// part of a pool first never changes the reduction of the whole.
func reducePairs(p []costDown) []costDown {
	slices.SortFunc(p, func(a, b costDown) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.down, b.down)
	})
	out := p[:0]
	bestDown := math.Inf(1)
	for _, x := range p {
		if x.down < bestDown {
			out = append(out, x)
			bestDown = x.down
		}
	}
	return out
}

// paretoReduce keeps only candidates not dominated in (cost, downtime),
// returning them sorted by ascending cost. It sorts cands in place —
// every caller owns its slice — so the frontier hot path allocates only
// the reduced output.
func paretoReduce(cands []TierCandidate) []TierCandidate {
	if len(cands) == 0 {
		return nil
	}
	// Sort by cost ascending, then downtime ascending.
	sortCandidates(cands)
	out := make([]TierCandidate, 0, len(cands))
	bestDown := math.Inf(1)
	for _, c := range cands {
		if c.DowntimeMinutes < bestDown {
			out = append(out, c)
			bestDown = c.DowntimeMinutes
		}
	}
	return out
}

// sortCandidates orders cands by cost, then downtime. slices.SortFunc
// runs the same pattern-defeating quicksort as sort.Slice, so equal
// keys land in the same order, without sort.Slice's reflective swapper
// and escaping closure on every call.
func sortCandidates(cands []TierCandidate) {
	slices.SortFunc(cands, func(a, b TierCandidate) int {
		if c := cmp.Compare(a.Cost, b.Cost); c != 0 {
			return c
		}
		return cmp.Compare(a.DowntimeMinutes, b.DowntimeMinutes)
	})
}
