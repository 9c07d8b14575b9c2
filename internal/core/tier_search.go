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
	// mode is the design's mode fingerprint, which keys its resolved
	// effective modes in the solver's mode cache; zero on candidates
	// the solver did not build.
	mode fp128
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

// optionTable is the load-independent setup of one resource option's
// walks, built on the option's first walk and kept on the solver: the
// performance curve, the instance cap, the (tier, resource) base
// fingerprint and, from the first walk the option can meet the load in,
// the combo set, the spare warmth levels and the mode-fingerprint
// table. It also remembers the performance minima at the last load it
// was asked about, so a chain — one load — resolves them once per option
// and every walk of the chain reads them back.
type optionTable struct {
	tier     *model.Tier
	opt      *model.ResourceOption
	curve    perf.Curve
	maxTotal int // component-level instance cap; 0 means unlimited
	// base is the (tier, resource) fingerprint every candidate's
	// fingerprints extend.
	base fp128

	// cs is the resource type's combinations with their fingerprints and
	// price table; nil until the option's first feasible walk.
	cs *comboSet
	// warmSpare is the warmth-level list for candidates with spares.
	warmSpare []int
	// modes is the mode fingerprint of every (warm slot, combo): slot 0
	// holds the spare-less candidates, slot 1+w those with spares at
	// warmth w; combo ci of slot k is modes[k*len(cs.combos)+ci].
	modes []fp128

	// at and lim are the last load limits resolved and its answer.
	at  tierLoad
	lim optionLimits
}

// optionLimits is what a load makes of one option: the performance
// minima and whether the option can meet the load at all.
type optionLimits struct {
	ok       bool
	resolved bool // the table's at holds the load these limits are for
	nMinPerf int
	// nMinDegraded is the performance minimum against the degraded
	// (failover) load: the up-threshold M for dynamically sized,
	// resource-scoped designs. Equal to nMinPerf unless the
	// requirements carry a degraded-throughput SLO.
	nMinDegraded int
	// contiguous reports that the active-count grid contains every
	// integer the search can explore. The frontier cost cut relies on
	// the option's minimum cost being non-decreasing in the total, whose
	// proof maps a candidate at total t+1 to one at t by dropping an
	// instance — valid only on a step-1 grid. Non-contiguous options
	// build their frontiers uncut.
	contiguous bool
}

// optionTable returns the solver's table for a resource option,
// building it on first use.
func (s *Solver) optionTable(tier *model.Tier, opt *model.ResourceOption) (*optionTable, error) {
	if t := s.optTables[opt]; t != nil {
		return t, nil
	}
	curve, err := s.curveFor(opt)
	if err != nil {
		return nil, err
	}
	rt := opt.ResourceType()
	t := &optionTable{
		tier:     tier,
		opt:      opt,
		curve:    curve,
		maxTotal: rt.MaxInstances(),
		base:     baseFP(tier.Name, rt.Name),
	}
	if s.optTables == nil {
		s.optTables = map[*model.ResourceOption]*optionTable{}
	}
	s.optTables[opt] = t
	return t, nil
}

// limits resolves the option's performance minima at load, reusing the
// last answer when the load is the same.
func (t *optionTable) limits(load tierLoad, maxRedundancy int) optionLimits {
	if t.lim.resolved && t.at == load {
		return t.lim
	}
	lim := optionLimits{resolved: true}
	t.at, t.lim = load, lim
	nMinPerf, ok := perf.MinActive(t.curve, load.full, t.opt.NActive)
	if !ok || (t.maxTotal > 0 && nMinPerf > t.maxTotal) {
		// The throughput, or the component instance cap, rules this
		// option out before it even meets the performance requirement.
		return lim
	}
	lim.ok, lim.nMinPerf, lim.nMinDegraded = true, nMinPerf, nMinPerf
	if load.degraded < load.full {
		// The in-order grid scan stops no later for a weaker bar, so
		// nMinDegraded ≤ nMinPerf; the ok fallback guards non-monotone
		// curves only.
		if n, ok := perf.MinActive(t.curve, load.degraded, t.opt.NActive); ok && n < nMinPerf {
			lim.nMinDegraded = n
		}
	}
	lim.contiguous = true
	for n := nMinPerf; n <= nMinPerf+maxRedundancy; n++ {
		if t.maxTotal > 0 && n > t.maxTotal {
			break
		}
		if !t.opt.NActive.Contains(float64(n)) {
			lim.contiguous = false
			break
		}
	}
	t.lim = lim
	return lim
}

// prepare builds the combo-dependent part of the table on the option's
// first feasible walk.
func (t *optionTable) prepare(s *Solver) error {
	if t.cs != nil {
		return nil
	}
	rt := t.opt.ResourceType()
	cs, err := s.mechCombos(rt)
	if err != nil {
		return err
	}
	t.warmSpare = s.warmLevels(rt, 1)
	nc := len(cs.combos)
	t.modes = make([]fp128, (1+len(t.warmSpare))*nc)
	for ci := range cs.combos {
		t.modes[ci] = modeFPOf(t.base, cs.fps[ci], 0, false)
		for _, warm := range t.warmSpare {
			t.modes[(1+warm)*nc+ci] = modeFPOf(t.base, cs.fps[ci], warm, true)
		}
	}
	t.cs = cs
	return nil
}

// optionSearch walks one resource option's design dimensions in the
// paper's order: total resources ascending from the performance
// minimum; within a total, every (active, spare) split on the allowed
// grid, every spare operational mode, and every mechanism combination.
// It is the option's table at one load's limits; searchOption and
// optionFrontier apply the paper's termination rules to its batches.
type optionSearch struct {
	*optionTable
	optionLimits
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
func (s *Solver) newOptionSearch(tier *model.Tier, opt *model.ResourceOption, load tierLoad) (optionSearch, bool, error) {
	t, err := s.optionTable(tier, opt)
	if err != nil {
		return optionSearch{}, false, err
	}
	lim := t.limits(load, s.opts.MaxRedundancy)
	if !lim.ok {
		return optionSearch{}, false, nil
	}
	if err := t.prepare(s); err != nil {
		return optionSearch{}, false, err
	}
	return optionSearch{t, lim}, true, nil
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

// candRec is one generated candidate in compact form: its shape, combo
// index and price. The walks generate, count and sort these, and build
// a candidate's TierDesign and fingerprints only when it is priced or
// kept (see optionSearch.design and optionSearch.fps). down is the
// evaluated downtime, set by the frontier walk.
type candRec struct {
	cost    units.Money
	down    float64
	nActive int32
	nSpare  int32
	warm    int32
	combo   int32
}

// candidates appends every candidate at a given total resource count to
// buf, priced from the per-solver combo set, so generation does no
// per-candidate allocation, fingerprinting or cost-model lookup.
func (o *optionSearch) candidates(buf []candRec, total int) []candRec {
	grid := o.opt.NActive
	nc := len(o.cs.combos)
	for nActive := o.nMinPerf; nActive <= total; nActive++ {
		if !grid.Contains(float64(nActive)) {
			continue
		}
		nSpare := total - nActive
		warms := warmZeroLevels
		if nSpare > 0 {
			warms = o.warmSpare
		}
		for _, warm := range warms {
			for ci := 0; ci < nc; ci++ {
				buf = append(buf, candRec{
					cost:    o.cs.price(nActive, nSpare, warm, ci),
					nActive: int32(nActive),
					nSpare:  int32(nSpare),
					warm:    int32(warm),
					combo:   int32(ci),
				})
			}
		}
	}
	return buf
}

// design builds a candidate's TierDesign.
func (o *optionSearch) design(r *candRec) model.TierDesign {
	n := int(r.nActive)
	return model.TierDesign{
		TierName:   o.tier.Name,
		Option:     o.opt,
		NActive:    n,
		NSpare:     int(r.nSpare),
		NMinPerf:   o.nMinPerf,
		MinActive:  minActiveFor(o.opt, n, o.nMinDegraded),
		SpareWarm:  int(r.warm),
		Mechanisms: o.cs.combos[r.combo],
	}
}

// modeFP reads a candidate's mode fingerprint from the table.
func (o *optionSearch) modeFP(r *candRec) fp128 {
	slot := 0
	if r.nSpare > 0 {
		slot = 1 + int(r.warm)
	}
	return o.modes[slot*len(o.cs.combos)+int(r.combo)]
}

// fps completes a candidate's cache keys: the tabled mode fingerprint
// and the availability fingerprint over its exact counts.
func (o *optionSearch) fps(r *candRec) candFP {
	mode := o.modeFP(r)
	n := int(r.nActive)
	return candFP{avail: availFPOf(mode, n, minActiveFor(o.opt, n, o.nMinDegraded), int(r.nSpare)), mode: mode}
}

// eval prices one candidate through the evaluation cache, building its
// design into td, which the caller owns.
func (o *optionSearch) eval(ctx context.Context, s *Solver, r *candRec, td *model.TierDesign, stats *searchStats) (candFP, evalEntry, error) {
	*td = o.design(r)
	fps := o.fps(r)
	entry, err := s.evalTier(ctx, td, fps, stats)
	return fps, entry, err
}

// emitGen traces a batch's generated candidates.
func emitGen(tr obs.Tracer, tier, res string, recs []candRec) {
	for i := range recs {
		r := &recs[i]
		tr.Emit(obs.Event{Ev: obs.EvCandGen, Tier: tier, Res: res,
			N: int(r.nActive), S: int(r.nSpare), Warm: int(r.warm), Cost: float64(r.cost)})
	}
}

// searchOption finds the option's minimum-cost design meeting the
// downtime budget, seeding the incumbent from w.best — the searches of
// other options — so pruning carries across resource types, and leaving
// the improved incumbent there. Every evaluated downtime narrows w's
// budget interval, and every evaluated (cost, downtime) pair joins pool,
// the walk's bound-pool segment, when it is non-nil.
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
// preserves. Only a visited candidate gets a TierDesign and
// fingerprints; a pruned one stays a compact record.
//
// Cancellation: the walk checks ctx once per size batch, before
// counting it.
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
	best := w.best
	bnb := s.opts.Search != SearchExhaustive
	// Per-size batch, reused across sizes within the walk and pooled
	// across walks.
	sc := searchScratchPool.Get().(*searchScratch)
	buf, order := sc.buf, sc.order
	defer func() {
		sc.buf, sc.order = buf[:0], order[:0]
		searchScratchPool.Put(sc)
	}()
	td := &sc.td
	prevBestDowntime := math.Inf(1)
	for extra := 0; extra <= s.opts.MaxRedundancy; extra++ {
		total := o.nMinPerf + extra
		if o.maxTotal > 0 && total > o.maxTotal {
			break
		}
		if err := ctx.Err(); err != nil {
			return tail, err
		}
		buf = o.candidates(buf[:0], total)
		stats.CandidatesGenerated += len(buf)
		if tr != nil {
			emitGen(tr, tier.Name, res, buf)
		}
		minCostAtTotal := math.Inf(1)
		bestDowntimeAtTotal := math.Inf(1)
		// Visit order: enumeration order, or for B&B best-first — ascending
		// cost with the enumeration index as the deterministic tie-break.
		order = order[:0]
		for i := range buf {
			if float64(buf[i].cost) < minCostAtTotal {
				minCostAtTotal = float64(buf[i].cost)
			}
			order = append(order, i)
		}
		if bnb {
			insertSortByCost(order, buf)
		}
		for k, i := range order {
			r := &buf[i]
			c := r.cost
			if best != nil && c > best.Cost {
				if bnb {
					// Admissible bound: costs are sorted, so every
					// remaining candidate is dearer than the incumbent and
					// cannot replace it.
					stats.BoundPruned += len(order) - k
					if tr != nil {
						for _, i := range order[k:] {
							tr.Emit(obs.Event{Ev: obs.EvBoundPrune, Tier: tier.Name, Res: res,
								N: int(buf[i].nActive), S: int(buf[i].nSpare), Cost: float64(buf[i].cost)})
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
						N: int(r.nActive), S: int(r.nSpare), Cost: float64(c)})
				}
				continue
			}
			fps, entry, err := o.eval(ctx, s, r, td, stats)
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
				best = &TierCandidate{Design: *td, Cost: c, DowntimeMinutes: down, mode: fps.mode}
				if tr != nil {
					tr.Emit(obs.Event{Ev: obs.EvIncumbent, Tier: tier.Name, Res: res,
						N: td.NActive, S: td.NSpare, Warm: td.SpareWarm,
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
// isolation. When the solve collects pools, the walk gathers the (cost,
// downtime) pairs it evaluates, reduces them once at its end and merges
// them into the tier's bound pool; seg is that reduced segment, held in
// the solver's scratch until the next walk.
//
// The walk's cert reports that its result is a proven cost lower bound
// over the tier's ENTIRE candidate space, not just the visited part:
// every option's tail certificate — the lower bound on whatever its
// size loop left unexplored — is at least the final optimum's cost.
// Candidates at visited sizes need no certificate: evaluated ones
// competed for the incumbency directly and pruned ones were dearer than
// an incumbent the final optimum only improved on.
func (s *Solver) searchTier(ctx context.Context, ti int, load tierLoad, budgetMinutes float64, stats *searchStats) (w tierWalk, seg []costDown, err error) {
	tier := &s.svc.Tiers[ti]
	var pool *[]costDown
	if stats.pools != nil {
		s.sc.seg = s.sc.seg[:0]
		pool = &s.sc.seg
	}
	w = tierWalk{lo: math.Inf(-1), hi: math.Inf(1)}
	minTail := math.Inf(1) // the weakest option certificate
	for i := range tier.Options {
		tail, err := s.searchOption(ctx, tier, &tier.Options[i], load, budgetMinutes, &w, pool, stats)
		if err != nil {
			return tierWalk{}, nil, err
		}
		minTail = math.Min(minTail, tail)
	}
	w.cert = w.best != nil && minTail >= float64(w.best.Cost)
	if pool != nil {
		seg = reducePairs(*pool)
		s.mergePool(stats, ti, seg)
	}
	return w, seg, nil
}

// mergePool merges seg, reduced pairs of tier ti, into the tier's bound
// pool, which stays reduced (see mergePairs). The merge writes into the
// solver's spare buffer, which then swaps places with the old pool.
func (s *Solver) mergePool(stats *searchStats, ti int, seg []costDown) {
	if len(seg) == 0 {
		return
	}
	out := mergePairs(s.sc.spare[:0], stats.pools[ti], seg)
	s.sc.spare, stats.pools[ti] = stats.pools[ti][:0], out
}

// frontierImproveEps is the minimum relative downtime improvement a
// larger design must deliver for the frontier search to keep growing a
// resource option.
const frontierImproveEps = 0.01

// sizeBatch holds one size's generated candidates for the frontier
// walk. Two instances alternate so the lookahead generation reuses
// buffers instead of reallocating per size.
type sizeBatch struct {
	cands   []candRec
	minCost float64
	total   int
	ok      bool // size exists within the redundancy and instance caps
}

// optionFrontier appends the option's Pareto-optimal (cost, downtime)
// candidates to dst, exploring sizes until added resources stop
// improving the best achievable downtime. Unlike searchOption, every
// candidate here is evaluated regardless of order. Candidates stay
// compact records until Pareto reduction: only the surviving points get
// a TierDesign.
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
func (s *Solver) optionFrontier(ctx context.Context, tier *model.Tier, opt *model.ResourceOption, load tierLoad, maxCost float64, dst []TierCandidate, stats *searchStats) ([]TierCandidate, error) {
	o, ok, err := s.newOptionSearch(tier, opt, load)
	if err != nil || !ok {
		return dst, err
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
			return dst, nil
		}
		bounded = false
		maxCost = math.Inf(1)
	}
	gen := func(total int, b *sizeBatch) error {
		b.cands = b.cands[:0]
		b.minCost = math.Inf(1)
		b.total = total
		b.ok = total <= o.nMinPerf+s.opts.MaxRedundancy && (o.maxTotal == 0 || total <= o.maxTotal)
		if !b.ok {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		b.cands = o.candidates(b.cands, total)
		for i := range b.cands {
			if c := float64(b.cands[i].cost); c < b.minCost {
				b.minCost = c
			}
		}
		return nil
	}
	// admit counts a generated batch into the stats and the trace; prune
	// marks an admitted batch (or part of one) bound-pruned.
	admit := func(b *sizeBatch) {
		stats.CandidatesGenerated += len(b.cands)
		if tr != nil {
			emitGen(tr, tier.Name, res, b.cands)
		}
	}
	prune := func(cands []candRec) {
		stats.BoundPruned += len(cands)
		if tr != nil {
			for i := range cands {
				tr.Emit(obs.Event{Ev: obs.EvBoundPrune, Tier: tier.Name, Res: res,
					N: int(cands[i].nActive), S: int(cands[i].nSpare), Cost: float64(cands[i].cost)})
			}
		}
	}
	sc := searchScratchPool.Get().(*searchScratch)
	all, skipped := sc.all[:0], sc.skipped[:0]
	cur, nxt := &sc.a, &sc.b
	defer func() {
		sc.all, sc.skipped = all[:0], skipped[:0]
		searchScratchPool.Put(sc)
	}()
	td := &sc.td
	if err := gen(o.nMinPerf, cur); err != nil {
		return dst, err
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
			return dst, err
		}
		last := bounded && (!nxt.ok || nxt.minCost > maxCost)
		skipped = skipped[:0]
		if last {
			for i := range cur.cands {
				if float64(cur.cands[i].cost) > maxCost {
					skipped = append(skipped, cur.cands[i])
				}
			}
		}
		prune(skipped)
		improvedTo := bestDowntime
		for i := range cur.cands {
			r := &cur.cands[i]
			if last && float64(r.cost) > maxCost {
				continue
			}
			_, entry, err := o.eval(ctx, s, r, td, stats)
			if err != nil {
				return dst, err
			}
			r.down = entry.downtimeMinutes
			if r.down < improvedTo {
				improvedTo = r.down
			}
			all = append(all, *r)
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
	return o.appendPareto(dst, all), nil
}

// appendPareto keeps only the records not dominated in (cost,
// downtime), sorting recs in place, and appends the survivors'
// candidates to dst in ascending cost. It sorts exactly as paretoReduce
// sorts candidates, so the same record survives a tie.
func (o *optionSearch) appendPareto(dst []TierCandidate, recs []candRec) []TierCandidate {
	slices.SortFunc(recs, func(a, b candRec) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.down, b.down)
	})
	bestDown := math.Inf(1)
	for i := range recs {
		if r := &recs[i]; r.down < bestDown {
			bestDown = r.down
			dst = append(dst, TierCandidate{Design: o.design(r), Cost: r.cost, DowntimeMinutes: r.down, mode: o.modeFP(r)})
		}
	}
	return dst
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
//
// The option frontiers gather in the solver's scratch and reduce there,
// so the returned frontier — which the memo keeps — is the one
// allocation, sized to its points.
func (s *Solver) tierFrontier(ctx context.Context, tier *model.Tier, load tierLoad, maxCost float64, stats *searchStats) ([]TierCandidate, error) {
	all := s.sc.all[:0]
	var err error
	for i := range tier.Options {
		if all, err = s.optionFrontier(ctx, tier, &tier.Options[i], load, maxCost, all, stats); err != nil {
			break
		}
	}
	s.sc.all = all
	if err != nil {
		return nil, err
	}
	out := frontierPrefix(paretoReduce(all), maxCost)
	if len(out) == 0 {
		return nil, nil
	}
	return slices.Clone(out), nil
}

// costDown is one evaluated (cost, downtime) pair of a bound pool.
type costDown struct {
	cost units.Money
	down float64
}

// comparePairs orders bound-pool pairs by ascending cost, then
// ascending downtime: the order reducePairs sorts in and mergePairs
// merges in.
func comparePairs(a, b costDown) int {
	if c := cmp.Compare(a.cost, b.cost); c != 0 {
		return c
	}
	return cmp.Compare(a.down, b.down)
}

// keepPair is the Pareto rule over pairs arriving in comparePairs
// order: x joins out when its downtime beats bestDown, the least
// downtime before it. It returns out and the new least downtime.
func keepPair(out []costDown, bestDown float64, x costDown) ([]costDown, float64) {
	if x.down < bestDown {
		return append(out, x), x.down
	}
	return out, bestDown
}

// reducePairs is the bound pools' Pareto reducer: it keeps only pairs
// not dominated in (cost, downtime), sorted by ascending cost, in place
// — the result is a prefix of p. Exact duplicates collapse to one, so
// the result is a function of the set of pairs alone, and reducing a
// part of a pool first never changes the reduction of the whole. That
// is what lets a pool stay reduced as its segments arrive: each walk's
// pairs are reduced once, at the end of the walk, and merged in
// (mergePairs), and a replayed walk's pairs are merged as recorded.
func reducePairs(p []costDown) []costDown {
	slices.SortFunc(p, comparePairs)
	out, bestDown := p[:0], math.Inf(1)
	for _, x := range p {
		out, bestDown = keepPair(out, bestDown, x)
	}
	return out
}

// mergePairs appends to dst the reduction of a and b, both reduced, and
// returns it: one linear merge in comparePairs order under keepPair's
// rule, so it equals reducePairs over a and b concatenated, bit for
// bit. dst must not overlap a or b.
func mergePairs(dst, a, b []costDown) []costDown {
	dst = slices.Grow(dst, len(a)+len(b))
	bestDown := math.Inf(1)
	for len(a) > 0 || len(b) > 0 {
		var x costDown
		if len(b) == 0 || (len(a) > 0 && comparePairs(a[0], b[0]) <= 0) {
			x, a = a[0], a[1:]
		} else {
			x, b = b[0], b[1:]
		}
		dst, bestDown = keepPair(dst, bestDown, x)
	}
	return dst
}

// paretoReduce keeps only candidates not dominated in (cost, downtime),
// sorted by ascending cost, in place: the result is a prefix of cands,
// so it allocates nothing.
func paretoReduce(cands []TierCandidate) []TierCandidate {
	sortCandidates(cands)
	n, bestDown := 0, math.Inf(1)
	for i := range cands {
		if cands[i].DowntimeMinutes < bestDown {
			bestDown = cands[i].DowntimeMinutes
			cands[n] = cands[i]
			n++
		}
	}
	return cands[:n]
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
