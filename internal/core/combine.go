package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/units"
)

// solveEnterprise implements §4.1 for enterprise services: per-tier
// optima first, then multi-tier refinement over per-tier cost/downtime
// frontiers when the combination misses the overall budget.
func (s *Solver) solveEnterprise(ctx context.Context, req model.Requirements, c *chain) (*Solution, error) {
	budget := req.MaxAnnualDowntime.Minutes()
	load := loadOf(req)
	var stats searchStats
	s.gen++
	stats.gen = s.gen
	tr := s.opts.Tracer
	if err := s.keyTiers(c, load); err != nil {
		return nil, err
	}

	// The combination bounds may engage under branch-and-bound; phase 1
	// then already collects (cost, downtime) pools for the upper bound's
	// mini-combination (see combineBounds). Whether the bounds actually
	// hold is known only after phase 1, from its per-tier certificates.
	useBounds := s.collectsPools()
	if useBounds {
		stats.pools = make([][]costDown, len(s.svc.Tiers))
	}

	// Phase 1: each tier in isolation against the full budget. The
	// per-tier optimum is a cost lower bound, so if the combination
	// meets the budget it is the overall optimum.
	endPhase := s.phaseSpan(&stats, phaseTierSearch)
	perTier := make([]*TierCandidate, len(s.svc.Tiers))
	certified := make([]bool, len(s.svc.Tiers))
	for i := range s.svc.Tiers {
		start := time.Time{}
		if tr != nil {
			start = time.Now()
		}
		cand, cert, err := s.chainSearchTier(ctx, c, i, load, budget, &stats)
		if err != nil {
			endPhase()
			return nil, wrapCanceled(err, &stats)
		}
		perTier[i] = cand
		certified[i] = cert
		if tr != nil && cand != nil {
			tierNs := time.Since(start).Nanoseconds()
			tr.Emit(obs.Event{Ev: obs.EvTierDone, Tier: s.svc.Tiers[i].Name,
				Cost: float64(cand.Cost), Down: cand.DowntimeMinutes,
				DurNs: tierNs, MS: obs.DurMS(tierNs)})
		}
	}
	endPhase()
	for i := range perTier {
		if perTier[i] == nil {
			return nil, &InfeasibleError{Stats: stats.snapshot(), Reason: fmt.Sprintf(
				"tier %q cannot meet %v annual downtime at load %v in isolation",
				s.svc.Tiers[i].Name, req.MaxAnnualDowntime, load.full)}
		}
	}
	if combinedDowntime(perTier) <= budget || len(perTier) == 1 {
		return s.finishEnterprise(ctx, perTier, &stats)
	}

	// Phase 2: the combination misses the budget; refine tiers with
	// incrementally more aggressive requirements. The frontiers carry
	// each tier's cost/downtime tradeoff; the combiner picks the
	// minimum-cost point set whose series composition meets the budget.
	//
	// Under SearchBnB, an admissible cost bound truncates the frontier
	// build first: combineBounds finds a feasible combination whose total
	// cost UB bounds the optimum from above; and any tier's point in a
	// budget-feasible combination must itself meet the full budget in
	// isolation, so it costs at least the tier's phase-1 optimum. A tier
	// may therefore only contribute points costing at most UB - sum(other
	// tiers' phase-1 costs), and its frontier build can skip every size
	// subtree above that threshold.
	//
	// The truncation is validated after combining: the truncated
	// frontiers are exactly the ≤-threshold prefixes of the full ones,
	// so if the combined cost lands within UB, every optimal
	// combination of the full frontiers survived truncation and the
	// branch-and-bound result is bit-identical to the exhaustive one.
	// If it lands above UB, the frontiers are rebuilt unbounded — the
	// evaluation cache makes the rebuild re-evaluate only the skipped
	// candidates — and combined again.
	//
	// The thresholds are only admissible when every phase-1 optimum is a
	// certified lower bound over its tier's whole candidate space (see
	// searchTier); an uncertified tier disables the bounds for the solve.
	if useBounds {
		for _, cert := range certified {
			if !cert {
				useBounds = false
				break
			}
		}
	}
	var thresholds []float64
	ub := math.Inf(1)
	if useBounds {
		var err error
		ub, thresholds, err = s.combineBounds(ctx, c, req, perTier, &stats)
		if err != nil {
			return nil, wrapCanceled(err, &stats)
		}
	} else {
		stats.pools = nil
	}
	buildFrontiers := func(thresholds []float64) ([][]TierCandidate, error) {
		endPhase := s.phaseSpan(&stats, phaseFrontier)
		defer endPhase()
		frontiers := make([][]TierCandidate, len(s.svc.Tiers))
		for i := range s.svc.Tiers {
			maxCost := math.Inf(1)
			if thresholds != nil {
				maxCost = thresholds[i]
			}
			var err error
			frontiers[i], err = s.chainTierFrontier(ctx, c, i, load, maxCost, &stats)
			if err != nil {
				return nil, err
			}
		}
		return frontiers, nil
	}
	combine := func(frontiers [][]TierCandidate) ([]*TierCandidate, bool) {
		endPhase := s.phaseSpan(&stats, phaseCombine)
		defer endPhase()
		picks, ok := s.combine(frontiers, pairsOf(frontiers), budget)
		if !ok {
			return nil, false
		}
		return chosenOf(frontiers, picks), true
	}
	frontiers, err := buildFrontiers(thresholds)
	if err != nil {
		return nil, wrapCanceled(err, &stats)
	}
	chosen, ok := combine(frontiers)
	if thresholds != nil && (!ok || combinedCost(chosen) > ub+math.Abs(ub)*1e-9) {
		// Validity check failed: the truncated search cannot prove the
		// result optimal, so fall back to the full build.
		frontiers, err = buildFrontiers(nil)
		if err != nil {
			return nil, wrapCanceled(err, &stats)
		}
		chosen, ok = combine(frontiers)
	}
	if !ok {
		for i := range frontiers {
			if len(frontiers[i]) == 0 {
				return nil, &InfeasibleError{Stats: stats.snapshot(), Reason: fmt.Sprintf("tier %q has no feasible designs", s.svc.Tiers[i].Name)}
			}
		}
		return nil, &InfeasibleError{Stats: stats.snapshot(), Reason: fmt.Sprintf(
			"no tier combination meets %v annual downtime at load %v", req.MaxAnnualDowntime, req.PeakLoad())}
	}
	return s.finishEnterprise(ctx, chosen, &stats)
}

// collectsPools reports whether this solver's enterprise solves collect
// bound pools during their tier walks: under branch-and-bound on a
// multi-tier service. It is fixed per solver, so every walk a chain's
// memo records or replays agrees on it.
func (s *Solver) collectsPools() bool {
	return s.opts.Search != SearchExhaustive && len(s.svc.Tiers) > 1
}

// combineBounds computes the combination phase's admissible cost
// bounds: an upper bound UB on the optimal combined cost, and per-tier
// cost thresholds UB - sum(other tiers' phase-1 costs) that truncate
// each frontier build.
//
// UB construction is adaptive. A waterfilling pass splits the downtime
// budget across tiers proportionally to their current downtimes and
// re-solves each tier at its share — tier downtimes compose
// sub-additively in series, so shares summing within the budget give a
// feasible stack; tiers that cannot meet their share are pinned at
// their best known design and the remaining budget is re-split among
// the rest. Proportional shares overshoot on a tier whose designs are
// coarse: its cheapest design meeting a slightly smaller share can sit
// a whole cost step above its phase-1 optimum, while the budget it then
// leaves unused buys nothing. So when one tier accounts for most of the
// first pass's cost rise, a second waterfilling pass keeps that tier at
// its phase-1 design and splits what remains of the budget among the
// others. A final mini-combination over every (cost, downtime) pair
// evaluated so far — collected during phase 1 and the waterfilling
// solves at no extra engine work — then mixes designs across the
// different share splits, usually tightening UB further. It reports
// +Inf and nil thresholds when no feasible combination surfaces — then
// the frontiers build unbounded, exactly as under SearchExhaustive.
// Every solve, grid cell or cold, bounds its combination this way, so a
// cell's bound never depends on the earlier cells of its chain.
func (s *Solver) combineBounds(ctx context.Context, c *chain, req model.Requirements, perTier []*TierCandidate, stats *searchStats) (float64, []float64, error) {
	budget := req.MaxAnnualDowntime.Minutes()
	endPhase := s.phaseSpan(stats, phaseBound)
	ub := math.Inf(1)
	n := len(perTier)
	phase1Cost := combinedCost(perTier)
	cur, pinned := make([]*TierCandidate, n), make([]bool, n)
	keep := -1 // the tier the second pass holds at its phase-1 design
	for pass := 0; pass < 2; pass++ {
		if err := s.waterfill(ctx, c, req, perTier, keep, cur, pinned, stats); err != nil {
			endPhase()
			return math.Inf(1), nil, err
		}
		if combinedDowntime(cur) <= budget {
			ub = math.Min(ub, combinedCost(cur))
		}
		if pass == 1 {
			break
		}
		rise := 0.0
		for i := range cur {
			if r := float64(cur[i].Cost - perTier[i].Cost); r > rise {
				keep, rise = i, r
			}
		}
		// A rise spread over many tiers, as on a long chain, is no
		// single coarse step, and holding one tier back recovers too
		// little to pay for the second pass's searches.
		if keep < 0 || 2*rise <= combinedCost(cur)-phase1Cost {
			break
		}
	}
	endPhase()
	return s.finishBounds(ub, budget, perTier, stats)
}

// waterfill runs the proportional share rounds of combineBounds from the
// phase-1 optima, with tier keep (when ≥ 0) held at its phase-1 design,
// and leaves in cur the designs it ends at, which may still miss the
// budget. pinned is its scratch; both have one slot per tier.
func (s *Solver) waterfill(ctx context.Context, c *chain, req model.Requirements, perTier []*TierCandidate, keep int, cur []*TierCandidate, pinned []bool, stats *searchStats) error {
	budget := req.MaxAnnualDowntime.Minutes()
	copy(cur, perTier)
	for i := range pinned {
		pinned[i] = i == keep
	}
	for round := 0; round < len(cur); round++ {
		rem, sumUn := budget, 0.0
		for i := range cur {
			if pinned[i] {
				rem -= cur[i].DowntimeMinutes
			} else {
				sumUn += cur[i].DowntimeMinutes
			}
		}
		if combinedDowntime(cur) <= budget || sumUn <= rem || rem <= 0 || sumUn == 0 {
			break
		}
		scale := rem / sumUn
		progress := false
		for i := range cur {
			if pinned[i] {
				continue
			}
			cand, _, err := s.chainSearchTier(ctx, c, i, loadOf(req), cur[i].DowntimeMinutes*scale, stats)
			if err != nil {
				return err
			}
			if cand == nil {
				pinned[i] = true
			} else {
				cur[i] = cand
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return nil
}

// finishBounds turns a candidate upper bound into the per-tier frontier
// thresholds: a mini-combination over the evaluated pools first tries
// to tighten it — the optimal mix of everything the searches have
// already priced, at no extra engine work — then each tier's threshold
// is what the UB leaves after paying every other tier's certified
// phase-1 minimum.
func (s *Solver) finishBounds(ub, budget float64, perTier []*TierCandidate, stats *searchStats) (float64, []float64, error) {
	n := len(perTier)
	// Pool collection stops here — frontier evaluations can no longer
	// influence the bound.
	if pools := stats.pools; pools != nil {
		stats.pools = nil
		reduced := make([][]costDown, n)
		complete := true
		for i := range pools {
			reduced[i] = reducePairs(pools[i])
			if len(reduced[i]) == 0 {
				complete = false
			}
		}
		if complete {
			if picks, ok := s.combine(nil, reduced, budget); ok {
				var c float64
				for i, j := range picks {
					c += float64(reduced[i][j].cost)
				}
				if c < ub {
					ub = c
				}
			}
		}
	}
	if math.IsInf(ub, 1) {
		return ub, nil, nil
	}
	phase1Sum := 0.0
	for i := range perTier {
		phase1Sum += float64(perTier[i].Cost)
	}
	// Relative slack absorbs the rounding of the float sums above: when
	// the optimal combination's cost IS the UB, the exact threshold
	// UB - sum(others' phase-1 costs) can land a few ulps below the
	// optimal point's own cost and prune the very point the bound was
	// built from, forcing a pointless full rebuild. Widening the
	// thresholds only prunes less, which is always admissible.
	slack := math.Abs(ub) * 1e-9
	thresholds := make([]float64, n)
	for i := range thresholds {
		thresholds[i] = ub + slack - (phase1Sum - float64(perTier[i].Cost))
	}
	return ub, thresholds, nil
}

// combine runs the multi-tier combiner over pairs, the points of the
// frontiers a solve built, and reports the chosen point's index in
// every tier. When the solver has a combine hook it first shows the
// hook the input: frontiers, whose projection pairs is, or, when
// frontiers is nil, the pairs as candidates without designs.
func (s *Solver) combine(frontiers [][]TierCandidate, pairs [][]costDown, budgetMinutes float64) ([]int, bool) {
	if s.combineHook != nil {
		if frontiers == nil {
			frontiers = make([][]TierCandidate, len(pairs))
			for i, f := range pairs {
				frontiers[i] = make([]TierCandidate, len(f))
				for j, p := range f {
					frontiers[i][j] = TierCandidate{Cost: p.cost, DowntimeMinutes: p.down}
				}
			}
		}
		s.combineHook(frontiers, budgetMinutes)
	}
	picks, ok, _ := combinePairs(pairs, budgetMinutes)
	return picks, ok
}

// pairsOf projects frontiers onto the (cost, downtime) pairs the
// combiner reads.
func pairsOf(frontiers [][]TierCandidate) [][]costDown {
	out := make([][]costDown, len(frontiers))
	for i, f := range frontiers {
		out[i] = make([]costDown, len(f))
		for j := range f {
			out[i][j] = costDown{f[j].Cost, f[j].DowntimeMinutes}
		}
	}
	return out
}

// chosenOf maps the combiner's per-tier picks back onto frontiers.
func chosenOf(frontiers [][]TierCandidate, picks []int) []*TierCandidate {
	out := make([]*TierCandidate, len(picks))
	for i, j := range picks {
		out[i] = &frontiers[i][j]
	}
	return out
}

// combinedCost sums the chosen tier candidates' costs.
func combinedCost(chosen []*TierCandidate) float64 {
	var total float64
	for _, c := range chosen {
		total += float64(c.Cost)
	}
	return total
}

// finishEnterprise assembles the Solution from chosen tier candidates.
func (s *Solver) finishEnterprise(ctx context.Context, chosen []*TierCandidate, stats *searchStats) (*Solution, error) {
	design := model.Design{Tiers: make([]model.TierDesign, len(chosen))}
	var total units.Money
	for i, c := range chosen {
		design.Tiers[i] = c.Design
		total += c.Cost
	}
	if err := design.Validate(); err != nil {
		return nil, err
	}
	// Re-evaluate the whole design through the engine for the reported
	// figure (identical to the series combination of tier downtimes).
	tms, err := avail.BuildModels(&design)
	if err != nil {
		return nil, err
	}
	var sp obs.Span
	if s.timed {
		sp = obs.StartSpan(s.phaseHists[phaseEval])
	}
	res, err := s.engineEvaluate(ctx, tms)
	if err != nil {
		return nil, wrapCanceled(err, stats)
	}
	stats.Evaluations++
	var evalNs int64
	if s.timed {
		evalNs = sp.Stop()
		stats.phaseNs[phaseEval] += evalNs
	}
	if tr := s.opts.Tracer; tr != nil {
		// The final whole-design evaluation is an engine invocation too;
		// reporting it as a miss keeps eval.miss counts equal to
		// Stats.Evaluations and its DurNs inside the "eval" phase total.
		tr.Emit(obs.Event{Ev: obs.EvEvalMiss, Tier: "design", Down: res.DowntimeMinutes,
			DurNs: evalNs, MS: obs.DurMS(evalNs)})
	}
	return &Solution{
		Design:          design,
		Cost:            total,
		DowntimeMinutes: res.DowntimeMinutes,
		Stats:           stats.snapshot(),
	}, nil
}

// combinedDowntime reports the series composition of tier downtimes:
// availability multiplies across tiers.
func combinedDowntime(tiers []*TierCandidate) float64 {
	availability := 1.0
	for _, t := range tiers {
		availability *= 1 - t.DowntimeMinutes/avail.MinutesPerYear
	}
	return (1 - availability) * avail.MinutesPerYear
}

// CombineExact picks one candidate per frontier minimising total cost
// subject to the combined downtime budget. It is the solver's
// multi-tier combiner; CombineGreedy is the paper-style alternative
// kept for the ablation benchmarks. Frontiers must be Pareto sets as
// the frontier builders emit them: strictly ascending non-negative
// cost, strictly descending downtime, every downtime within a year. An
// empty frontier makes the combination infeasible.
func CombineExact(frontiers [][]TierCandidate, budgetMinutes float64) ([]*TierCandidate, bool) {
	chosen, ok, _ := combineExact(frontiers, budgetMinutes)
	return chosen, ok
}

// combineExact is CombineExact that also reports how many search nodes
// (partial assignments, the root included) it visited.
func combineExact(frontiers [][]TierCandidate, budgetMinutes float64) ([]*TierCandidate, bool, int) {
	picks, ok, nodes := combinePairs(pairsOf(frontiers), budgetMinutes)
	if !ok {
		return nil, false, nodes
	}
	return chosenOf(frontiers, picks), true, nodes
}

// combinePairs is the combiner's search over frontiers of (cost,
// downtime) pairs. It reports the chosen point's index in every tier
// and how many search nodes (partial assignments, the root included) it
// visited.
//
// The search is a depth-first walk over the frontier product in
// lexicographic index order that records a complete assignment when it
// is cheaper than the best so far. Three cuts keep it from walking
// subtrees it cannot win in, each exact, so the choice is the one the
// uncut walk makes, ties included:
//
//   - tail cost: a child is cut when its cost plus every later tier's
//     cheapest point already reaches the best cost. The bound adds the
//     cheapest points left to right, in the order a real completion
//     adds its points; float addition is monotone, so no completion of
//     the child sums below it. Costs are non-negative, so the bound is
//     never below the child's own cost, the uncut walk's only cost test.
//   - sorted break: cost ascends along a frontier, so the first child
//     the cost cut takes ends the level.
//   - availability suffix: downtime descends along a frontier, so the
//     children whose availability times the later tiers' best can still
//     meet the budget form a suffix, found by binary search with the
//     very product the walk tests a child by.
func combinePairs(frontiers [][]costDown, budgetMinutes float64) ([]int, bool, int) {
	n := len(frontiers)
	cb := combiner{
		frontiers:   frontiers,
		bestTail:    make([]float64, n+1),
		budgetAvail: 1 - budgetMinutes/avail.MinutesPerYear,
		bestCost:    math.Inf(1),
		cur:         make([]int, n),
		best:        make([]int, n),
	}
	// bestTail[i] is the product over tiers i.. of their best
	// achievable availability: the last point of each frontier.
	cb.bestTail[n] = 1
	for i := n - 1; i >= 0; i-- {
		f := frontiers[i]
		if len(f) == 0 {
			return nil, false, 0
		}
		cb.bestTail[i] = cb.bestTail[i+1] * (1 - f[len(f)-1].down/avail.MinutesPerYear)
	}
	// The root's own feasibility test, 1*bestTail[0], equals the suffix
	// test of tier 0's last point, so the root needs none.
	cb.visit(0, 0, 1)
	if !cb.found {
		return nil, false, cb.nodes
	}
	return cb.best, true, cb.nodes
}

// combiner is combinePairs' search state: the current assignment and
// the best complete one, as per-tier indices into the frontiers.
type combiner struct {
	frontiers   [][]costDown
	bestTail    []float64
	budgetAvail float64
	bestCost    float64
	cur         []int
	best        []int
	found       bool
	nodes       int
}

// visit extends the partial assignment of tiers 0..i-1, which costs
// costSoFar and keeps availSoFar of the year available.
func (cb *combiner) visit(i int, costSoFar, availSoFar float64) {
	cb.nodes++
	if i == len(cb.frontiers) {
		cb.bestCost = costSoFar
		cb.found = true
		copy(cb.best, cb.cur)
		return
	}
	f := cb.frontiers[i]
	// A child at j can still meet the budget when its availability times
	// the later tiers' best reaches it; that product never falls as j
	// grows, so lo ends at the first child that can.
	tail := cb.bestTail[i+1]
	lo, hi := 0, len(f)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if availSoFar*(1-f[mid].down/avail.MinutesPerYear)*tail < cb.budgetAvail {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for j := lo; j < len(f); j++ {
		c := costSoFar + float64(f[j].cost)
		bound := c
		for _, g := range cb.frontiers[i+1:] {
			bound += float64(g[0].cost)
		}
		if bound >= cb.bestCost {
			break
		}
		cb.cur[i] = j
		cb.visit(i+1, c, availSoFar*(1-f[j].down/avail.MinutesPerYear))
	}
}

// CombineGreedy is the paper-style incremental refinement: start every
// tier at its cheapest frontier point and repeatedly tighten the tier
// offering the best downtime reduction per unit cost until the budget
// holds. It can be suboptimal, so the solver always combines with
// CombineExact; it is exported for the ablation benchmarks.
func CombineGreedy(frontiers [][]TierCandidate, budgetMinutes float64) ([]*TierCandidate, bool) {
	n := len(frontiers)
	for i := range frontiers {
		if len(frontiers[i]) == 0 {
			return nil, false
		}
	}
	idx := make([]int, n)
	pick := func() []*TierCandidate {
		out := make([]*TierCandidate, n)
		for i := range out {
			out[i] = &frontiers[i][idx[i]]
		}
		return out
	}
	for {
		chosen := pick()
		if combinedDowntime(chosen) <= budgetMinutes {
			return chosen, true
		}
		bestTier := -1
		bestRatio := math.Inf(1)
		for i := 0; i < n; i++ {
			if idx[i]+1 >= len(frontiers[i]) {
				continue
			}
			cur, next := frontiers[i][idx[i]], frontiers[i][idx[i]+1]
			dCost := float64(next.Cost - cur.Cost)
			dDown := cur.DowntimeMinutes - next.DowntimeMinutes
			if dDown <= 0 {
				continue
			}
			if ratio := dCost / dDown; ratio < bestRatio {
				bestRatio = ratio
				bestTier = i
			}
		}
		if bestTier < 0 {
			return nil, false // every tier exhausted
		}
		idx[bestTier]++
	}
}
