package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aved/internal/avail"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// plainCombine is the multi-tier combiner's reference: the uncut
// depth-first walk over the frontier product, pruning only partial
// assignments that already cost the best so far or whose availability
// the later tiers' best cannot bring back to the budget. CombineExact
// must choose exactly what it chooses, ties included.
func plainCombine(frontiers [][]TierCandidate, budgetMinutes float64) ([]*TierCandidate, bool) {
	n := len(frontiers)
	bestTail := make([]float64, n+1)
	bestTail[n] = 1
	for i := n - 1; i >= 0; i-- {
		last := frontiers[i][len(frontiers[i])-1]
		bestTail[i] = bestTail[i+1] * (1 - last.DowntimeMinutes/avail.MinutesPerYear)
	}
	budgetAvail := 1 - budgetMinutes/avail.MinutesPerYear
	var (
		bestCost   = math.Inf(1)
		bestChoice []*TierCandidate
		current    = make([]*TierCandidate, n)
	)
	var dfs func(i int, costSoFar float64, availSoFar float64)
	dfs = func(i int, costSoFar, availSoFar float64) {
		if costSoFar >= bestCost {
			return
		}
		if availSoFar*bestTail[i] < budgetAvail {
			return
		}
		if i == n {
			bestCost = costSoFar
			bestChoice = make([]*TierCandidate, n)
			copy(bestChoice, current)
			return
		}
		for j := range frontiers[i] {
			c := &frontiers[i][j]
			current[i] = c
			dfs(i+1, costSoFar+float64(c.Cost), availSoFar*(1-c.DowntimeMinutes/avail.MinutesPerYear))
		}
	}
	dfs(0, 0, 1)
	if bestChoice == nil {
		return nil, false
	}
	return bestChoice, true
}

// combineInput is one call a solve made to the multi-tier combiner.
type combineInput struct {
	frontiers [][]TierCandidate
	budget    float64
}

// recordCombines solves a corpus scenario on one worker and returns a
// copy of every input its solve handed the combiner: bound-pool
// mini-combinations and frontier combinations alike.
func recordCombines(t *testing.T, sc *scenarios.CorpusScenario, mode SearchMode) []combineInput {
	t.Helper()
	s, err := NewSolver(sc.Inf, sc.Svc, Options{Registry: sc.Registry, Workers: 1, Search: mode})
	if err != nil {
		t.Fatalf("%s: solver: %v", sc.Name, err)
	}
	var got []combineInput
	s.combineHook = func(frontiers [][]TierCandidate, budget float64) {
		in := combineInput{frontiers: make([][]TierCandidate, len(frontiers)), budget: budget}
		for i, f := range frontiers {
			in.frontiers[i] = append([]TierCandidate(nil), f...)
		}
		got = append(got, in)
	}
	if _, err := s.Solve(sc.Req); err != nil {
		var inf *InfeasibleError
		if !errors.As(err, &inf) {
			t.Fatalf("%s: solve: %v", sc.Name, err)
		}
	}
	return got
}

// randFrontier draws a strict frontier of 1-12 points: costs strictly
// ascending, downtimes strictly descending. Whole costs make equal
// totals, and so ties between combinations, common; fractional ones
// exercise the rounding of the cost sums.
func randFrontier(rng *rand.Rand, whole bool) []TierCandidate {
	f := make([]TierCandidate, 1+rng.Intn(12))
	cost := float64(rng.Intn(400))
	down := 50 + rng.Float64()*5000
	for j := range f {
		if whole {
			cost += float64(1 + rng.Intn(60))
		} else {
			cost += 0.01 + rng.Float64()*300
		}
		down *= 0.05 + 0.9*rng.Float64()
		f[j] = TierCandidate{Cost: units.Money(cost), DowntimeMinutes: down}
	}
	return f
}

// seriesDowntime is the combined downtime of one point per frontier,
// picked by index.
func seriesDowntime(frontiers [][]TierCandidate, pick func(f []TierCandidate) int) float64 {
	chosen := make([]*TierCandidate, len(frontiers))
	for i, f := range frontiers {
		chosen[i] = &f[pick(f)]
	}
	return combinedDowntime(chosen)
}

// picks renders a combiner result as the index of the chosen point in
// every tier, nil when infeasible.
func picks(frontiers [][]TierCandidate, chosen []*TierCandidate, ok bool) []int {
	if !ok {
		return nil
	}
	out := make([]int, len(chosen))
	for i, c := range chosen {
		out[i] = -1
		for j := range frontiers[i] {
			if c == &frontiers[i][j] {
				out[i] = j
			}
		}
	}
	return out
}

// TestCombineExactMatchesPlainDFS pins the combiner's cuts as exact: on
// random strict frontiers with budgets around the feasibility edge, and
// on every input the solves of the first 10 telco draws of corpus seeds
// 1-20 hand the combiner under both search modes, CombineExact returns
// the plain walk's feasibility and the same chosen point in every tier.
func TestCombineExactMatchesPlainDFS(t *testing.T) {
	// check compares the two combiners on one input and reports whether
	// it is feasible.
	check := func(name string, frontiers [][]TierCandidate, budget float64) bool {
		t.Helper()
		got, ok := CombineExact(frontiers, budget)
		want, wantOK := plainCombine(frontiers, budget)
		if g, w := picks(frontiers, got, ok), picks(frontiers, want, wantOK); ok != wantOK || !slices.Equal(g, w) {
			t.Fatalf("%s: budget %v: CombineExact picks %v (ok %v), the plain walk %v (ok %v)",
				name, budget, g, ok, w, wantOK)
		}
		return ok
	}

	rng := rand.New(rand.NewSource(1))
	var randFeasible int
	for k := 0; k < 3000; k++ {
		frontiers := make([][]TierCandidate, 1+rng.Intn(8))
		whole := rng.Intn(2) == 0
		size := 1
		for i := range frontiers {
			frontiers[i] = randFrontier(rng, whole)
			// Keep the plain walk's worst case affordable.
			for size*len(frontiers[i]) > 200000 {
				frontiers[i] = frontiers[i][:len(frontiers[i])-1]
			}
			size *= len(frontiers[i])
		}
		// Budgets around the feasibility edge: the best achievable
		// downtime exactly, a hair either side of it, and the downtime of
		// a random point per tier, exactly and scaled.
		best := seriesDowntime(frontiers, func(f []TierCandidate) int { return len(f) - 1 })
		mid := seriesDowntime(frontiers, func(f []TierCandidate) int { return rng.Intn(len(f)) })
		for _, budget := range []float64{
			best, math.Nextafter(best, 0), math.Nextafter(best, math.Inf(1)),
			mid, mid * (0.8 + 0.4*rng.Float64()),
		} {
			if check("random", frontiers, budget) {
				randFeasible++
			}
		}
	}

	// Telco chains are the corpus's only multi-tier family, so the only
	// draws that reach the combiner.
	var recorded, recordedFeasible int
	for seed := int64(1); seed <= 20; seed++ {
		for i := 0; i < 10; i++ {
			sc, err := scenarios.GenScenario(scenarios.FamilyTelco, i, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []SearchMode{SearchBnB, SearchExhaustive} {
				for _, in := range recordCombines(t, sc, mode) {
					recorded++
					if check(sc.Name, in.frontiers, in.budget) {
						recordedFeasible++
					}
				}
			}
		}
	}
	t.Logf("random inputs: %d feasible of 15000; recorded corpus inputs: %d feasible of %d",
		randFeasible, recordedFeasible, recorded)
	if recorded == 0 || recordedFeasible == 0 {
		t.Error("the corpus handed the combiner no feasible input — the identity check is vacuous")
	}
}

// TestCombineEmptyFrontier pins that a tier with no points makes the
// combination infeasible in both combiners, with no panic.
func TestCombineEmptyFrontier(t *testing.T) {
	full := []TierCandidate{{Cost: 1, DowntimeMinutes: 10}, {Cost: 2, DowntimeMinutes: 1}}
	for _, frontiers := range [][][]TierCandidate{
		{nil},
		{full, nil},
		{nil, full},
		{full, {}, full},
	} {
		if got, ok := CombineExact(frontiers, 1000); ok || got != nil {
			t.Errorf("CombineExact on %d tiers with an empty one = (%v, %v), want (nil, false)", len(frontiers), got, ok)
		}
		if got, ok := CombineGreedy(frontiers, 1000); ok || got != nil {
			t.Errorf("CombineGreedy on %d tiers with an empty one = (%v, %v), want (nil, false)", len(frontiers), got, ok)
		}
	}
}

// TestCombineNodeCeiling is the combiner's effort gate: over the 8-stage
// telco chains among the first 120 telco draws of corpus seeds 1-3 (81
// draws), the search nodes CombineExact visits on every input the
// default solves hand it stay under a ceiling about 1.3x the measured
// 153982. The plain walk enters 5140998 nodes on the same inputs.
func TestCombineNodeCeiling(t *testing.T) {
	const ceiling = 200000
	var draws, combines, nodes int
	for seed := int64(1); seed <= 3; seed++ {
		for i := 0; i < 120; i++ {
			sc, err := scenarios.GenScenario(scenarios.FamilyTelco, i, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Svc.Tiers) != 8 {
				continue
			}
			draws++
			for _, in := range recordCombines(t, sc, SearchBnB) {
				_, _, k := combineExact(in.frontiers, in.budget)
				nodes += k
				combines++
			}
		}
	}
	t.Logf("%d 8-stage draws, %d combinations, %d search nodes (ceiling %d)", draws, combines, nodes, ceiling)
	if draws == 0 || combines == 0 {
		t.Fatal("no 8-stage draw reached the combiner — the gate is vacuous")
	}
	if nodes > ceiling {
		t.Errorf("the combiner visited %d search nodes, above the ceiling %d", nodes, ceiling)
	}
}
