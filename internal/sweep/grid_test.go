package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// These tests pin the grid-aware sweep contract: frontier-cached
// budget-chain scheduling is a pure accelerant. Every cell's solution —
// cost, downtime, design — is bit-identical to a cold solve of the same
// requirement on a fresh solver, at any worker count and in both search
// modes; the reuse is visible only in effort counters, and the effort
// cut itself is gated below.

// gridCell is one cell's solution projection, the fields the
// bit-identity comparison pins.
type gridCell struct {
	ok      bool
	cost    units.Money
	down    float64
	family  Family
	stack   string
	nActive int
}

func enterpriseReq(load, minutes float64) model.Requirements {
	return model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        load,
		MaxAnnualDowntime: units.Duration(minutes * float64(units.Minute)),
	}
}

// coldCells solves every grid cell per-cell cold: a fresh sequential
// solver per cell, no shared caches — the reference the grid-aware
// sweep must reproduce exactly. It also returns the engine evaluations
// summed over the feasible cells and the engine calls over every cell:
// the Evaluations of the feasible and the infeasible cells together.
func coldCells(t *testing.T, inf *model.Infrastructure, svc *model.Service, opts core.Options, loads, budgets []float64) ([]gridCell, int64, int64) {
	t.Helper()
	out := make([]gridCell, 0, len(loads)*len(budgets))
	var evals, calls int64
	for _, load := range loads {
		for _, budget := range budgets {
			opts := opts
			opts.Workers = 1
			s, err := core.NewSolver(inf, svc, opts)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.SolveContext(context.Background(), enterpriseReq(load, budget))
			if err != nil {
				var infErr *core.InfeasibleError
				if !errors.As(err, &infErr) {
					t.Fatalf("cold solve load %v budget %v: %v", load, budget, err)
				}
				calls += int64(infErr.Stats.Evaluations)
				out = append(out, gridCell{})
				continue
			}
			evals += int64(sol.Stats.Evaluations)
			calls += int64(sol.Stats.Evaluations)
			td := &sol.Design.Tiers[0]
			out = append(out, gridCell{
				ok: true, cost: sol.Cost, down: sol.DowntimeMinutes,
				family: FamilyOf(td), stack: Stack(td), nActive: td.NActive,
			})
		}
	}
	return out, evals, calls
}

// fig6Cells maps a Fig6 result back onto the flattened grid.
func fig6Cells(res *Fig6Result, loads, budgets []float64) []gridCell {
	type key struct{ load, budget float64 }
	byReq := map[key]Fig6Point{}
	for _, p := range res.Points {
		byReq[key{p.Load, p.BudgetMinutes}] = p
	}
	out := make([]gridCell, 0, len(loads)*len(budgets))
	for _, load := range loads {
		for _, budget := range budgets {
			p, ok := byReq[key{load, budget}]
			if !ok {
				out = append(out, gridCell{})
				continue
			}
			out = append(out, gridCell{
				ok: true, cost: p.Cost, down: p.DowntimeMinutes,
				family: p.Family, stack: p.Stack, nActive: p.NActive,
			})
		}
	}
	return out
}

// gridProblem is one scenario swept over a small requirement plane
// around its own requirement, under the options it solves with.
type gridProblem struct {
	name           string
	inf            *model.Infrastructure
	svc            *model.Service
	opts           core.Options
	loads, budgets []float64
}

// planeBudgets is the budget grid around a requirement of b minutes,
// deliberately unsorted so the sweep's tightest-first chain order
// differs from the landing order it must reproduce.
func planeBudgets(b float64) []float64 { return []float64{b, b / 4, 6 * b} }

// randProblems draws RandSolveScenario seeds 1–20, each in both search
// modes.
func randProblems(t *testing.T) []gridProblem {
	var out []gridProblem
	for seed := int64(1); seed <= 20; seed++ {
		sc, err := scenarios.RandSolveScenario(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, mode := range []core.SearchMode{core.SearchBnB, core.SearchExhaustive} {
			out = append(out, gridProblem{
				name: fmt.Sprintf("seed %d mode %v", seed, mode), inf: sc.Inf, svc: sc.Svc,
				opts:    core.Options{Registry: scenarios.Registry(), Search: mode},
				loads:   []float64{sc.Req.Throughput, sc.Req.Throughput + 200},
				budgets: planeBudgets(sc.Req.MaxAnnualDowntime.Minutes()),
			})
		}
	}
	return out
}

// genProblems draws four GenScenario scenarios of each of the web,
// storage and telco corpus families.
func genProblems(t *testing.T) []gridProblem {
	var out []gridProblem
	for _, fam := range []scenarios.Family{scenarios.FamilyWeb, scenarios.FamilyStorage, scenarios.FamilyTelco} {
		for i := 0; i < 4; i++ {
			sc, err := scenarios.GenScenario(fam, i, 5)
			if err != nil {
				t.Fatalf("%v %d: %v", fam, i, err)
			}
			peak := sc.Req.PeakLoad()
			out = append(out, gridProblem{
				name: sc.Name, inf: sc.Inf, svc: sc.Svc,
				opts:    core.Options{Registry: sc.Registry},
				loads:   []float64{peak, peak + 100},
				budgets: planeBudgets(sc.Req.MaxAnnualDowntime.Minutes()),
			})
		}
	}
	return out
}

// TestSweepBitIdenticalOnCorpus is the grid-scheduling property test:
// on seeded generated scenarios from two sources, the grid-aware Fig6
// sweep (shared solver, one memo per budget chain) produces exactly
// the per-cell cold solutions, and the same result — raw per-cell Stats
// and totals included — at worker counts 1, 4 and 0; and each source
// actually replays frontiers and tier walks, so the property is not
// vacuous.
func TestSweepBitIdenticalOnCorpus(t *testing.T) {
	sources := []struct {
		name     string
		problems func(*testing.T) []gridProblem
	}{
		{"RandSolveScenario", randProblems},
		{"GenScenario", genProblems},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			var frontierReuse, walkReuse, warmReuse int
			for _, p := range src.problems(t) {
				want, _, _ := coldCells(t, p.inf, p.svc, p.opts, p.loads, p.budgets)
				var first *Fig6Result
				for _, workers := range []int{1, 4, 0} {
					opts := p.opts
					opts.Workers = workers
					s, err := core.NewSolver(p.inf, p.svc, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Fig6(context.Background(), s, p.loads, p.budgets)
					if err != nil {
						t.Fatalf("%s workers %d: %v", p.name, workers, err)
					}
					got := fig6Cells(res, p.loads, p.budgets)
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s workers %d cell %d: grid %+v, cold %+v",
								p.name, workers, i, got[i], want[i])
						}
					}
					if first == nil {
						first = res
					} else if !reflect.DeepEqual(res, first) {
						t.Errorf("%s workers %d: result differs from workers 1", p.name, workers)
					}
					frontierReuse += res.Totals.FrontierReuse
					walkReuse += res.Totals.WalkReuse
					warmReuse += res.Totals.WarmStartReuse
				}
			}
			t.Logf("%d frontier reuses, %d walk replays, %d warm replays", frontierReuse, walkReuse, warmReuse)
			if frontierReuse == 0 {
				t.Error("never reused a frontier — the property test is vacuous")
			}
			if walkReuse == 0 {
				t.Error("never replayed a tier walk — the property test is vacuous")
			}
		})
	}
}

// TestSweepEvalCeilings is the sweep-level regression gate mirroring
// TestBnBEvalCeilings: on the application-tier Fig 6 grid and the
// e-commerce Fig 6 and Fig 8 grids at Workers=1, the grid-aware sweep
// must return the cold solutions bit-identically — for Fig 8 that
// covers every cell's total cost and every load's baseline — and its
// engine evaluations must stay under a pinned ceiling. A second ceiling
// bounds every engine call the sweep makes, infeasible cells included,
// read from Totals as the Evaluations of the feasible and the
// infeasible cells together (Stats.Evaluations counts engine calls).
// The multi-tier e-commerce grids must also cut per-cell cold solving
// by at least 3x; the single-tier grid has no combination phase to
// accelerate, so its cut floor is 0 and only its identity and ceilings
// are enforced.
func TestSweepEvalCeilings(t *testing.T) {
	cases := []struct {
		name    string
		svc     func(*model.Infrastructure) (*model.Service, error)
		fig8    bool
		loads   []float64
		budgets []float64
		ceiling int64
		// callCeiling bounds the grid's engine calls over every cell.
		callCeiling int64
		// minCut is the floor on per-cell cold over grid evaluations.
		minCut int64
	}{
		// Measured: 109 grid evaluations vs 256 per-cell cold, a 2.3x cut;
		// 109 engine calls over every cell.
		{"fig6-apptier", scenarios.ApplicationTier, false, []float64{400, 1400, 3200, 5000}, []float64{1, 10, 100, 1000, 10000}, 150, 150, 0},
		// Measured: 23 grid evaluations vs 450 per-cell cold, a 19.6x cut;
		// 226 engine calls over every cell vs 1137 per-cell cold.
		{"fig6-ecommerce", scenarios.Ecommerce, false, []float64{400, 1400, 3200, 5000}, []float64{1, 10, 100, 1000, 10000}, 100, 250, 3},
		// Measured: 20 grid evaluations vs 439 per-cell cold, a 21.9x cut;
		// 216 engine calls over every cell vs 1103 per-cell cold.
		{"fig8-ecommerce", scenarios.Ecommerce, true, []float64{400, 800, 1600, 3200}, []float64{1, 10, 100, 1000}, 110, 250, 3},
	}
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Registry: scenarios.Registry(), Workers: 1}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := tc.svc(inf)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.NewSolver(inf, svc, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, tot := sweepCells(t, s, tc.fig8, tc.loads, tc.budgets)
			want, cold, coldCalls := coldGrid(t, inf, svc, opts, tc.fig8, tc.loads, tc.budgets)
			if len(got) != len(want) {
				t.Fatalf("grid has %d cells, cold %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cell %d: grid %+v, cold %+v", i, got[i], want[i])
				}
			}
			evals := int64(tot.Evaluations)
			calls := evals + int64(tot.InfeasibleStats.Evaluations)
			t.Logf("%s grid: %d grid evaluations vs %d per-cell cold (%.1fx); %d engine calls over every cell vs %d per-cell cold (%.1fx); %d frontier reuses, %d walk replays",
				tc.name, evals, cold, float64(cold)/float64(evals),
				calls, coldCalls, float64(coldCalls)/float64(calls), tot.FrontierReuse, tot.WalkReuse)
			if evals > tc.ceiling {
				t.Errorf("grid sweep ran %d engine evaluations, over the pinned ceiling %d",
					evals, tc.ceiling)
			}
			if calls > tc.callCeiling {
				t.Errorf("grid sweep made %d engine calls over every cell, over the pinned ceiling %d",
					calls, tc.callCeiling)
			}
			if evals*tc.minCut > cold {
				t.Errorf("grid sweep's %d evaluations is not a %dx cut of per-cell cold's %d",
					evals, tc.minCut, cold)
			}
		})
	}
}

// TestSweepMemoCountsExact pins the per-cell engine deltas as exact:
// over an e-commerce Fig 6 and Fig 8 sweep at the default worker count,
// the ModeMemoHits and ModeMemoSolves of every cell — feasible,
// baseline and infeasible — sum to the mode memo's own counter deltas.
func TestSweepMemoCountsExact(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	loads := []float64{400, 1400, 3200, 5000}
	budgets := []float64{1, 10, 100, 1000, 10000}
	for _, fig := range []string{"fig6", "fig8"} {
		t.Run(fig, func(t *testing.T) {
			eng := avail.NewMarkovEngine()
			s, err := core.NewSolver(inf, svc, core.Options{Registry: scenarios.Registry(), Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			var tot Totals
			if fig == "fig6" {
				res, err := Fig6(context.Background(), s, loads, budgets)
				if err != nil {
					t.Fatal(err)
				}
				tot = res.Totals
			} else {
				curves, err := Fig8(context.Background(), s, loads, budgets)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range curves {
					tot.Add(c.BaselineStats)
					for _, p := range c.Points {
						tot.Add(p.Stats)
					}
					for _, st := range c.InfeasibleStats {
						tot.AddInfeasible(st)
					}
				}
			}
			hits, solves := eng.MemoStats()
			gotHits := tot.ModeMemoHits + tot.InfeasibleStats.ModeMemoHits
			gotSolves := tot.ModeMemoSolves + tot.InfeasibleStats.ModeMemoSolves
			t.Logf("%d feasible and %d infeasible cells: %d memo hits, %d memo solves (%d and %d in infeasible cells)",
				tot.Points, tot.Infeasible, gotHits, gotSolves,
				tot.InfeasibleStats.ModeMemoHits, tot.InfeasibleStats.ModeMemoSolves)
			if gotHits != hits || gotSolves != solves {
				t.Errorf("cells sum to %d memo hits and %d solves, the engine counted %d and %d",
					gotHits, gotSolves, hits, solves)
			}
			if tot.Infeasible == 0 || tot.InfeasibleStats.ModeMemoHits+tot.InfeasibleStats.ModeMemoSolves == 0 {
				t.Error("no infeasible cell touched the memo — the check does not cover them")
			}
		})
	}
}

// sweepCells runs the grid as Fig 6 or Fig 8 on solver s and returns
// every cell's projection in grid order, as coldGrid lays it out, and
// the sweep's totals, infeasible cells apart.
func sweepCells(t *testing.T, s *core.Solver, fig8 bool, loads, budgets []float64) ([]gridCell, Totals) {
	t.Helper()
	if !fig8 {
		res, err := Fig6(context.Background(), s, loads, budgets)
		if err != nil {
			t.Fatal(err)
		}
		return fig6Cells(res, loads, budgets), res.Totals
	}
	curves, err := Fig8(context.Background(), s, loads, budgets)
	if err != nil {
		t.Fatal(err)
	}
	var cells []gridCell
	var tot Totals
	for _, c := range curves {
		tot.Add(c.BaselineStats)
		for _, st := range c.InfeasibleStats {
			tot.AddInfeasible(st)
		}
		cells = append(cells, gridCell{ok: true, cost: c.BaselineCost})
		byBudget := map[float64]units.Money{}
		for _, p := range c.Points {
			tot.Add(p.Stats)
			byBudget[p.BudgetMinutes] = p.TotalCost
		}
		for _, budget := range budgets {
			cost, ok := byBudget[budget]
			cells = append(cells, gridCell{ok: ok, cost: cost})
		}
	}
	return cells, tot
}

// coldGrid is coldCells laid out as sweepCells lays out the figure's
// grid. For Fig 8 each load's stride is its whole-year baseline, then
// the budget cells, and since Fig 8 reports only costs, every cell is
// projected onto feasibility and cost.
func coldGrid(t *testing.T, inf *model.Infrastructure, svc *model.Service, opts core.Options, fig8 bool, loads, budgets []float64) ([]gridCell, int64, int64) {
	t.Helper()
	if !fig8 {
		return coldCells(t, inf, svc, opts, loads, budgets)
	}
	cells, evals, calls := coldCells(t, inf, svc, opts, loads, append([]float64{avail.MinutesPerYear}, budgets...))
	for i, c := range cells {
		cells[i] = gridCell{ok: c.ok, cost: c.cost}
	}
	return cells, evals, calls
}

// TestSweepMemoSpansLoads pins the solver-scoped walk and frontier
// memo on e-commerce Fig 6 and Fig 8 grids. One solver sweeps every
// load, so a later load replays the walks and frontiers of an earlier
// load whose tier key it shares; that must stay a pure accelerant.
// Every cell matches a cold SolveContext bit for bit. A replay charges
// only its reuse counter, so the summed candidates, cost prunes, bound
// prunes and evaluation requests are each at most those of the same
// grid swept with one solver per load, where no memo outlives its load,
// and the candidates are strictly fewer. And the database tier, whose
// key every load of
// these grids shares, is walked fresh in phase 1 at the first load
// only, and at fewer loads overall than with a solver per load. (A
// waterfilling walk at a later load can still be fresh: its budget
// share depends on the other tiers, so it can fall outside every
// recorded walk's interval.)
func TestSweepMemoSpansLoads(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Registry: scenarios.Registry()}
	for _, tc := range []struct {
		name           string
		fig8           bool
		loads, budgets []float64
	}{
		{"fig6-ecommerce", false, []float64{400, 1400, 3200, 5000}, []float64{1, 10, 100, 1000, 10000}},
		{"fig8-ecommerce", true, []float64{400, 800, 1600, 3200}, []float64{1, 10, 100, 1000}},
		// The plane of the sweep benchmark: 16 loads from 200 to 6000
		// by 16 budgets from 1 to 10000 minutes. Its chains replay
		// frontiers built at a larger bound than their own.
		{"fig6-ecommerce-16x16", false, denseGrid(200, 6000), denseGrid(1, 10000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tr obs.CollectTracer
			traced := opts
			traced.Tracer = &tr
			s, err := core.NewSolver(inf, svc, traced)
			if err != nil {
				t.Fatal(err)
			}
			got, shared := sweepCells(t, s, tc.fig8, tc.loads, tc.budgets)
			want, _, _ := coldGrid(t, inf, svc, opts, tc.fig8, tc.loads, tc.budgets)
			if len(got) != len(want) {
				t.Fatalf("grid has %d cells, cold %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] || math.Float64bits(got[i].down) != math.Float64bits(want[i].down) {
					t.Errorf("cell %d: grid %+v, cold %+v", i, got[i], want[i])
				}
			}

			// The same grid with one solver per load, where no memo
			// outlives its load.
			var perLoad Totals
			perLoadFresh := 0
			for _, load := range tc.loads {
				var tr obs.CollectTracer
				traced := opts
				traced.Tracer = &tr
				s, err := core.NewSolver(inf, svc, traced)
				if err != nil {
					t.Fatal(err)
				}
				_, tot := sweepCells(t, s, tc.fig8, []float64{load}, tc.budgets)
				perLoad.Stats.Add(tot.Stats)
				perLoad.InfeasibleStats.Add(tot.InfeasibleStats)
				if _, _, fresh := databaseWalks(tr.Events()); len(fresh) > 0 {
					perLoadFresh++
				}
			}
			effort := func(tot Totals) [4]int {
				st := tot.Stats
				st.Add(tot.InfeasibleStats)
				return [4]int{st.CandidatesGenerated, st.CostPruned, st.BoundPruned, st.Evaluations + st.EvalCacheHits}
			}
			a, b := effort(shared), effort(perLoad)
			for i := range a {
				if a[i] > b[i] {
					t.Errorf("one solver sums [candidates cost-pruned bound-pruned requests] %v, over one solver per load %v", a, b)
					break
				}
			}
			if a[0] >= b[0] {
				t.Errorf("one solver generated %d candidates, not fewer than one solver per load (%d)", a[0], b[0])
			}

			replays, phase1, fresh := databaseWalks(tr.Events())
			t.Logf("%s: effort %v (%v with a solver per load); database walked fresh at %d of %d loads (%d with a solver per load), in phase 1 at %d; %d database walk replays",
				tc.name, a, b, len(fresh), len(tc.loads), perLoadFresh, len(phase1), replays)
			for load := range phase1 {
				if load != tc.loads[0] {
					t.Errorf("database tier walked fresh in phase 1 at load %v, not only at the first load %v", load, tc.loads[0])
				}
			}
			if replays == 0 {
				t.Error("no database walk replayed — the check is vacuous")
			}
			if len(fresh) >= perLoadFresh {
				t.Errorf("database tier walked fresh at %d loads with one solver, %d with a solver per load", len(fresh), perLoadFresh)
			}
		})
	}
}

// TestSweepCountersMatchTrace pins the effort contract of a sweep: a
// walk or frontier replay charges only its reuse counter, so every
// effort counter counts work the cells did and equals its trace event
// count. It sweeps traced Fig 6 on the application tier, and traced
// Fig 6 and Fig 8 on e-commerce, over the 16×16 plane of the sweep
// benchmark, and compares each event count with the feasible plus
// infeasible cells' counter.
func TestSweepCountersMatchTrace(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	app, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	ecom, err := scenarios.Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	loads, budgets := denseGrid(200, 6000), denseGrid(1, 10000)
	for _, tc := range []struct {
		name string
		svc  *model.Service
		fig8 bool
	}{
		{"fig6-apptier", app, false},
		{"fig6-ecommerce", ecom, false},
		{"fig8-ecommerce", ecom, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tr obs.CollectTracer
			s, err := core.NewSolver(inf, tc.svc, core.Options{Registry: scenarios.Registry(), Tracer: &tr})
			if err != nil {
				t.Fatal(err)
			}
			_, tot := sweepCells(t, s, tc.fig8, loads, budgets)
			st := tot.Stats
			st.Add(tot.InfeasibleStats)
			events := map[string]int{}
			for _, e := range tr.Events() {
				events[e.Ev]++
			}
			for _, row := range []struct {
				ev      string
				counter int
			}{
				{obs.EvCandGen, st.CandidatesGenerated},
				{obs.EvCandPrune, st.CostPruned},
				{obs.EvBoundPrune, st.BoundPruned},
				{obs.EvEvalMiss, st.Evaluations},
				{obs.EvEvalHit, st.EvalCacheHits},
				{obs.EvWarmReuse, st.WarmStartReuse},
				{obs.EvFrontierReuse, st.FrontierReuse},
				{obs.EvWalkReuse, st.WalkReuse},
			} {
				if events[row.ev] != row.counter {
					t.Errorf("%s: %d events, counters say %d", row.ev, events[row.ev], row.counter)
				}
			}
			t.Logf("%s: %d candidates, %d bound-pruned, %d evaluations, %d cache hits, %d walk and %d frontier replays",
				tc.name, st.CandidatesGenerated, st.BoundPruned, st.Evaluations, st.EvalCacheHits, st.WalkReuse, st.FrontierReuse)
			if st.WalkReuse == 0 || (tc.svc == ecom && st.FrontierReuse == 0) {
				t.Error("the sweep replayed no walk or frontier — the check is vacuous")
			}
		})
	}
}

// databaseWalks reads a sweep trace for the e-commerce database tier's
// walks. A cell's events precede its sweep.point, so each event falls
// to that point's load. A database cand.gen inside the tier-search
// phase is a fresh phase-1 walk, one inside the bound phase a fresh
// waterfilling walk; a frontier build's candidates fall in the frontier
// phase. It returns the database walk.reuse count and the loads with a
// fresh phase-1 walk and with a fresh walk of either kind.
func databaseWalks(evs []obs.Event) (replays int, phase1, fresh map[float64]bool) {
	phase1, fresh = map[float64]bool{}, map[float64]bool{}
	var phase string
	var walked1, walked bool
	for _, e := range evs {
		switch {
		case e.Ev == obs.EvPhaseStart:
			phase = e.Phase
		case e.Ev == obs.EvCandGen && e.Tier == "database" && (phase == "tier-search" || phase == "bound"):
			walked = true
			walked1 = walked1 || phase == "tier-search"
		case e.Ev == obs.EvWalkReuse && e.Tier == "database":
			replays++
		case e.Ev == obs.EvSweepPoint:
			if walked {
				fresh[e.Load] = true
			}
			if walked1 {
				phase1[e.Load] = true
			}
			walked, walked1 = false, false
		}
	}
	return replays, phase1, fresh
}

// denseGrid spaces 16 points logarithmically over [lo, hi), each a
// third of a log step above the step's start.
func denseGrid(lo, hi float64) []float64 {
	out := make([]float64, 16)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, (float64(i)+1.0/3)/16)
	}
	return out
}
