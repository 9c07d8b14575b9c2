package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
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

// countingEngine is a Markov engine that counts every call the solver
// makes into it, infeasible cells included. It forwards PriceTier too,
// so the solver keeps its single-tier pricing path.
type countingEngine struct {
	m     avail.MarkovEngine
	calls atomic.Int64
}

func newCountingEngine() *countingEngine {
	return &countingEngine{m: avail.NewMarkovEngine()}
}

func (c *countingEngine) Evaluate(tms []avail.TierModel) (avail.Result, error) {
	c.calls.Add(1)
	return c.m.Evaluate(tms)
}

func (c *countingEngine) PriceTier(tm *avail.TierModel) (float64, error) {
	c.calls.Add(1)
	return c.m.PriceTier(tm)
}

// coldCells solves every grid cell per-cell cold: a fresh sequential
// solver per cell, no shared caches — the reference the grid-aware
// sweep must reproduce exactly. It also returns the engine evaluations
// summed over the feasible cells and the engine calls over every cell.
func coldCells(t *testing.T, inf *model.Infrastructure, svc *model.Service, opts core.Options, loads, budgets []float64) ([]gridCell, int64, int64) {
	t.Helper()
	out := make([]gridCell, 0, len(loads)*len(budgets))
	var evals, calls int64
	for _, load := range loads {
		for _, budget := range budgets {
			eng := newCountingEngine()
			opts := opts
			opts.Workers = 1
			opts.Engine = eng
			s, err := core.NewSolver(inf, svc, opts)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.SolveContext(context.Background(), enterpriseReq(load, budget))
			calls += eng.calls.Load()
			if err != nil {
				var infErr *core.InfeasibleError
				if !errors.As(err, &infErr) {
					t.Fatalf("cold solve load %v budget %v: %v", load, budget, err)
				}
				out = append(out, gridCell{})
				continue
			}
			evals += int64(sol.Stats.Evaluations)
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
// through a counting engine, and those calls must equal the Evaluations
// of the feasible and the infeasible cells together.
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
			eng := newCountingEngine()
			gridOpts := opts
			gridOpts.Engine = eng
			s, err := core.NewSolver(inf, svc, gridOpts)
			if err != nil {
				t.Fatal(err)
			}
			var got, want []gridCell
			var tot Totals
			var cold, coldCalls int64
			if tc.fig8 {
				curves, err := Fig8(context.Background(), s, tc.loads, tc.budgets)
				if err != nil {
					t.Fatal(err)
				}
				// Each load's cold stride is its whole-year baseline, then
				// the budget cells; Fig 8 reports only costs, so the
				// comparison projects both sides onto feasibility and cost.
				coldBudgets := append([]float64{avail.MinutesPerYear}, tc.budgets...)
				var full []gridCell
				full, cold, coldCalls = coldCells(t, inf, svc, opts, tc.loads, coldBudgets)
				for _, c := range full {
					want = append(want, gridCell{ok: c.ok, cost: c.cost})
				}
				for _, c := range curves {
					tot.Add(c.BaselineStats)
					for _, st := range c.InfeasibleStats {
						tot.AddInfeasible(st)
					}
					got = append(got, gridCell{ok: true, cost: c.BaselineCost})
					byBudget := map[float64]units.Money{}
					for _, p := range c.Points {
						tot.Add(p.Stats)
						byBudget[p.BudgetMinutes] = p.TotalCost
					}
					for _, budget := range tc.budgets {
						cost, ok := byBudget[budget]
						got = append(got, gridCell{ok: ok, cost: cost})
					}
				}
			} else {
				res, err := Fig6(context.Background(), s, tc.loads, tc.budgets)
				if err != nil {
					t.Fatal(err)
				}
				tot = res.Totals
				got = fig6Cells(res, tc.loads, tc.budgets)
				want, cold, coldCalls = coldCells(t, inf, svc, opts, tc.loads, tc.budgets)
			}
			if len(got) != len(want) {
				t.Fatalf("grid has %d cells, cold %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("cell %d: grid %+v, cold %+v", i, got[i], want[i])
				}
			}
			calls, evals := eng.calls.Load(), int64(tot.Evaluations)
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
			if e := evals + int64(tot.InfeasibleStats.Evaluations); e != calls {
				t.Errorf("cells report %d evaluations (%d feasible, %d infeasible), the engine took %d calls",
					e, evals, tot.InfeasibleStats.Evaluations, calls)
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
