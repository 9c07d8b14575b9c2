package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/par"
	"aved/internal/units"
)

// Fig6Point is one cell of the Fig. 6 requirement plane: the optimal
// design at a (load, max-downtime) requirement.
type Fig6Point struct {
	Load            float64
	BudgetMinutes   float64
	Family          Family
	Stack           string // component stack, as in the figure's legend
	DowntimeMinutes float64
	Cost            units.Money
	NActive         int
	// Stats records the cell's search effort.
	Stats core.Stats
}

// Fig6Curve is one design family's trace: the family's estimated
// downtime at each load where it is the optimal choice for some
// requirement.
type Fig6Curve struct {
	Family Family
	Stack  string
	// Loads and Downtimes are parallel, ascending in load.
	Loads     []float64
	Downtimes []float64
}

// Fig6Result collects the whole sweep.
type Fig6Result struct {
	Points []Fig6Point
	Curves []Fig6Curve
	// Totals aggregates search effort over the feasible cells; an
	// infeasible corner adds to Totals.Infeasible only, since its solve
	// returns no Stats.
	Totals Totals
}

// Fig6 sweeps the requirement plane: for every load and every downtime
// budget it solves for the optimal design and classifies it into a
// family. The per-family curves reproduce the structure of Fig. 6:
// each curve traces the downtime estimate of a family across the loads
// where it is optimal for some requirement level.
func Fig6(ctx context.Context, solver *core.Solver, loads, budgetsMinutes []float64) (*Fig6Result, error) {
	if len(loads) == 0 || len(budgetsMinutes) == 0 {
		return nil, fmt.Errorf("sweep: fig6 needs non-empty load and budget grids")
	}
	// The grid is scheduled grid-aware: each load is one sequential chain
	// over its budgets, tightest first, and the chains fan across the
	// solver's worker pool by load. Within a chain the cells share one
	// frontier set: a cell whose cost threshold an earlier build covers
	// replays that build's prefix, and one needing a larger bound
	// rebuilds at it, with the superseded build's evaluations replaying
	// from the solver's evaluation cache; a tier search whose budget an
	// earlier walk's budget interval covers replays that walk. Costs,
	// labels and solutions stay bit-identical to per-cell cold solves at
	// any worker count; the reuse shows up only in the Stats counters
	// (FrontierReuse, WalkReuse, WarmStartReuse). Cells land by flattened load-major index, so
	// assembly below sees them in the original grid order regardless of
	// parallelism; the lowest-load-index error wins, and within a load
	// the tightest failing budget's error wins.
	nb := len(budgetsMinutes)
	ord := budgetOrder(budgetsMinutes)
	type cell struct {
		ok    bool
		point Fig6Point
	}
	cells := make([]cell, len(loads)*nb)
	po := solverPointObs(solver, len(cells))
	pt := par.NewTiming(solver.Metrics())
	err := par.ForEachTimedCtx(ctx, solver.Workers(), len(loads), pt, func(li int) error {
		load := loads[li]
		fs := core.NewFrontierSet()
		for _, bj := range ord {
			budget := budgetsMinutes[bj]
			i := li*nb + bj
			start := po.Begin()
			sol, err := solver.SolveCell(ctx, model.Requirements{
				Kind:              model.ReqEnterprise,
				Throughput:        load,
				MaxAnnualDowntime: units.Duration(budget * float64(units.Minute)),
			}, fs)
			if err != nil {
				var infErr *core.InfeasibleError
				if errors.As(err, &infErr) {
					// This corner of the plane has no design.
					po.Done(i, start, obs.Event{Load: load, Budget: budget, Err: "infeasible"})
					continue
				}
				return fmt.Errorf("sweep: fig6 at load %v budget %v: %w", load, budget, err)
			}
			po.Done(i, start, obs.Event{
				Load: load, Budget: budget,
				Cost: float64(sol.Cost), Down: sol.DowntimeMinutes,
				WarmReuse:     int64(sol.Stats.WarmStartReuse),
				FrontierReuse: int64(sol.Stats.FrontierReuse),
				WalkReuse:     int64(sol.Stats.WalkReuse),
			})
			td := &sol.Design.Tiers[0]
			cells[i] = cell{ok: true, point: Fig6Point{
				Load:            load,
				BudgetMinutes:   budget,
				Family:          FamilyOf(td),
				Stack:           Stack(td),
				DowntimeMinutes: sol.DowntimeMinutes,
				Cost:            sol.Cost,
				NActive:         td.NActive,
				Stats:           sol.Stats,
			}}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	type curveKey struct {
		fam  Family
		load float64
	}
	seen := map[curveKey]float64{} // family+load → downtime estimate
	for i := range cells {
		if !cells[i].ok {
			res.Totals.Infeasible++
			continue
		}
		p := cells[i].point
		res.Totals.Add(p.Stats)
		res.Points = append(res.Points, p)
		seen[curveKey{p.Family, p.Load}] = p.DowntimeMinutes
	}
	// Build the family curves in first-seen point order so the result is
	// deterministic (map iteration order is not).
	byFamily := map[Family]map[float64]float64{}
	stacks := map[Family]string{}
	var famOrder []Family
	for _, p := range res.Points {
		m, ok := byFamily[p.Family]
		if !ok {
			m = map[float64]float64{}
			byFamily[p.Family] = m
			stacks[p.Family] = p.Stack
			famOrder = append(famOrder, p.Family)
		}
		m[p.Load] = seen[curveKey{p.Family, p.Load}]
	}
	for _, fam := range famOrder {
		m := byFamily[fam]
		curve := Fig6Curve{Family: fam, Stack: stacks[fam]}
		loadsSorted := make([]float64, 0, len(m))
		for l := range m {
			loadsSorted = append(loadsSorted, l)
		}
		sort.Float64s(loadsSorted)
		for _, l := range loadsSorted {
			curve.Loads = append(curve.Loads, l)
			curve.Downtimes = append(curve.Downtimes, m[l])
		}
		res.Curves = append(res.Curves, curve)
	}
	sort.SliceStable(res.Curves, func(i, j int) bool {
		return curveOrder(res.Curves[i]) > curveOrder(res.Curves[j])
	})
	return res, nil
}

// budgetOrder returns the budget indices sorted ascending by value —
// tightest requirement first, the chain order of a load's cells.
func budgetOrder(budgets []float64) []int {
	ord := make([]int, len(budgets))
	for i := range ord {
		ord[i] = i
	}
	sort.SliceStable(ord, func(a, b int) bool { return budgets[ord[a]] < budgets[ord[b]] })
	return ord
}

// curveOrder sorts curves from highest downtime to lowest, matching
// the figure's top-to-bottom family numbering.
func curveOrder(c Fig6Curve) float64 {
	if len(c.Downtimes) == 0 {
		return 0
	}
	max := c.Downtimes[0]
	for _, d := range c.Downtimes {
		if d > max {
			max = d
		}
	}
	return max
}
