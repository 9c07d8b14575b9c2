package sweep

import (
	"context"
	"errors"
	"fmt"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/par"
	"aved/internal/units"
)

// Fig8Point is one sample of an availability cost-premium curve: the
// extra annual cost, over the availability-indifferent baseline at the
// same load, of meeting a downtime requirement.
type Fig8Point struct {
	BudgetMinutes float64
	ExtraCost     units.Money
	TotalCost     units.Money
	// Stats records the point's search effort.
	Stats core.Stats
}

// Fig8Curve is the premium curve for one load level.
type Fig8Curve struct {
	Load         float64
	BaselineCost units.Money
	// BaselineStats records the baseline solve's search effort.
	BaselineStats core.Stats
	Points        []Fig8Point
}

// Fig8 reproduces the cost/availability/performance tradeoff curves:
// for each load, the baseline is the minimum-cost design with no
// availability requirement; each point reports how much more per year
// a given downtime bound costs (§5.3). Infeasible budgets are skipped.
//
// When budgetsMinutes already contains the whole-year budget, the
// separate baseline solve is deduped against that cell: its cost serves
// as BaselineCost and BaselineStats stays zero (the effort is already
// on the cell's own Stats), so the requirement is never solved twice
// per load. A load whose whole-year cell is infeasible aborts the sweep
// exactly like a failed baseline always has.
func Fig8(ctx context.Context, solver *core.Solver, loads, budgetsMinutes []float64) ([]Fig8Curve, error) {
	if len(loads) == 0 || len(budgetsMinutes) == 0 {
		return nil, fmt.Errorf("sweep: fig8 needs non-empty load and budget grids")
	}
	// Like Fig6, the grid is scheduled grid-aware: each load is one
	// sequential chain — budgets tightest first, then the baseline — and
	// the chains fan across the worker pool by load, every cell sharing
	// the chain's frontier set — its frontier builds and its tier walks,
	// counted per cell as FrontierReuse and WalkReuse. Slot 0 of each load's stride is the
	// baseline; cells land by flattened index so assembly sees the
	// original grid order regardless of parallelism. The lowest-load-index
	// error wins, and within a load the tightest failing budget's error
	// wins.
	nb := len(budgetsMinutes)
	stride := nb + 1
	ord := budgetOrder(budgetsMinutes)
	wholeIdx := -1
	for j, b := range budgetsMinutes {
		if b == avail.MinutesPerYear {
			wholeIdx = j
			break
		}
	}
	type cell struct {
		ok    bool
		cost  units.Money
		stats core.Stats
	}
	cells := make([]cell, len(loads)*stride)
	total := len(cells)
	if wholeIdx >= 0 {
		total = len(loads) * nb // baselines deduped: no separate solves
	}
	po := solverPointObs(solver, total)
	pt := par.NewTiming(solver.Metrics())
	err := par.ForEachTimedCtx(ctx, solver.Workers(), len(loads), pt, func(li int) error {
		load := loads[li]
		fs := core.NewFrontierSet()
		for _, bj := range ord {
			budget := budgetsMinutes[bj]
			i := li*stride + 1 + bj
			start := po.Begin()
			sol, err := solver.SolveCell(ctx, model.Requirements{
				Kind:              model.ReqEnterprise,
				Throughput:        load,
				MaxAnnualDowntime: units.Duration(budget * float64(units.Minute)),
			}, fs)
			if err != nil {
				var infErr *core.InfeasibleError
				if errors.As(err, &infErr) {
					if bj == wholeIdx {
						// This cell doubles as the load's baseline: no design
						// even without an availability requirement.
						return fmt.Errorf("sweep: fig8 baseline at load %v: %w", load, err)
					}
					po.Done(i, start, obs.Event{Load: load, Budget: budget, Err: "infeasible"})
					continue
				}
				return fmt.Errorf("sweep: fig8 at load %v budget %v: %w", load, budget, err)
			}
			po.Done(i, start, obs.Event{
				Load: load, Budget: budget, Cost: float64(sol.Cost),
				WarmReuse:     int64(sol.Stats.WarmStartReuse),
				FrontierReuse: int64(sol.Stats.FrontierReuse),
				WalkReuse:     int64(sol.Stats.WalkReuse),
			})
			cells[i] = cell{ok: true, cost: sol.Cost, stats: sol.Stats}
		}
		if wholeIdx >= 0 {
			// Baseline deduped against the whole-year budget cell; assembly
			// below copies its cost.
			return nil
		}
		// No availability requirement: any downtime within the year is
		// acceptable, so the budget is the whole year.
		i := li * stride
		start := po.Begin()
		base, err := solver.SolveCell(ctx, model.Requirements{
			Kind:              model.ReqEnterprise,
			Throughput:        load,
			MaxAnnualDowntime: units.Duration(avail.MinutesPerYear * float64(units.Minute)),
		}, fs)
		if err != nil {
			return fmt.Errorf("sweep: fig8 baseline at load %v: %w", load, err)
		}
		po.Done(i, start, obs.Event{
			Load: load, Budget: avail.MinutesPerYear, Cost: float64(base.Cost),
			WarmReuse:     int64(base.Stats.WarmStartReuse),
			FrontierReuse: int64(base.Stats.FrontierReuse),
			WalkReuse:     int64(base.Stats.WalkReuse),
		})
		cells[i] = cell{ok: true, cost: base.Cost, stats: base.Stats}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Curve, 0, len(loads))
	for li, load := range loads {
		base := cells[li*stride]
		if wholeIdx >= 0 {
			base = cells[li*stride+1+wholeIdx]
			base.stats = core.Stats{} // effort stays on the cell's own point
		}
		curve := Fig8Curve{Load: load, BaselineCost: base.cost, BaselineStats: base.stats}
		for j := 0; j < nb; j++ {
			c := cells[li*stride+1+j]
			if !c.ok {
				continue
			}
			curve.Points = append(curve.Points, Fig8Point{
				BudgetMinutes: budgetsMinutes[j],
				ExtraCost:     c.cost - base.cost,
				TotalCost:     c.cost,
				Stats:         c.stats,
			})
		}
		out = append(out, curve)
	}
	return out, nil
}
