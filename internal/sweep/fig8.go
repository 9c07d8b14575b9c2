package sweep

import (
	"context"
	"fmt"
	"slices"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/obs"
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
	// InfeasibleStats records, in grid order, the search effort of each
	// budget no design meets; those budgets have no Point.
	InfeasibleStats []core.Stats
}

// Fig8 reproduces the cost/availability/performance tradeoff curves:
// for each load, the baseline is the minimum-cost design with no
// availability requirement; each point reports how much more per year
// a given downtime bound costs (§5.3). Infeasible budgets are skipped.
//
// The baseline is an ordinary cell of the load's budget chain at the
// whole-year budget, appended to the grid when budgetsMinutes lacks
// it. An appended baseline's effort is BaselineStats; when the grid
// already has the whole-year budget, its cell's cost serves as
// BaselineCost and BaselineStats stays zero (the effort is already on
// the cell's own Stats), so the requirement is never solved twice per
// load. A load whose baseline is infeasible aborts the sweep.
func Fig8(ctx context.Context, solver *core.Solver, loads, budgetsMinutes []float64) ([]Fig8Curve, error) {
	if len(loads) == 0 || len(budgetsMinutes) == 0 {
		return nil, fmt.Errorf("sweep: fig8 needs non-empty load and budget grids")
	}
	// No availability requirement: any downtime within the year is
	// acceptable, so the baseline's budget is the whole year.
	nb := len(budgetsMinutes)
	grid := budgetsMinutes
	base := slices.Index(grid, avail.MinutesPerYear)
	appended := base < 0
	if appended {
		grid, base = append(slices.Clip(grid), avail.MinutesPerYear), nb
	}
	stride := len(grid)
	type cell struct {
		ok   bool
		cost units.Money
		// stats is the cell's effort, feasible or not.
		stats core.Stats
	}
	cells := make([]cell, len(loads)*stride)
	err := solveGrid(ctx, solver, "fig8", loads, grid, func(li, bj int, sol *core.Solution, infeasible *core.InfeasibleError) (obs.Event, error) {
		load, budget := loads[li], grid[bj]
		if sol == nil {
			if bj == base {
				return obs.Event{}, fmt.Errorf("sweep: fig8 baseline at load %v: %w", load, infeasible)
			}
			cells[li*stride+bj].stats = infeasible.Stats
			return obs.Event{Load: load, Budget: budget, Err: "infeasible"}, nil
		}
		cells[li*stride+bj] = cell{ok: true, cost: sol.Cost, stats: sol.Stats}
		return obs.Event{
			Load: load, Budget: budget, Cost: float64(sol.Cost),
			WarmReuse:     int64(sol.Stats.WarmStartReuse),
			FrontierReuse: int64(sol.Stats.FrontierReuse),
			WalkReuse:     int64(sol.Stats.WalkReuse),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Curve, 0, len(loads))
	for li, load := range loads {
		row := cells[li*stride : (li+1)*stride]
		curve := Fig8Curve{Load: load, BaselineCost: row[base].cost}
		if appended {
			curve.BaselineStats = row[base].stats
		}
		for j, c := range row[:nb] {
			if !c.ok {
				curve.InfeasibleStats = append(curve.InfeasibleStats, c.stats)
				continue
			}
			curve.Points = append(curve.Points, Fig8Point{
				BudgetMinutes: budgetsMinutes[j],
				ExtraCost:     c.cost - row[base].cost,
				TotalCost:     c.cost,
				Stats:         c.stats,
			})
		}
		out = append(out, curve)
	}
	return out, nil
}
