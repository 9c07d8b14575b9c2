package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
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
	// Totals aggregates search effort over the cells, the infeasible
	// corners' apart from the feasible cells'.
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
	// Cells land by flattened load-major index, so assembly below sees
	// them in the grid order, not the chains' tightest-first order.
	nb := len(budgetsMinutes)
	type cell struct {
		ok    bool
		point Fig6Point
		// infeasible is the effort of a cell with no design.
		infeasible core.Stats
	}
	cells := make([]cell, len(loads)*nb)
	err := solveGrid(ctx, solver, "fig6", loads, budgetsMinutes, func(li, bj int, sol *core.Solution, infeasible *core.InfeasibleError) (obs.Event, error) {
		load, budget := loads[li], budgetsMinutes[bj]
		if sol == nil {
			// This corner of the plane has no design.
			cells[li*nb+bj].infeasible = infeasible.Stats
			return obs.Event{Load: load, Budget: budget, Err: "infeasible"}, nil
		}
		td := &sol.Design.Tiers[0]
		cells[li*nb+bj] = cell{ok: true, point: Fig6Point{
			Load:            load,
			BudgetMinutes:   budget,
			Family:          FamilyOf(td),
			Stack:           Stack(td),
			DowntimeMinutes: sol.DowntimeMinutes,
			Cost:            sol.Cost,
			NActive:         td.NActive,
			Stats:           sol.Stats,
		}}
		return obs.Event{
			Load: load, Budget: budget,
			Cost: float64(sol.Cost), Down: sol.DowntimeMinutes,
			WarmReuse:     int64(sol.Stats.WarmStartReuse),
			FrontierReuse: int64(sol.Stats.FrontierReuse),
			WalkReuse:     int64(sol.Stats.WalkReuse),
		}, nil
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
			res.Totals.AddInfeasible(cells[i].infeasible)
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

// solveGrid solves the grid loads × budgetsMinutes as one budget chain
// per load (Solver.SolveChain: tightest budget first, the cells sharing
// the chain's frontier builds and tier walks), the chains in load order
// on the caller's goroutine, so every per-cell Stats counter is exact.
// cell receives each solved cell by load and budget index — with sol
// nil and the cell's InfeasibleError when no design meets it — and
// returns the cell's sweep.point event, or an error that aborts the
// sweep. Any other solve error aborts the sweep too, as does ctx's
// cancellation, checked before each load.
func solveGrid(ctx context.Context, solver *core.Solver, fig string, loads, budgetsMinutes []float64, cell func(li, bj int, sol *core.Solution, infeasible *core.InfeasibleError) (obs.Event, error)) error {
	nb := len(budgetsMinutes)
	budgets := make([]units.Duration, nb)
	for j, b := range budgetsMinutes {
		budgets[j] = units.Duration(b * float64(units.Minute))
	}
	po := solverPointObs(solver, len(loads)*nb)
	for li, load := range loads {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := po.Begin()
		err := solver.SolveChain(ctx, model.Requirements{Kind: model.ReqEnterprise, Throughput: load}, budgets,
			func(bj int, sol *core.Solution, err error) error {
				var infErr *core.InfeasibleError
				if err != nil && !errors.As(err, &infErr) {
					return fmt.Errorf("sweep: %s at load %v budget %v: %w", fig, load, budgetsMinutes[bj], err)
				}
				ev, err := cell(li, bj, sol, infErr)
				if err != nil {
					return err
				}
				po.Done(li*nb+bj, start, ev)
				start = po.Begin()
				return nil
			})
		if err != nil {
			return err
		}
	}
	return nil
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
