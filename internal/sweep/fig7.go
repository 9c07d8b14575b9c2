package sweep

import (
	"context"
	"errors"
	"fmt"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/units"
)

// Fig7Point is one sample of the scientific-application sweep: the
// optimal design at a job-completion-time requirement.
type Fig7Point struct {
	RequirementHours float64
	Resource         string
	Stack            string
	NActive          int
	NSpare           int
	CheckpointHours  float64
	StorageLocation  string
	JobTimeHours     float64
	Cost             units.Money
	// Stats records the point's search effort.
	Stats core.Stats
}

// Fig7Result collects the job-axis sweep.
type Fig7Result struct {
	// Points are the feasible levels, in grid order.
	Points []Fig7Point
	// InfeasibleStats records, in grid order, the search effort of each
	// level no design meets; those levels have no Point.
	InfeasibleStats []core.Stats
}

// Fig7 sweeps the job-time requirement axis of Fig. 7: for each
// requirement it solves for the optimal design and records the
// dimensions the figure plots — resource type, resource count, spares,
// checkpoint interval and storage location. Infeasible requirements
// (the left edge of the axis) have no point; their effort is in
// InfeasibleStats.
//
// The levels solve in grid order on the caller's solver, as Fig. 6 and
// Fig. 8 cells do, checking ctx before each; a later level replays the
// evaluations earlier ones paid for (Stats.WarmStartReuse).
func Fig7(ctx context.Context, solver *core.Solver, requirementHours []float64) (*Fig7Result, error) {
	if len(requirementHours) == 0 {
		return nil, fmt.Errorf("sweep: fig7 needs a non-empty requirement grid")
	}
	res := &Fig7Result{Points: make([]Fig7Point, 0, len(requirementHours))}
	po := solverPointObs(solver, len(requirementHours))
	for i, h := range requirementHours {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := po.Begin()
		sol, err := solver.SolveContext(ctx, model.Requirements{
			Kind:       model.ReqJob,
			MaxJobTime: units.FromHours(h),
		})
		if err != nil {
			var infErr *core.InfeasibleError
			if !errors.As(err, &infErr) {
				return nil, fmt.Errorf("sweep: fig7 at %vh: %w", h, err)
			}
			res.InfeasibleStats = append(res.InfeasibleStats, infErr.Stats)
			po.Done(i, start, obs.Event{ReqH: h, Err: "infeasible"})
			continue
		}
		po.Done(i, start, obs.Event{
			ReqH: h, Cost: float64(sol.Cost), JobH: sol.JobTime.Hours(),
			WarmReuse: int64(sol.Stats.WarmStartReuse),
		})
		res.Points = append(res.Points, newFig7Point(h, sol))
	}
	return res, nil
}

// newFig7Point projects a level's solution onto the dimensions Fig. 7
// plots.
func newFig7Point(h float64, sol *core.Solution) Fig7Point {
	td := &sol.Design.Tiers[0]
	p := Fig7Point{
		RequirementHours: h,
		Resource:         td.Resource().Name,
		Stack:            Stack(td),
		NActive:          td.NActive,
		NSpare:           td.NSpare,
		JobTimeHours:     sol.JobTime.Hours(),
		Cost:             sol.Cost,
		Stats:            sol.Stats,
	}
	if ms, ok := td.Mechanism("checkpoint"); ok {
		if v, ok := ms.Values["checkpoint_interval"]; ok {
			p.CheckpointHours = v.Hours
		}
		if v, ok := ms.Values["storage_location"]; ok {
			p.StorageLocation = v.Str
		}
	}
	return p
}
