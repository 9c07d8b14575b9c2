package sweep

import (
	"context"
	"errors"
	"fmt"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/par"
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

// Fig7 sweeps the job-time requirement axis of Fig. 7: for each
// requirement it solves for the optimal design and records the
// dimensions the figure plots — resource type, resource count, spares,
// checkpoint interval and storage location. Infeasible requirements
// are skipped (the left edge of the axis).
//
// The levels fan across the solver's worker pool, each solving on its
// own sibling of solver (core.Solver.Sibling): a default engine is then
// private to the level, an engine the caller passed is shared.
func Fig7(ctx context.Context, solver *core.Solver, requirementHours []float64) ([]Fig7Point, error) {
	if len(requirementHours) == 0 {
		return nil, fmt.Errorf("sweep: fig7 needs a non-empty requirement grid")
	}
	// Each requirement level is an independent solve on a solver of its
	// own, so every level's Stats are the same at any worker count;
	// points land by index so the output order matches the sequential
	// sweep. Unlike Fig6/Fig8 there is no chain to share: job solves
	// have no combination phase, so no frontiers to cache.
	type slot struct {
		ok    bool
		point Fig7Point
	}
	slots := make([]slot, len(requirementHours))
	po := solverPointObs(solver, len(slots))
	pt := par.NewTiming(solver.Metrics())
	err := par.ForEachTimedCtx(ctx, solver.Workers(), len(slots), pt, func(i int) error {
		h := requirementHours[i]
		start := po.Begin()
		sol, err := solver.Sibling().SolveContext(ctx, model.Requirements{
			Kind:       model.ReqJob,
			MaxJobTime: units.FromHours(h),
		})
		if err != nil {
			var infErr *core.InfeasibleError
			if errors.As(err, &infErr) {
				po.Done(i, start, obs.Event{ReqH: h, Err: "infeasible"})
				return nil
			}
			return fmt.Errorf("sweep: fig7 at %vh: %w", h, err)
		}
		po.Done(i, start, obs.Event{
			ReqH: h, Cost: float64(sol.Cost), JobH: sol.JobTime.Hours(),
		})
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
		slots[i] = slot{ok: true, point: p}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Point, 0, len(slots))
	for i := range slots {
		if slots[i].ok {
			out = append(out, slots[i].point)
		}
	}
	return out, nil
}
