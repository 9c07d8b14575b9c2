// Package sensitivity implements what-if analysis over infrastructure
// parameters: it perturbs a copy of the infrastructure model with a
// scalar factor (failure rates, repair times, component or contract
// prices), re-runs the design search at a fixed requirement, and
// reports how the optimal design and its cost move. This mechanises
// the paper's self-managing-utility argument (§1, §5.1): as conditions
// change, the optimal design changes, and an engine like Aved must
// re-evaluate it automatically.
package sensitivity

import (
	"context"
	"errors"
	"fmt"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/par"
	"aved/internal/perf"
	"aved/internal/sweep"
	"aved/internal/units"
)

// Knob perturbs an infrastructure in place by a scalar factor. A
// factor of 1 must leave the model unchanged.
type Knob func(inf *model.Infrastructure, factor float64) error

// ScaleMTBF multiplies every failure mode's MTBF of the named
// component by the factor (factor > 1 means more reliable hardware).
// An empty component name scales every component.
func ScaleMTBF(component string) Knob {
	return func(inf *model.Infrastructure, factor float64) error {
		if factor <= 0 {
			return fmt.Errorf("sensitivity: MTBF factor must be positive, got %v", factor)
		}
		touched := false
		for name, c := range inf.Components {
			if component != "" && name != component {
				continue
			}
			touched = true
			for i := range c.Failures {
				c.Failures[i].MTBF = units.Duration(float64(c.Failures[i].MTBF) * factor)
			}
		}
		if !touched {
			return fmt.Errorf("sensitivity: unknown component %q", component)
		}
		return nil
	}
}

// ScaleCost multiplies the named component's costs (both operational
// modes) by the factor. An empty name scales every component.
func ScaleCost(component string) Knob {
	return func(inf *model.Infrastructure, factor float64) error {
		if factor < 0 {
			return fmt.Errorf("sensitivity: cost factor must be non-negative, got %v", factor)
		}
		touched := false
		for name, c := range inf.Components {
			if component != "" && name != component {
				continue
			}
			touched = true
			c.CostInactive = units.Money(float64(c.CostInactive) * factor)
			c.CostActive = units.Money(float64(c.CostActive) * factor)
		}
		if !touched {
			return fmt.Errorf("sensitivity: unknown component %q", component)
		}
		return nil
	}
}

// ScaleMechanismCost multiplies the named mechanism's cost table by the
// factor (e.g. maintenance contracts getting cheaper or dearer).
func ScaleMechanismCost(mechanism string) Knob {
	return func(inf *model.Infrastructure, factor float64) error {
		if factor < 0 {
			return fmt.Errorf("sensitivity: cost factor must be non-negative, got %v", factor)
		}
		mech, ok := inf.Mechanisms[mechanism]
		if !ok {
			return fmt.Errorf("sensitivity: unknown mechanism %q", mechanism)
		}
		for _, e := range mech.Effects {
			for i := range e.Costs {
				e.Costs[i] = units.Money(float64(e.Costs[i]) * factor)
			}
		}
		return nil
	}
}

// Point is the search outcome at one perturbation factor.
type Point struct {
	Factor          float64
	Cost            units.Money
	DowntimeMinutes float64
	JobTimeHours    float64
	Family          sweep.Family
	Label           string
	Infeasible      bool
	// Stats records the factor's search effort (zero when infeasible).
	Stats core.Stats
}

// Config drives a sensitivity sweep.
type Config struct {
	// Service spec source text; rebound against each perturbed
	// infrastructure.
	ServiceSpec string
	// Registry resolves performance references.
	Registry *perf.Registry
	// SolverOptions configure the per-factor solvers (Registry is set
	// from the field above). Their Workers bounds how many factors are
	// solved concurrently: 0 uses GOMAXPROCS, 1 runs sequentially. Each
	// factor gets its own infrastructure clone and solver, so the
	// reported points are identical at any worker count.
	SolverOptions core.Options
	// Requirement is the fixed requirement to solve at each factor.
	Requirement model.Requirements
}

// Sweep applies the knob at each factor to a fresh clone of the base
// infrastructure and solves the fixed requirement, reporting one Point
// per factor. Infeasible factors are reported, not skipped, so callers
// see where the requirement stops being achievable.
func Sweep(ctx context.Context, base *model.Infrastructure, cfg Config, knob Knob, factors []float64) ([]Point, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("sensitivity: no factors")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("sensitivity: config needs a registry")
	}
	// Factors are fully independent — each clones the infrastructure
	// and builds its own solver — so they fan across the worker pool,
	// landing by index; the lowest-index error matches the sequential
	// first error.
	//
	// Observability rides on the shared solver options: every factor's
	// solver inherits the configured tracer and registry, and the sweep
	// itself reports per-factor progress. Timing spans the whole factor
	// (clone, perturb, bind, solve) — that is the unit of work a
	// what-if consumer waits for.
	po := sweep.NewPointObs(cfg.SolverOptions.Tracer, cfg.SolverOptions.Metrics, len(factors))
	out := make([]Point, len(factors))
	pt := par.NewTiming(cfg.SolverOptions.Metrics)
	err := par.ForEachTimedCtx(ctx, cfg.SolverOptions.Workers, len(factors), pt, func(i int) error {
		f := factors[i]
		start := po.Begin()
		inf := base.Clone()
		if err := knob(inf, f); err != nil {
			return err
		}
		svc, err := model.ParseService(cfg.ServiceSpec)
		if err != nil {
			return fmt.Errorf("sensitivity: %w", err)
		}
		if err := svc.Resolve(inf); err != nil {
			return fmt.Errorf("sensitivity: %w", err)
		}
		opts := cfg.SolverOptions
		opts.Registry = cfg.Registry
		solver, err := core.NewSolver(inf, svc, opts)
		if err != nil {
			return err
		}
		sol, err := solver.SolveContext(ctx, cfg.Requirement)
		if err != nil {
			var infErr *core.InfeasibleError
			if errors.As(err, &infErr) {
				po.Done(i, start, obs.Event{Factor: f, Err: "infeasible"})
				out[i] = Point{Factor: f, Infeasible: true}
				return nil
			}
			return fmt.Errorf("sensitivity: factor %v: %w", f, err)
		}
		po.Done(i, start, obs.Event{
			Factor: f, Cost: float64(sol.Cost),
			Down: sol.DowntimeMinutes, JobH: sol.JobTime.Hours(),
		})
		out[i] = pointOf(f, sol)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func pointOf(f float64, sol *core.Solution) Point {
	p := Point{
		Factor:          f,
		Cost:            sol.Cost,
		DowntimeMinutes: sol.DowntimeMinutes,
		JobTimeHours:    sol.JobTime.Hours(),
		Label:           sol.Design.Label(),
		Stats:           sol.Stats,
	}
	if len(sol.Design.Tiers) > 0 {
		p.Family = sweep.FamilyOf(&sol.Design.Tiers[0])
	}
	return p
}
