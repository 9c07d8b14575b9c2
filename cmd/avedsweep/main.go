// Command avedsweep regenerates the data series behind the paper's
// evaluation figures as tab-separated values.
//
// Usage:
//
//	avedsweep -fig 6 [-loads 10] [-budgets 12]    # optimal families over the requirement plane
//	avedsweep -fig 7 [-points 15]                 # scientific design vs job-time requirement
//	avedsweep -fig 8 [-budgets 10]                # availability cost premium curves
//
// All sweeps run on the paper's built-in Fig. 3/4/5 inputs; Fig. 7
// pins maintenance to bronze as §5.2 does.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"aved"
	"aved/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "avedsweep:", err)
		os.Exit(1)
	}
}

// errw receives -progress output; a variable so tests can capture it.
var errw io.Writer = os.Stderr

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("avedsweep", flag.ContinueOnError)
	common := cli.Register(fs, 32)
	var (
		fig      = fs.Int("fig", 0, "figure to regenerate: 6, 7 or 8")
		loads    = fs.Int("loads", 10, "load grid points (figs 6, 8)")
		budgets  = fs.Int("budgets", 12, "downtime-budget grid points (figs 6, 8)")
		points   = fs.Int("points", 15, "job-time requirement points (fig 7)")
		workers  = fs.Int("workers", 0, "worker count for Fig. 7 levels and sim replications: 0 = all CPUs, 1 = sequential (results are identical); Figs. 6 and 8 run on one goroutine")
		progress = fs.Bool("progress", false, "report per-point sweep progress (with per-cell ms) on stderr")
		timings  = fs.Bool("timings", false, "time the solve phases and append a wall-clock breakdown as comment lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	eng, err := common.Engine(*workers)
	if err != nil {
		return err
	}
	return common.Run(func(ctx context.Context, setup *aved.ObsSetup) error {
		if *progress {
			setup.Tracer = aved.TeeTracers(setup.Tracer, progressTracer(errw))
		}
		switch *fig {
		case 6:
			return fig6(ctx, out, *loads, *budgets, eng, setup, *timings)
		case 7:
			return fig7(ctx, out, *points, *workers, eng, setup, *timings)
		case 8:
			return fig8(ctx, out, *budgets, eng, setup, *timings)
		default:
			return fmt.Errorf("-fig must be 6, 7 or 8 (got %d)", *fig)
		}
	})
}

// progressTracer renders sweep.point events as one progress line each.
// Cells that rode the grid-aware scheduling append their reuse
// counters — frontiers served from the solver's walk and frontier memo,
// tier walks replayed from it, and warm replays of earlier cells' eval-cache entries — so a
// watcher sees the acceleration live; cold cells print unchanged.
func progressTracer(w io.Writer) aved.Tracer {
	return aved.TraceFunc(func(e aved.TraceEvent) {
		if e.Ev != aved.EvSweepPoint {
			return
		}
		if e.Err != "" {
			fmt.Fprintf(w, "point %d/%d: %s\n", e.Index, e.Total, e.Err)
			return
		}
		line := fmt.Sprintf("point %d/%d: cost %.0f (%.0f ms)", e.Index, e.Total, e.Cost, e.MS)
		if e.FrontierReuse > 0 {
			line += fmt.Sprintf(", %d frontier reuses", e.FrontierReuse)
		}
		if e.WalkReuse > 0 {
			line += fmt.Sprintf(", %d walk replays", e.WalkReuse)
		}
		if e.WarmReuse > 0 {
			line += fmt.Sprintf(", %d warm replays", e.WarmReuse)
		}
		fmt.Fprintln(w, line)
	})
}

func appTierSolver(engine aved.Engine, setup *aved.ObsSetup, timings bool) (*aved.Solver, error) {
	inf, svc, err := aved.PaperScenario("apptier")
	if err != nil {
		return nil, err
	}
	return aved.NewSolver(inf, svc, setup.Apply(aved.Options{Registry: aved.PaperRegistry(), Engine: engine, Timings: timings}))
}

// fig6 prints the optimal design family at every grid point of the
// (load, downtime budget) requirement plane, then each family curve.
func fig6(ctx context.Context, out io.Writer, loadPoints, budgetPoints int, engine aved.Engine, setup *aved.ObsSetup, timings bool) error {
	solver, err := appTierSolver(engine, setup, timings)
	if err != nil {
		return err
	}
	loadGrid, err := aved.LinGrid(400, 5000, loadPoints)
	if err != nil {
		return err
	}
	budgetGrid, err := aved.LogGrid(0.1, 10000, budgetPoints)
	if err != nil {
		return err
	}
	res, err := aved.SweepFig6(ctx, solver, loadGrid, budgetGrid)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Fig. 6 — optimal design for a range of service requirements")
	fmt.Fprintln(out, "# load\tbudget_min\tfamily\tstack\tdowntime_min\tcost\tn_active")
	for _, p := range res.Points {
		fmt.Fprintf(out, "%.0f\t%.3g\t%s\t%s\t%.3f\t%s\t%d\n",
			p.Load, p.BudgetMinutes, p.Family, p.Stack, p.DowntimeMinutes, p.Cost, p.NActive)
	}
	fmt.Fprintln(out, "\n# family curves (downtime estimate vs load), top to bottom")
	for i, c := range res.Curves {
		fmt.Fprintf(out, "# %d - %s, %s, %d, %d\n", i+1, c.Stack, c.Family.Mechanisms, c.Family.NExtra, c.Family.NSpare)
		for j := range c.Loads {
			fmt.Fprintf(out, "%.0f\t%.3f\n", c.Loads[j], c.Downtimes[j])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "# totals: %s\n", res.Totals)
	if timings {
		cli.PhaseComments(out, res.Totals.PhaseNanos)
	}
	return nil
}

// fig7 prints the optimal scientific design as a function of the
// job-completion-time requirement.
func fig7(ctx context.Context, out io.Writer, points, workers int, engine aved.Engine, setup *aved.ObsSetup, timings bool) error {
	inf, svc, err := aved.PaperScenario("scientific")
	if err != nil {
		return err
	}
	solver, err := aved.NewSolver(inf, svc, setup.Apply(aved.Options{
		Registry:        aved.PaperRegistry(),
		FixedMechanisms: aved.Bronze(),
		Workers:         workers,
		Engine:          engine,
		Timings:         timings,
	}))
	if err != nil {
		return err
	}
	grid, err := aved.LogGrid(1, 1000, points)
	if err != nil {
		return err
	}
	res, err := aved.SweepFig7(ctx, solver, grid)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Fig. 7 — optimal design as a function of execution time requirement")
	fmt.Fprintln(out, "# req_hours\tresource\tstack\tn\tspares\tckpt_hours\tlocation\tjob_hours\tcost")
	var tot aved.SweepTotals
	for _, p := range res.Points {
		fmt.Fprintf(out, "%.3g\t%s\t%s\t%d\t%d\t%.3f\t%s\t%.2f\t%s\n",
			p.RequirementHours, p.Resource, p.Stack, p.NActive, p.NSpare,
			p.CheckpointHours, p.StorageLocation, p.JobTimeHours, p.Cost)
		tot.Add(p.Stats)
	}
	for _, st := range res.InfeasibleStats {
		tot.AddInfeasible(st)
	}
	fmt.Fprintf(out, "# totals: %s\n", tot)
	if timings {
		cli.PhaseComments(out, tot.PhaseNanos)
	}
	return nil
}

// fig8 prints the cost premium curves for the paper's four loads.
func fig8(ctx context.Context, out io.Writer, budgetPoints int, engine aved.Engine, setup *aved.ObsSetup, timings bool) error {
	solver, err := appTierSolver(engine, setup, timings)
	if err != nil {
		return err
	}
	budgetGrid, err := aved.LogGrid(0.1, 100, budgetPoints)
	if err != nil {
		return err
	}
	loads := []float64{400, 800, 1600, 3200}
	curves, err := aved.SweepFig8(ctx, solver, loads, budgetGrid)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "# Fig. 8 — cost/availability/performance tradeoff (application tier)")
	fmt.Fprintln(out, "# load\tbudget_min\textra_cost\ttotal_cost\tbaseline_cost")
	var tot aved.SweepTotals
	for _, c := range curves {
		tot.Add(c.BaselineStats)
		for _, p := range c.Points {
			fmt.Fprintf(out, "%.0f\t%.3g\t%s\t%s\t%s\n",
				c.Load, p.BudgetMinutes, p.ExtraCost, p.TotalCost, c.BaselineCost)
			tot.Add(p.Stats)
		}
		for _, st := range c.InfeasibleStats {
			tot.AddInfeasible(st)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "# totals: %s\n", tot)
	if timings {
		cli.PhaseComments(out, tot.PhaseNanos)
	}
	return nil
}
