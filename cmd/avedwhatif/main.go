// Command avedwhatif runs sensitivity sweeps: it perturbs one
// infrastructure parameter family by a range of factors, re-solves a
// fixed requirement at every factor, and prints how the optimal design
// and its cost move — the re-evaluation loop a self-managing computing
// utility would run as conditions change (§1 of the paper).
//
// Usage:
//
//	avedwhatif -knob mtbf -target machineA -factors 0.5,1,2,4 -load 800 -downtime 2000m
//	avedwhatif -knob cost -target appserverA -factors 1,10 -load 1000 -downtime 100m
//	avedwhatif -knob mechcost -target maintenanceA -factors 1,5,20 -load 800 -downtime 2000m
//	avedwhatif -knob mtbf -factors 0.5,1,2 -jobtime 100h        # scientific scenario
//
// Knobs: mtbf (failure rates), cost (component prices), mechcost
// (mechanism cost tables). An empty -target applies mtbf/cost knobs to
// every component. Runs on the paper's built-in inputs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"aved"
	"aved/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "avedwhatif:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("avedwhatif", flag.ContinueOnError)
	common := cli.Register(fs, 32)
	var (
		knobName = fs.String("knob", "mtbf", "what to perturb: mtbf, cost or mechcost")
		target   = fs.String("target", "", "component or mechanism to perturb (empty = all, mtbf/cost only)")
		factors  = fs.String("factors", "0.5,1,2", "comma-separated perturbation factors")
		load     = fs.Float64("load", 0, "required throughput (enterprise)")
		downtime = fs.String("downtime", "", "max annual downtime, e.g. 2000m (enterprise)")
		jobTime  = fs.String("jobtime", "", "max expected job time, e.g. 100h (scientific scenario)")
		workers  = fs.Int("workers", 0, "factor and sim replication worker count: 0 = all CPUs, 1 = sequential (results are identical)")
		search   = fs.String("search", "bnb", "per-factor search strategy: bnb (branch-and-bound) or exhaustive (results are identical)")
		timings  = fs.Bool("timings", false, "time the solve phases and append a wall-clock breakdown as comment lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	facs, err := parseFactors(*factors)
	if err != nil {
		return err
	}
	knob, err := buildKnob(*knobName, *target)
	if err != nil {
		return err
	}
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		return err
	}
	cfg := aved.SensitivityConfig{Registry: aved.PaperRegistry()}
	switch {
	case *jobTime != "":
		d, err := aved.ParseDuration(*jobTime)
		if err != nil {
			return fmt.Errorf("-jobtime: %w", err)
		}
		cfg.ServiceSpec = aved.PaperScientificSpec
		cfg.SolverOptions = aved.Options{FixedMechanisms: aved.Bronze()}
		cfg.Requirement = aved.Requirements{Kind: aved.ReqJob, MaxJobTime: d}
	case *downtime != "":
		d, err := aved.ParseDuration(*downtime)
		if err != nil {
			return fmt.Errorf("-downtime: %w", err)
		}
		if *load <= 0 {
			return errors.New("enterprise requirements need -load > 0")
		}
		// The §5.1 application-tier scenario.
		cfg.ServiceSpec = applicationTierSpec
		cfg.Requirement = aved.Requirements{
			Kind:              aved.ReqEnterprise,
			Throughput:        *load,
			MaxAnnualDowntime: d,
		}
	default:
		return errors.New("need -downtime (with -load) or -jobtime")
	}
	// The precision knobs are baked into the engine here rather than
	// passed via SolverOptions: every factor's solver shares this one
	// engine, and a pre-configured engine is safe to share (Evaluate
	// only reads it).
	cfg.SolverOptions.Engine, err = common.Engine(*workers)
	if err != nil {
		return err
	}
	cfg.SolverOptions.Workers = *workers
	cfg.SolverOptions.Timings = *timings
	cfg.SolverOptions.Search, err = aved.ParseSearchMode(*search)
	if err != nil {
		return err
	}
	return common.Run(func(ctx context.Context, setup *aved.ObsSetup) error {
		cfg.SolverOptions = setup.Apply(cfg.SolverOptions)
		points, err := aved.SensitivitySweep(ctx, inf, cfg, knob, facs)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# what-if: knob=%s target=%q\n", *knobName, *target)
		fmt.Fprintln(out, "# factor\tcost\tdowntime_min\tjob_hours\tdesign")
		var tot aved.SweepTotals
		for _, p := range points {
			if p.Infeasible {
				tot.Infeasible++
				fmt.Fprintf(out, "%g\t-\t-\t-\t(infeasible)\n", p.Factor)
				continue
			}
			tot.Add(p.Stats)
			fmt.Fprintf(out, "%g\t%s\t%.1f\t%.1f\t%s\n",
				p.Factor, p.Cost, p.DowntimeMinutes, p.JobTimeHours, p.Label)
		}
		fmt.Fprintf(out, "# totals: %s\n", tot)
		if *timings {
			cli.PhaseComments(out, tot.PhaseNanos)
		}
		return nil
	})
}

// applicationTierSpec mirrors the built-in §5.1 scenario; the sweep
// binds the service against each perturbed infrastructure, so the spec
// text is what it needs.
const applicationTierSpec = `
application=whatif-apptier
tier=application
  resource=rC sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfC.dat
  resource=rD sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfD.dat
  resource=rE sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfE.dat
  resource=rF sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfF.dat
`

func parseFactors(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-factors: %w", err)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, errors.New("-factors: need at least one factor")
	}
	return out, nil
}

func buildKnob(name, target string) (aved.SensitivityKnob, error) {
	switch name {
	case "mtbf":
		return aved.ScaleMTBF(target), nil
	case "cost":
		return aved.ScaleCost(target), nil
	case "mechcost":
		if target == "" {
			return nil, errors.New("-knob mechcost needs a -target mechanism")
		}
		return aved.ScaleMechanismCost(target), nil
	default:
		return nil, fmt.Errorf("unknown -knob %q (want mtbf, cost or mechcost)", name)
	}
}
