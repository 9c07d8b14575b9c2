// Command aved solves one automated-design problem: given an
// infrastructure spec, a service spec and service requirements, it
// prints the minimum-cost design that satisfies them.
//
// Usage:
//
//	aved -infra infra.spec -service service.spec -load 1000 -downtime 100m
//	aved -infra infra.spec -service scientific.spec -jobtime 50h -bronze
//	aved -infra infra.spec -service service.spec   # requirements clause in the spec
//	aved -paper apptier -load 1000 -downtime 100m
//	aved -paper scientific -jobtime 50h -bronze -json
//
// When no requirement flags are given the service spec's own
// requirements clause is used, which is the only way to express
// traffic(hour)= curves and degraded_throughput= SLOs on the CLI.
//
// The -paper flag substitutes the built-in Fig. 3/4/5 inputs:
// "apptier" (§5.1), "ecommerce" (Fig. 4) or "scientific" (Fig. 5).
// Performance references resolve from the built-in Table 1 functions
// plus .dat tables in the directory given by -perfdir.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"aved"
	"aved/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aved:", err)
		os.Exit(1)
	}
}

type designReport struct {
	Label           string   `json:"label"`
	CostPerYear     float64  `json:"costPerYear"`
	DowntimeMinutes float64  `json:"downtimeMinutes,omitempty"`
	JobTimeHours    float64  `json:"jobTimeHours,omitempty"`
	Tiers           []tierJS `json:"tiers"`
	Candidates      int      `json:"candidatesGenerated"`
	CostPruned      int      `json:"costPruned"`
	BoundPruned     int      `json:"boundPruned"`
	Evaluations     int      `json:"availabilityEvaluations"`
	EvalCacheHits   int      `json:"evalCacheHits"`
	WarmStartReuse  int      `json:"warmStartReuse,omitempty"`
	MemoHits        uint64   `json:"modeMemoHits,omitempty"`
	MemoSolves      uint64   `json:"modeMemoSolves,omitempty"`
	SimReplications uint64   `json:"simReplications,omitempty"`
	// PhaseNanos is the -timings wall-clock breakdown: "bind" (model
	// load and solver construction, timed here) plus the solver's own
	// phases. Entries overlap, so they do not sum to the elapsed time.
	PhaseNanos map[string]int64 `json:"phaseNanos,omitempty"`
}

type tierJS struct {
	Tier       string            `json:"tier"`
	Resource   string            `json:"resource"`
	Actives    int               `json:"actives"`
	Spares     int               `json:"spares"`
	SpareMode  string            `json:"spareMode,omitempty"`
	Mechanisms map[string]string `json:"mechanisms,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aved", flag.ContinueOnError)
	common := cli.Register(fs, 32)
	var (
		infraPath   = fs.String("infra", "", "infrastructure spec file (Fig. 3 format)")
		servicePath = fs.String("service", "", "service spec file (Fig. 4/5 format)")
		paper       = fs.String("paper", "", "built-in scenario: apptier, ecommerce or scientific")
		perfDir     = fs.String("perfdir", "", "directory with .dat performance tables")
		load        = fs.Float64("load", 0, "required throughput in service units (enterprise)")
		downtime    = fs.String("downtime", "", "max annual downtime, e.g. 100m or 2h (enterprise)")
		jobTime     = fs.String("jobtime", "", "max expected job completion time, e.g. 50h (jobs)")
		bronze      = fs.Bool("bronze", false, "pin maintenance contracts to bronze (the §5.2 setup)")
		asJSON      = fs.Bool("json", false, "emit JSON instead of text")
		exportPath  = fs.String("export", "", "also write the design's availability model to this file")
		verbose     = fs.Bool("verbose", false, "append a full cost and downtime breakdown")
		warmSpares  = fs.Bool("warmspares", false, "explore per-component spare operational modes (warmth levels)")
		describe    = fs.Bool("describe", false, "print a model inventory and design-space size estimate, then exit")
		workers     = fs.Int("workers", 0, "Monte-Carlo replication worker count for -engine sim: 0 = all CPUs, 1 = sequential (results are identical); the search itself runs on one goroutine")
		searchName  = fs.String("search", "bnb", "search strategy: bnb (branch-and-bound) or exhaustive (results are identical)")
		timings     = fs.Bool("timings", false, "time the solve phases and print a wall-clock breakdown table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	bindStart := time.Now()
	inf, svc, reg, err := loadModels(*paper, *infraPath, *servicePath, *perfDir)
	if err != nil {
		return err
	}
	bindNs := time.Since(bindStart).Nanoseconds()
	if *describe {
		return aved.DescribeModel(out, inf, svc, 0)
	}
	engine, err := common.Engine(*workers)
	if err != nil {
		return err
	}
	search, err := aved.ParseSearchMode(*searchName)
	if err != nil {
		return err
	}
	opts := aved.Options{Registry: reg, ExploreSpareWarmth: *warmSpares, Engine: engine, Search: search, Timings: *timings}
	if *bronze {
		opts.FixedMechanisms = aved.Bronze()
	}
	return common.Run(func(ctx context.Context, setup *aved.ObsSetup) error {
		bindStart = time.Now()
		solver, err := aved.NewSolver(inf, svc, setup.Apply(opts))
		if err != nil {
			return err
		}
		bindNs += time.Since(bindStart).Nanoseconds()

		req, err := buildRequirements(svc, *load, *downtime, *jobTime)
		if err != nil {
			return err
		}
		sol, err := solver.SolveContext(ctx, req)
		if err != nil {
			var infErr *aved.InfeasibleError
			if errors.As(err, &infErr) {
				return fmt.Errorf("infeasible: %v", err)
			}
			var canErr *aved.CanceledError
			if errors.As(err, &canErr) {
				return fmt.Errorf("%w (after %d candidates, %d evaluations)",
					err, canErr.Stats.CandidatesGenerated, canErr.Stats.Evaluations)
			}
			return err
		}
		if *exportPath != "" {
			f, err := os.Create(*exportPath)
			if err != nil {
				return err
			}
			if err := aved.WriteAvailabilityModel(f, &sol.Design); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return report(out, sol, req, *asJSON, *verbose, *timings, bindNs)
	})
}

func loadModels(paper, infraPath, servicePath, perfDir string) (*aved.Infrastructure, *aved.Service, *aved.Registry, error) {
	reg := aved.PaperRegistry()
	if perfDir != "" {
		reg.Dir = perfDir
	}
	if paper != "" {
		inf, svc, err := aved.PaperScenario(paper)
		return inf, svc, reg, err
	}
	if infraPath == "" || servicePath == "" {
		return nil, nil, nil, errors.New("need -infra and -service files, or a -paper scenario")
	}
	inf, err := aved.LoadInfrastructureFile(infraPath)
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := aved.LoadServiceFile(servicePath, inf)
	if err != nil {
		return nil, nil, nil, err
	}
	return inf, svc, reg, nil
}

// buildRequirements resolves the requirement flags; when none are
// given it falls back to the service spec's own requirements clause
// (traffic curves, degraded-throughput SLOs and job deadlines all
// survive that path — flags can only express the scalar forms).
func buildRequirements(svc *aved.Service, load float64, downtime, jobTime string) (aved.Requirements, error) {
	switch {
	case jobTime != "":
		d, err := aved.ParseDuration(jobTime)
		if err != nil {
			return aved.Requirements{}, fmt.Errorf("-jobtime: %w", err)
		}
		return aved.Requirements{Kind: aved.ReqJob, MaxJobTime: d}, nil
	case downtime != "":
		d, err := aved.ParseDuration(downtime)
		if err != nil {
			return aved.Requirements{}, fmt.Errorf("-downtime: %w", err)
		}
		if load <= 0 {
			return aved.Requirements{}, errors.New("enterprise requirements need -load > 0")
		}
		return aved.Requirements{Kind: aved.ReqEnterprise, Throughput: load, MaxAnnualDowntime: d}, nil
	default:
		if svc != nil && svc.Reqs != nil {
			return *svc.Reqs, nil
		}
		return aved.Requirements{}, errors.New("need -downtime (with -load) or -jobtime, or a requirements clause in the service spec")
	}
}

func report(out io.Writer, sol *aved.Solution, req aved.Requirements, asJSON, verbose, timings bool, bindNs int64) error {
	rep := designReport{
		Label:           sol.Design.Label(),
		CostPerYear:     float64(sol.Cost),
		Candidates:      sol.Stats.CandidatesGenerated,
		CostPruned:      sol.Stats.CostPruned,
		BoundPruned:     sol.Stats.BoundPruned,
		Evaluations:     sol.Stats.Evaluations,
		EvalCacheHits:   sol.Stats.EvalCacheHits,
		WarmStartReuse:  sol.Stats.WarmStartReuse,
		MemoHits:        sol.Stats.ModeMemoHits,
		MemoSolves:      sol.Stats.ModeMemoSolves,
		SimReplications: sol.Stats.SimReplications,
	}
	if timings {
		pn := map[string]int64{"bind": bindNs}
		for phase, ns := range sol.Stats.PhaseNanos {
			pn[phase] = ns
		}
		rep.PhaseNanos = pn
	}
	if req.Kind == aved.ReqEnterprise {
		rep.DowntimeMinutes = sol.DowntimeMinutes
	} else {
		rep.JobTimeHours = sol.JobTime.Hours()
	}
	for i := range sol.Design.Tiers {
		td := &sol.Design.Tiers[i]
		tj := tierJS{
			Tier:       td.TierName,
			Resource:   td.Resource().Name,
			Actives:    td.NActive,
			Spares:     td.NSpare,
			Mechanisms: map[string]string{},
		}
		if td.NSpare > 0 {
			switch td.SpareWarm {
			case 0:
				tj.SpareMode = "cold"
			case len(td.Resource().Components):
				tj.SpareMode = "hot"
			default:
				tj.SpareMode = fmt.Sprintf("warm%d", td.SpareWarm)
			}
		}
		for _, ms := range td.Mechanisms {
			for name, v := range ms.Values {
				tj.Mechanisms[ms.Mechanism.Name+"."+name] = v.String()
			}
		}
		rep.Tiers = append(rep.Tiers, tj)
	}
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "optimal design: %s\n", rep.Label)
	fmt.Fprintf(out, "annual cost: %s\n", sol.Cost)
	if req.Kind == aved.ReqEnterprise {
		fmt.Fprintf(out, "expected annual downtime: %.2f minutes\n", rep.DowntimeMinutes)
	} else {
		fmt.Fprintf(out, "expected job completion time: %.2f hours\n", rep.JobTimeHours)
	}
	fmt.Fprintf(out, "search: %d candidates, %d cost-pruned, %d bound-pruned, %d availability evaluations, %d cache hits\n",
		rep.Candidates, rep.CostPruned, rep.BoundPruned, rep.Evaluations, rep.EvalCacheHits)
	if rep.WarmStartReuse != 0 {
		fmt.Fprintf(out, "warm start: %d evaluations reused from earlier solves\n", rep.WarmStartReuse)
	}
	if rep.MemoHits != 0 || rep.MemoSolves != 0 {
		fmt.Fprintf(out, "engine: %d memo hits, %d chain solves\n", rep.MemoHits, rep.MemoSolves)
	}
	if rep.SimReplications != 0 {
		fmt.Fprintf(out, "engine: %d sim replications\n", rep.SimReplications)
	}
	if timings {
		aved.WritePhaseTable(out, rep.PhaseNanos)
	}
	if verbose {
		fmt.Fprintln(out)
		return aved.WriteDesignReport(out, &sol.Design, nil)
	}
	return nil
}
