package aved_test

// The benchmark harness regenerates every evaluation artefact of the
// paper (see EXPERIMENTS.md for the paper-vs-measured record):
//
//	BenchmarkFig3Parse        — parsing/binding the Fig. 3 infrastructure spec
//	BenchmarkFig4Fig5Parse    — parsing/binding the Fig. 4/5 service specs
//	BenchmarkTable1Eval       — evaluating the Table 1 performance functions
//	BenchmarkFig6Point        — one optimal-design solve on the requirement plane
//	BenchmarkFig6Sweep        — a small Fig. 6 requirement-plane sweep
//	BenchmarkFig7Point        — one job-time solve (tight and relaxed)
//	BenchmarkFig7Sweep        — a small Fig. 7 sweep
//	BenchmarkFig8Curve        — one cost-premium curve
//	BenchmarkEngines          — Markov vs exact-transient vs simulation engines
//	BenchmarkEq1              — Eq. 1 closed form vs Monte-Carlo restart law
//	BenchmarkCombiners        — exact vs greedy multi-tier combination (ablation)
//	BenchmarkOverheadModels   — smooth vs literal-hinge Table 1 overhead (ablation)

import (
	"context"
	"testing"

	"aved"
	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/jobtime"
	"aved/internal/perf"
	"aved/internal/sim"
	"aved/internal/units"
)

func benchSolver(b *testing.B, scientific bool) *aved.Solver {
	b.Helper()
	return benchSolverWorkers(b, scientific, 0)
}

func benchSolverWorkers(b *testing.B, scientific bool, workers int) *aved.Solver {
	b.Helper()
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		b.Fatal(err)
	}
	var svc *aved.Service
	opts := aved.Options{Registry: aved.PaperRegistry(), Workers: workers}
	if scientific {
		svc, err = aved.PaperScientific(inf)
		opts.FixedMechanisms = aved.Bronze()
	} else {
		svc, err = aved.PaperApplicationTier(inf)
	}
	if err != nil {
		b.Fatal(err)
	}
	s, err := aved.NewSolver(inf, svc, opts)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig3Parse measures parsing and binding the paper's exact
// infrastructure specification.
func BenchmarkFig3Parse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := aved.LoadInfrastructure(aved.PaperInfrastructureSpec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Fig5Parse measures parsing and binding both service
// specifications.
func BenchmarkFig4Fig5Parse(b *testing.B) {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aved.LoadService(aved.PaperEcommerceSpec, inf); err != nil {
			b.Fatal(err)
		}
		if _, err := aved.LoadService(aved.PaperScientificSpec, inf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Eval measures the Table 1 performance functions over
// the ranges the examples exercise.
func BenchmarkTable1Eval(b *testing.B) {
	args := map[string]perf.Arg{
		"storage_location":    {Str: "central"},
		"checkpoint_interval": {Hours: 0.5, IsNum: true},
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 64; n *= 2 {
			sink += perf.PerfC.Throughput(n)
			sink += perf.PerfH.Throughput(n)
			f, err := perf.MPerfH.Factor(args, n)
			if err != nil {
				b.Fatal(err)
			}
			sink += f
		}
	}
	_ = sink
}

// BenchmarkFig6Point measures one requirement-plane solve — the unit
// of work behind every Fig. 6 cell.
func BenchmarkFig6Point(b *testing.B) {
	req := aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: aved.Minutes(100),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh solver per iteration measures uncached search cost.
		s := benchSolver(b, false)
		if _, err := s.Solve(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Sweep measures a reduced requirement-plane sweep (the
// full figure is the same work at a finer grid).
func BenchmarkFig6Sweep(b *testing.B) {
	loads := []float64{400, 1400, 3200, 5000}
	budgets := []float64{1, 10, 100, 1000, 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSolver(b, false)
		res, err := aved.SweepFig6(context.Background(), s, loads, budgets)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig7Point measures one job-time solve at a relaxed
// requirement (machineA region) and a tight one (machineB region).
func BenchmarkFig7Point(b *testing.B) {
	b.Run("relaxed-200h", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := benchSolver(b, true)
			if _, err := s.Solve(aved.Requirements{Kind: aved.ReqJob, MaxJobTime: aved.Hours(200)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tight-5h", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := benchSolver(b, true)
			if _, err := s.Solve(aved.Requirements{Kind: aved.ReqJob, MaxJobTime: aved.Hours(5)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7Sweep measures a reduced Fig. 7 sweep.
func BenchmarkFig7Sweep(b *testing.B) {
	reqs := []float64{20, 100, 500}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSolver(b, true)
		res, err := aved.SweepFig7(context.Background(), s, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig8Curve measures one cost-premium curve (load 1600).
func BenchmarkFig8Curve(b *testing.B) {
	budgets := []float64{0.5, 5, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchSolver(b, false)
		curves, err := aved.SweepFig8(context.Background(), s, []float64{1600}, budgets)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 1 {
			b.Fatal("bad sweep")
		}
	}
}

func benchTierModel() avail.TierModel {
	return avail.TierModel{
		Name: "application",
		N:    6,
		M:    5,
		S:    1,
		Modes: []avail.Mode{
			{Name: "machineA/hard", MTBF: 650 * units.Day, Repair: 38 * units.Hour,
				Failover: 6 * units.Minute, UsesFailover: true},
			{Name: "machineA/soft", MTBF: 75 * units.Day, Repair: units.Duration(270 * units.Second)},
			{Name: "linux/soft", MTBF: 60 * units.Day, Repair: 4 * units.Minute},
			{Name: "appserverA/soft", MTBF: 60 * units.Day, Repair: 2 * units.Minute},
		},
	}
}

// BenchmarkEngines compares the two availability engines (§4.2: the
// simplified Markov model vs the external-engine stand-in) on the same
// tier model.
func BenchmarkEngines(b *testing.B) {
	tm := benchTierModel()
	b.Run("markov", func(b *testing.B) {
		eng := avail.NewMarkovEngine()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate([]avail.TierModel{tm}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact", func(b *testing.B) {
		eng := avail.NewExactEngine()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate([]avail.TierModel{tm}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulation-100y", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := sim.NewEngine(int64(i), 100, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Evaluate([]avail.TierModel{tm}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEq1 compares the Eq. 1 closed form against the Monte-Carlo
// restart law it models.
func BenchmarkEq1(b *testing.B) {
	lw := units.FromHours(30)
	mtbf := units.FromHours(80)
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := jobtime.TLw(lw, mtbf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("monte-carlo-10k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.SimulateRestart(int64(i), 80, 30, 10000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("job-walk-1k", func(b *testing.B) {
		p := sim.JobParams{ComputeHours: 200, LossWindowHours: 2, MTBFHours: 100, OutageHours: 5}
		for i := 0; i < b.N; i++ {
			if _, err := sim.SimulateJob(int64(i), p, 1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMission measures the uniformization-based finite-horizon
// evaluation against the steady-state solve it converges to.
func BenchmarkMission(b *testing.B) {
	tm := benchTierModel()
	b.Run("steady", func(b *testing.B) {
		eng := avail.NewMarkovEngine()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate([]avail.TierModel{tm}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mission-1y", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := avail.MissionDowntime(&tm, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpareWarmth is the per-component spare-mode ablation: the
// §5.1-style cold-only search versus exploring warmth levels.
func BenchmarkSpareWarmth(b *testing.B) {
	req := aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: aved.Minutes(100),
	}
	run := func(b *testing.B, explore bool) {
		for i := 0; i < b.N; i++ {
			inf, err := aved.PaperInfrastructure()
			if err != nil {
				b.Fatal(err)
			}
			svc, err := aved.PaperApplicationTier(inf)
			if err != nil {
				b.Fatal(err)
			}
			s, err := aved.NewSolver(inf, svc, aved.Options{
				Registry:           aved.PaperRegistry(),
				ExploreSpareWarmth: explore,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Solve(req); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold-only", func(b *testing.B) { run(b, false) })
	b.Run("warmth-levels", func(b *testing.B) { run(b, true) })
}

// BenchmarkCombiners is the multi-tier combination ablation: the exact
// branch-and-bound combiner versus the paper-style greedy refinement,
// over the three-tier e-commerce service's frontiers.
func BenchmarkCombiners(b *testing.B) {
	frontiers := syntheticFrontiers()
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.CombineExact(frontiers, 120); !ok {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := core.CombineGreedy(frontiers, 120); !ok {
				b.Fatal("infeasible")
			}
		}
	})
}

// BenchmarkOverheadModels is the hinge-vs-smooth Table 1 ablation: the
// literal max(K/cpi, 100%) reading flattens the checkpoint-interval
// optimum; the smooth 1 + K/cpi form reproduces Fig. 7's growth.
func BenchmarkOverheadModels(b *testing.B) {
	args := map[string]perf.Arg{
		"storage_location":    {Str: "central"},
		"checkpoint_interval": {Hours: 0.4, IsNum: true},
	}
	b.Run("smooth", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			f, err := perf.MPerfH.Factor(args, 40)
			if err != nil {
				b.Fatal(err)
			}
			sink += f
		}
		_ = sink
	})
	b.Run("hinge", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			f, err := perf.MPerfHHinge.Factor(args, 40)
			if err != nil {
				b.Fatal(err)
			}
			sink += f
		}
		_ = sink
	})
}

// BenchmarkSimWorkers compares Monte-Carlo replication throughput with
// a single worker against the full pool. Replications draw from
// seed-derived streams, so the two produce bit-identical results; the
// parallel gain scales with available cores.
func BenchmarkSimWorkers(b *testing.B) {
	tm := benchTierModel()
	run := func(b *testing.B, workers int) {
		eng, err := aved.SimEngineAdaptive(7, 50, 32, workers, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate([]avail.TierModel{tm}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkFig7SweepWorkers compares the job-time sweep — every level
// an independent solve on a solver of its own — sequentially and across
// the pool. Fig. 6 and Fig. 8 grids run one goroutine at any worker
// count, so they have no such comparison.
func BenchmarkFig7SweepWorkers(b *testing.B) {
	reqs := []float64{20, 50, 100, 200, 500}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			s := benchSolverWorkers(b, true, workers)
			res, err := aved.SweepFig7(context.Background(), s, reqs)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// syntheticFrontiers builds three tier frontiers of realistic size for
// the combiner ablation.
func syntheticFrontiers() [][]core.TierCandidate {
	mk := func(base float64) []core.TierCandidate {
		out := make([]core.TierCandidate, 0, 12)
		cost, down := base, 2000.0
		for i := 0; i < 12; i++ {
			out = append(out, core.TierCandidate{Cost: units.Money(cost), DowntimeMinutes: down})
			cost *= 1.18
			down *= 0.45
		}
		return out
	}
	return [][]core.TierCandidate{mk(1000), mk(2500), mk(8000)}
}
