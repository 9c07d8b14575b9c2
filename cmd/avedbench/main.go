// Command avedbench measures the parallel evaluation layer against its
// sequential baseline and emits the comparison as JSON — the record
// behind results/BENCH_parallel.json. Each benchmark runs the same
// workload twice, with Workers=1 and with the full pool, via
// testing.Benchmark; because every parallel path is bit-identical to
// the sequential one, the two runs do the same work and the ratio is a
// pure scheduling speedup. Alongside the timings it reports allocations
// per op and, for the sweep workload, the cache-effectiveness
// counters: engine evaluations admitted by the fingerprint cache versus
// Markov chains actually solved under the engine's mode memo.
//
// The -mode sim suite (sim.go) instead profiles the Monte-Carlo
// simulator fast path: fixed-budget sequential vs pooled replications
// and the adaptive-precision controller, behind
// results/BENCH_sim.json.
//
// The -mode bnb suite (bnb.go) records the branch-and-bound search
// effort against the exhaustive reference walk, plus the warm-start
// payoff of what-if re-solves, behind results/BENCH_bnb.json.
//
// The -mode sweep suite (sweep.go) records the grid-aware sweep
// scheduling — budget-chain warm seeding plus per-chain frontier sets —
// against per-cell cold solves of the same Fig 6 and Fig 8 grids,
// behind results/BENCH_sweep.json.
//
// The -mode corpus suite (corpus.go) records per-family solve times and
// search effort over the scenario corpus engine's generated workloads
// (web, batch, telco, storage), failing on any bnb-vs-exhaustive
// divergence, behind results/BENCH_corpus.json. -corpus-per-family
// sizes it.
//
// Usage:
//
//	avedbench                   # JSON to stdout
//	avedbench -o results/BENCH_parallel.json
//	avedbench -mode sim -o results/BENCH_sim.json
//	avedbench -mode bnb -o results/BENCH_bnb.json
//	avedbench -mode sweep -o results/BENCH_sweep.json
//	avedbench -mode corpus -o results/BENCH_corpus.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"aved"
	"aved/internal/avail"
	"aved/internal/units"
)

type benchResult struct {
	Name              string `json:"name"`
	SequentialNsPerOp int64  `json:"sequential_ns_per_op"`
	ParallelNsPerOp   int64  `json:"parallel_ns_per_op"`
	// AllocsPerOp are from the parallel run (the production shape).
	SequentialAllocsPerOp int64         `json:"sequential_allocs_per_op"`
	ParallelAllocsPerOp   int64         `json:"parallel_allocs_per_op"`
	Speedup               float64       `json:"speedup"`
	Counters              *evalCounters `json:"counters,omitempty"`
}

// evalCounters records how much evaluation work one instrumented run of
// the workload performs at each cache level: engine evaluations are the
// designs the fingerprint cache admitted (Stats.Evaluations, summed
// over completed solves); each one demands a chain per failure mode
// (mode_evaluations in total), of which the engine's memo actually
// solved only chain_solves — the rest were memo hits. chain_solves
// falling well below mode_evaluations is the second cache level
// working. The counters come from the observability layer — solver
// stats, engine memo counters and a metrics registry — cross-checked
// against each other.
type evalCounters struct {
	EngineEvaluations uint64  `json:"engine_evaluations"`
	ModeEvaluations   uint64  `json:"mode_evaluations"`
	ChainSolves       uint64  `json:"chain_solves"`
	ModeMemoHits      uint64  `json:"mode_memo_hits"`
	MemoHitRate       float64 `json:"memo_hit_rate"`
}

type benchReport struct {
	hostInfo
	Benchmarks []benchResult `json:"benchmarks"`
}

// newEvalCounters folds the memo counters into the JSON shape.
func newEvalCounters(engineEvals, hits, solves uint64) *evalCounters {
	c := &evalCounters{
		EngineEvaluations: engineEvals,
		ModeEvaluations:   hits + solves,
		ChainSolves:       solves,
		ModeMemoHits:      hits,
	}
	if c.ModeEvaluations > 0 {
		c.MemoHitRate = float64(hits) / float64(c.ModeEvaluations)
	}
	return c
}

func main() {
	out := flag.String("o", "", "write JSON here instead of stdout")
	mode := flag.String("mode", "parallel", "benchmark suite: parallel (results/BENCH_parallel.json), sim (results/BENCH_sim.json), bnb (results/BENCH_bnb.json), sweep (results/BENCH_sweep.json) or corpus (results/BENCH_corpus.json)")
	corpusPerFamily := flag.Int("corpus-per-family", 25, "scenarios per workload family for -mode corpus")
	flag.Parse()
	// Benchmark at full parallelism even when the environment pinned
	// GOMAXPROCS down (the bug behind a recorded gomaxprocs of 1).
	if runtime.GOMAXPROCS(0) < runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	var err error
	switch *mode {
	case "parallel":
		err = run(*out)
	case "sim":
		err = runSim(*out)
	case "bnb":
		err = runBnB(*out)
	case "sweep":
		err = runSweep(*out)
	case "corpus":
		err = runCorpus(*out, *corpusPerFamily)
	default:
		err = fmt.Errorf("unknown -mode %q (want parallel, sim, bnb, sweep or corpus)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "avedbench:", err)
		os.Exit(1)
	}
}

func run(outPath string) error {
	cases := []struct {
		name     string
		fn       func(workers int) func(b *testing.B)
		counters func() (*evalCounters, error)
	}{
		{"sim-replications", simBench, nil},
		{"fig6-sweep", fig6Bench, fig6Counters},
	}
	rep := benchReport{hostInfo: stampHost()}
	for _, c := range cases {
		seq := testing.Benchmark(c.fn(1))
		par := testing.Benchmark(c.fn(0))
		r := benchResult{
			Name:                  c.name,
			SequentialNsPerOp:     seq.NsPerOp(),
			ParallelNsPerOp:       par.NsPerOp(),
			SequentialAllocsPerOp: seq.AllocsPerOp(),
			ParallelAllocsPerOp:   par.AllocsPerOp(),
		}
		if r.ParallelNsPerOp > 0 {
			r.Speedup = float64(r.SequentialNsPerOp) / float64(r.ParallelNsPerOp)
		}
		if c.counters != nil {
			counters, err := c.counters()
			if err != nil {
				return fmt.Errorf("%s counters: %w", c.name, err)
			}
			r.Counters = counters
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
		fmt.Fprintf(os.Stderr, "%-18s sequential %12d ns/op  parallel %12d ns/op  speedup %.2fx\n",
			c.name, r.SequentialNsPerOp, r.ParallelNsPerOp, r.Speedup)
		if r.Counters != nil {
			fmt.Fprintf(os.Stderr, "%-18s evaluations %d  mode evals %d  chain solves %d  hit rate %.0f%%\n",
				"", r.Counters.EngineEvaluations, r.Counters.ModeEvaluations,
				r.Counters.ChainSolves, 100*r.Counters.MemoHitRate)
		}
	}
	return writeReport(outPath, &rep)
}

// simBench: Monte-Carlo replications of the §5.1-style tier model.
func simBench(workers int) func(b *testing.B) {
	tm := avail.TierModel{
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
	return func(b *testing.B) {
		eng, err := aved.SimEngineWorkers(7, 50, 32, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Evaluate([]avail.TierModel{tm}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ecommerceSolver builds a fresh three-tier e-commerce solver.
func ecommerceSolver(workers int, engine aved.Engine, metrics *aved.Metrics) (*aved.Solver, error) {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		return nil, err
	}
	svc, err := aved.PaperEcommerce(inf)
	if err != nil {
		return nil, err
	}
	return aved.NewSolver(inf, svc, aved.Options{
		Registry: aved.PaperRegistry(), Workers: workers, Engine: engine, Metrics: metrics,
	})
}

var ecommerceReq = aved.Requirements{
	Kind:              aved.ReqEnterprise,
	Throughput:        2000,
	MaxAnnualDowntime: aved.Minutes(60),
}

var (
	fig6Loads   = []float64{400, 1400, 3200, 5000}
	fig6Budgets = []float64{1, 10, 100, 1000, 10000}
)

// fig6Solver builds a fresh application-tier solver for the sweep.
func fig6Solver(workers int, engine aved.Engine, metrics *aved.Metrics) (*aved.Solver, error) {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		return nil, err
	}
	svc, err := aved.PaperApplicationTier(inf)
	if err != nil {
		return nil, err
	}
	return aved.NewSolver(inf, svc, aved.Options{
		Registry: aved.PaperRegistry(), Workers: workers, Engine: engine, Metrics: metrics,
	})
}

// fig6Bench: a reduced Fig. 6 requirement-plane sweep.
func fig6Bench(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := fig6Solver(workers, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			res, err := aved.SweepFig6(context.Background(), s, fig6Loads, fig6Budgets)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Points) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}
}

// fig6Counters instruments one full sweep: evaluations from the
// per-point stats totals, memo counters from the engine lifetime,
// cross-checked against a metrics registry snapshot. Sequential so the
// recorded counters are exactly reproducible — under parallel sweeps
// the split of shared-cache work between cells is scheduling-dependent.
func fig6Counters() (*evalCounters, error) {
	eng := avail.NewMarkovEngine()
	reg := aved.NewMetrics()
	s, err := fig6Solver(1, eng, reg)
	if err != nil {
		return nil, err
	}
	res, err := aved.SweepFig6(context.Background(), s, fig6Loads, fig6Budgets)
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core.evaluations"]; got != res.Totals.Evaluations {
		return nil, fmt.Errorf("registry counts %d evaluations but the sweep totals report %d",
			got, res.Totals.Evaluations)
	}
	hits, solves := eng.MemoStats()
	if got := snap.Counters["avail.memo.solves"]; got != int64(solves) {
		return nil, fmt.Errorf("registry counts %d chain solves but the engine reports %d", got, solves)
	}
	return newEvalCounters(uint64(res.Totals.Evaluations), hits, solves), nil
}
