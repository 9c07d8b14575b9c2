package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/perf"
	"aved/internal/scenarios"
	"aved/internal/sweep"
	"aved/internal/units"
)

// sweepGrid is the avedsweep surface: one operation is one round of
// three requirement-grid sweeps — Fig 6 on the §5.1 application tier,
// then Fig 6 and Fig 8 on Fig 4 e-commerce — each on a fresh solver at
// the default worker count. The models are bound once in set-up, so a
// round is search and sweep scheduling plus the engine.
//
// Where a grid's cells fall relative to the design-family boundaries
// sets how much a round costs, so a seed draws not one grid but
// offsets: offsets grids, each shifted by its own fraction of a log
// step, stratified so that together they cover the whole step. Rounds
// cycle through them.
type sweepGrid struct {
	points  int // grid points per axis
	offsets int // jittered grids per seed
	workers int
}

// cellKey identifies one grid cell.
type cellKey struct{ load, budget float64 }

// cellAnswer is the reference answer of one enterprise cell: the
// exhaustive solve, reduced to what the sweeps report.
type cellAnswer struct {
	feasible bool
	family   sweep.Family
	stack    string
	nActive  int
	cost     units.Money
	down     float64
}

// gridRun is one sweep of the round and its reference answers.
type gridRun struct {
	name string // per-layer metric suffix
	fig  int    // 6 or 8
	svc  *model.Service
	want map[cellKey]cellAnswer
	// base holds the Fig 8 baseline (whole-year budget) cost per load.
	base map[float64]units.Money
}

// gridSet is one jittered grid and the round's three sweeps over it.
type gridSet struct {
	loads, budgets []float64
	runs           []*gridRun
}

type sweepInst struct {
	sweepGrid
	inf  *model.Infrastructure
	reg  *perf.Registry
	sets []*gridSet
	next int // the set the next round sweeps
}

// jitteredLogGrid spaces n points logarithmically over [lo, hi), all
// shifted by the same fraction u ∈ [0, 1) of one log step.
func jitteredLogGrid(lo, hi float64, n int, u float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, (float64(i)+u)/float64(n))
	}
	return out
}

func (g sweepGrid) setup(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	inf, err := scenarios.Infrastructure()
	if err != nil {
		return nil, err
	}
	app, err := scenarios.ApplicationTier(inf)
	if err != nil {
		return nil, err
	}
	ecom, err := scenarios.Ecommerce(inf)
	if err != nil {
		return nil, err
	}
	in := &sweepInst{sweepGrid: g, inf: inf, reg: scenarios.Registry()}
	// Latin-hypercube offsets: set k takes the k-th stratum of the load
	// step and a seeded permutation's k-th stratum of the budget step.
	uLoad, uBudget, perm := rng.Float64(), rng.Float64(), rng.Perm(g.offsets)
	for k := 0; k < g.offsets; k++ {
		set := &gridSet{
			loads:   jitteredLogGrid(200, 6000, g.points, (float64(k)+uLoad)/float64(g.offsets)),
			budgets: jitteredLogGrid(1, 10000, g.points, (float64(perm[k])+uBudget)/float64(g.offsets)),
		}
		appWant, _, err := in.reference(set, app, false)
		if err != nil {
			return nil, err
		}
		ecomWant, ecomBase, err := in.reference(set, ecom, true)
		if err != nil {
			return nil, err
		}
		set.runs = []*gridRun{
			{name: "fig6-apptier", fig: 6, svc: app, want: appWant},
			{name: "fig6-ecommerce", fig: 6, svc: ecom, want: ecomWant},
			{name: "fig8-ecommerce", fig: 8, svc: ecom, want: ecomWant, base: ecomBase},
		}
		in.sets = append(in.sets, set)
	}
	// Warm-up: one round on every set, which must already be right.
	rc := newRunCtx(config{})
	for range in.sets {
		if err := in.round(rc, false); err != nil {
			return nil, err
		}
	}
	if rc.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", rc.failures[0])
	}
	return in, nil
}

// reference solves every cell of the set's grid — and with baseline,
// each load's whole-year budget — with the exhaustive search on one
// worker.
func (in *sweepInst) reference(set *gridSet, svc *model.Service, baseline bool) (map[cellKey]cellAnswer, map[float64]units.Money, error) {
	s, err := core.NewSolver(in.inf, svc, core.Options{Registry: in.reg, Search: core.SearchExhaustive, Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	solve := func(load, budget float64) (cellAnswer, error) {
		sol, err := s.Solve(model.Requirements{
			Kind:              model.ReqEnterprise,
			Throughput:        load,
			MaxAnnualDowntime: units.Duration(budget * float64(units.Minute)),
		})
		if a, err := answerOf(sol, err); err != nil || !a.feasible {
			return cellAnswer{}, err
		}
		td := &sol.Design.Tiers[0]
		return cellAnswer{feasible: true, family: sweep.FamilyOf(td), stack: sweep.Stack(td),
			nActive: td.NActive, cost: sol.Cost, down: sol.DowntimeMinutes}, nil
	}
	want := map[cellKey]cellAnswer{}
	base := map[float64]units.Money{}
	for _, load := range set.loads {
		for _, budget := range set.budgets {
			a, err := solve(load, budget)
			if err != nil {
				return nil, nil, fmt.Errorf("reference %s at load %v budget %v: %w", svc.Name, load, budget, err)
			}
			want[cellKey{load, budget}] = a
		}
		if baseline {
			a, err := solve(load, avail.MinutesPerYear)
			if err != nil || !a.feasible {
				return nil, nil, fmt.Errorf("reference %s baseline at load %v: feasible %v, %v", svc.Name, load, a.feasible, err)
			}
			base[load] = a.cost
		}
	}
	return want, base, nil
}

func (in *sweepInst) close() {}

func (in *sweepInst) run(rc *runCtx) error {
	return closedLoop(rc, func(traced bool) (int, error) {
		for range in.sets {
			if err := in.round(rc, traced); err != nil {
				return 0, err
			}
		}
		return len(in.sets), nil
	})
}

// round runs the next set's three sweeps as one operation.
func (in *sweepInst) round(rc *runCtx, traced bool) error {
	t := rc.tally
	set := in.sets[in.next%len(in.sets)]
	in.next++
	c0, t0 := cpuNow(), now()
	var (
		parts    []part
		firstErr error
	)
	for _, g := range set.runs {
		opts := t.options(core.Options{Registry: in.reg, Workers: in.workers}, traced)
		a := now()
		solver, err := core.NewSolver(in.inf, g.svc, opts)
		if err != nil {
			return fmt.Errorf("%s: solver: %w", g.name, err)
		}
		b := now()
		st, cells, infeasible, err := sweepOnce(set, g, solver)
		c := now()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", g.name, err)
		}
		if !traced {
			continue
		}
		availWall := t.engineCalls(b, c)
		t.add("core.new_solver_us", float64(b-a)/1e3)
		t.add("core.solve_us", float64(c-b)/1e3)
		t.add("core.self_us", float64(c-b-availWall)/1e3)
		t.add("sweep.grid_ms."+g.name, float64(c-b)/1e6)
		t.add("sweep.cells", float64(cells))
		t.add("sweep.infeasible_cells", float64(infeasible))
		t.addStats(st)
		parts = append(parts,
			part{"core.new_solver", b - a},
			part{"sweep+core", c - b - availWall},
			part{"avail", availWall})
	}
	end, c1 := now(), cpuNow()
	rc.op(time.Duration(c1-c0), firstErr)
	if traced {
		t.op(ledger{wall: end - t0, parts: parts})
	}
	return nil
}

// sweepOnce runs one sweep over set's grid and checks every cell
// against the reference. It returns the summed effort, the number of
// cells solved and how many of them were infeasible.
func sweepOnce(set *gridSet, g *gridRun, solver *core.Solver) (core.Stats, int, int, error) {
	ctx := context.Background()
	var st core.Stats
	wantFeasible := 0
	for _, a := range g.want {
		if a.feasible {
			wantFeasible++
		}
	}
	total := len(set.loads) * len(set.budgets)
	if g.fig == 6 {
		res, err := sweep.Fig6(ctx, solver, set.loads, set.budgets)
		if err != nil {
			return st, 0, 0, err
		}
		for _, p := range res.Points {
			addStats(&st, p.Stats)
			want := g.want[cellKey{p.Load, p.BudgetMinutes}]
			got := cellAnswer{feasible: true, family: p.Family, stack: p.Stack, nActive: p.NActive,
				cost: p.Cost, down: p.DowntimeMinutes}
			if got != want {
				return st, 0, 0, fmt.Errorf("load %v budget %v: got %+v, want %+v", p.Load, p.BudgetMinutes, got, want)
			}
		}
		if len(res.Points) != wantFeasible || res.Totals.Infeasible != total-wantFeasible {
			return st, 0, 0, fmt.Errorf("%d feasible and %d infeasible cells, want %d and %d",
				len(res.Points), res.Totals.Infeasible, wantFeasible, total-wantFeasible)
		}
		return st, total, res.Totals.Infeasible, nil
	}
	curves, err := sweep.Fig8(ctx, solver, set.loads, set.budgets)
	if err != nil {
		return st, 0, 0, err
	}
	points := 0
	for _, c := range curves {
		addStats(&st, c.BaselineStats)
		if c.BaselineCost != g.base[c.Load] {
			return st, 0, 0, fmt.Errorf("load %v: baseline cost %v, want %v", c.Load, c.BaselineCost, g.base[c.Load])
		}
		for _, p := range c.Points {
			addStats(&st, p.Stats)
			want := g.want[cellKey{c.Load, p.BudgetMinutes}]
			if !want.feasible || p.TotalCost != want.cost || p.ExtraCost != want.cost-g.base[c.Load] {
				return st, 0, 0, fmt.Errorf("load %v budget %v: cost %v (+%v), want %+v",
					c.Load, p.BudgetMinutes, p.TotalCost, p.ExtraCost, want)
			}
			points++
		}
	}
	if len(curves) != len(set.loads) || points != wantFeasible {
		return st, 0, 0, fmt.Errorf("%d curves with %d feasible points, want %d and %d",
			len(curves), points, len(set.loads), wantFeasible)
	}
	// Fig 8 also solves one baseline per load.
	return st, total + len(set.loads), total - wantFeasible, nil
}

// addStats sums effort counters across cells.
func addStats(dst *core.Stats, st core.Stats) {
	dst.CandidatesGenerated += st.CandidatesGenerated
	dst.CostPruned += st.CostPruned
	dst.Evaluations += st.Evaluations
	dst.EvalCacheHits += st.EvalCacheHits
	dst.BoundPruned += st.BoundPruned
	dst.WarmStartReuse += st.WarmStartReuse
	dst.FrontierReuse += st.FrontierReuse
	dst.ModeMemoHits += st.ModeMemoHits
	dst.ModeMemoSolves += st.ModeMemoSolves
}
