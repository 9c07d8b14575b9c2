package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// ecommerceAllocSolver parses, binds and builds a sequential solver
// for the Fig. 4 e-commerce scenario, with the paper registry and opts'
// other settings.
func ecommerceAllocSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	inf, err := model.ParseInfrastructure(scenarios.InfrastructureSpec)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := model.ParseService(scenarios.EcommerceSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Resolve(inf); err != nil {
		t.Fatal(err)
	}
	opts.Registry, opts.Workers = scenarios.Registry(), 1
	s, err := NewSolver(inf, svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// allocSolveReq is the e-commerce requirement both allocation budgets
// solve: its per-tier optima miss the budget, so the solve runs the
// frontier build and the exact combiner.
var allocSolveReq = model.Requirements{Kind: model.ReqEnterprise, Throughput: 2000, MaxAnnualDowntime: 60 * units.Minute}

// TestColdSolveAllocBudget is the allocation regression for a cold
// e-commerce solve: parse, bind, solver construction and a first
// solve with empty caches. The pre-arena search measured 3147
// allocations per op and the arena-backed search 950; with the pull
// parser, the one-map mode memo and the solver-owned tier model it
// measured 657, and with compact candidate records and the per-option
// walk tables 564, 550 with each solve's buffers on the solver, and
// 546 with the 40-byte mode-memo key and the Result-free design price.
// The budget sits at 1.5x the landing point, not at it,
// so map-growth jitter does not flake while a real regression —
// hundreds of candidates each allocating again — still trips it.
func TestColdSolveAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ecommerceAllocSolver(t, Options{}).Solve(allocSolveReq); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 985
	t.Logf("cold solve: %.0f allocations per run", allocs)
	if allocs > budget {
		t.Errorf("cold solve allocates %.0f objects per run, want <= %d", allocs, budget)
	}
}

// TestWarmSolveAllocBudget is the allocation regression for the
// arena-backed search: a re-solve on a warm solver draws its frontier
// batches from the pooled search scratch and its evaluations from the
// fingerprint cache, so the whole three-tier solve should cost a small
// bounded number of allocations — the Pareto-reduced outputs, the
// combination, and the Solution itself. Measured 107 on the e-commerce
// scenario, 71 once the walks built designs only for the candidates
// they price and kept each option's setup on the solver, and 26 once a
// solve's own buffers (effort record, bound pools, frontier
// accumulation, pair projection, candidate rows) lived on the solver
// and the pools stayed reduced by merging, and 22 once the final
// whole-design price built no Result; the budget
// leaves headroom for map-growth jitter without letting a per-candidate
// allocation (hundreds of candidates per solve) sneak back in.
func TestWarmSolveAllocBudget(t *testing.T) {
	s := ecommerceAllocSolver(t, Options{})
	if _, err := s.Solve(allocSolveReq); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Solve(allocSolveReq); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 300
	t.Logf("warm re-solve: %.0f allocations per run", allocs)
	if allocs > budget {
		t.Errorf("warm re-solve allocates %.0f objects per run, want <= %d", allocs, budget)
	}
}

// TestChainReplayAllocBudget is the allocation regression for a
// replayed sweep chain: on an e-commerce solver that has already run
// a 16-budget chain at one load, a second chain over the same budgets
// replays every tier walk and frontier build from the solver's memo, so
// its cells should allocate only what they return — the Solutions and
// their designs — the combiner's search state and the chain's keys, not
// the buffers a solve fills and drops. Measured 114, 122 and 74 at
// loads 400, 1600 and 3200, against 197, 205 and 157 while each cell's
// design price built a Result and each infeasible cell formatted its
// reason, and 418, 441 and 317 while each solve allocated its own
// buffers. The budget sits at 1.5x the largest landing point: it fails
// the loads 400 and 1600 of the second measurement and every load of
// the third.
func TestChainReplayAllocBudget(t *testing.T) {
	budgets := make([]units.Duration, 16)
	for i := range budgets {
		// Log-spaced from 1 to 10^4 minutes, as the figure sweeps span.
		budgets[i] = units.Duration(math.Pow(10, 4*float64(i)/15) * float64(units.Minute))
	}
	const budget = 185
	for _, load := range []float64{400, 1600, 3200} {
		s := ecommerceAllocSolver(t, Options{})
		req := model.Requirements{Kind: model.ReqEnterprise, Throughput: load}
		chain := func() {
			err := s.SolveChain(context.Background(), req, budgets, func(_ int, _ *Solution, err error) error {
				var inf *InfeasibleError
				if err != nil && !errors.As(err, &inf) {
					return err
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		chain()
		allocs := testing.AllocsPerRun(5, chain)
		t.Logf("load %v: replayed chain of %d budgets: %.0f allocations per run", load, len(budgets), allocs)
		if allocs > budget {
			t.Errorf("load %v: replayed chain allocates %.0f objects per run, want <= %d", load, allocs, budget)
		}
	}
}
