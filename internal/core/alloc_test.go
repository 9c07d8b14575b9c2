package core

import (
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// ecommerceAllocSolver parses, binds and builds a sequential solver
// for the Fig. 4 e-commerce scenario.
func ecommerceAllocSolver(t *testing.T) *Solver {
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
	s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry(), Workers: 1})
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
// walk tables 564. The budget sits at 1.5x the landing point, not at it,
// so map-growth jitter does not flake while a real regression —
// hundreds of candidates each allocating again — still trips it.
func TestColdSolveAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ecommerceAllocSolver(t).Solve(allocSolveReq); err != nil {
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
// scenario, and 71 once the walks built designs only for the candidates
// they price and kept each option's setup on the solver; the budget
// leaves headroom for map-growth jitter without letting a per-candidate
// allocation (hundreds of candidates per solve) sneak back in.
func TestWarmSolveAllocBudget(t *testing.T) {
	s := ecommerceAllocSolver(t)
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
