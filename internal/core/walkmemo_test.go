package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// walkProblem is one service swept over a requirement plane, each load
// one budget chain, as the figure sweeps run it.
type walkProblem struct {
	name           string
	inf            *model.Infrastructure
	svc            *model.Service
	loads, budgets []float64
}

// TestWalkReplayMatchesFreshWalk pins the walk memo's interval
// argument. It sweeps each problem's chains as SolveChain does, then
// probes every tier walk the chains recorded at budgets inside the
// walk's interval [lo, hi) — lo itself, the float just below hi and a
// seeded draw — where the memo must replay, and at the budgets just
// outside it, where the memo must not be wrong. Each probe's answer is
// compared with a fresh searchTier on a fresh solver at the same
// budget: the result bit for bit, the certificate, the effort and the
// reduced pool pairs.
func TestWalkReplayMatchesFreshWalk(t *testing.T) {
	var problems []walkProblem
	for seed := int64(1); seed <= 60; seed++ {
		sc, err := scenarios.RandSolveScenario(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b := sc.Req.MaxAnnualDowntime.Minutes()
		problems = append(problems, walkProblem{
			name: fmt.Sprintf("seed %d", seed), inf: sc.Inf, svc: sc.Svc,
			loads: []float64{sc.Req.Throughput}, budgets: []float64{b / 4, b, 6 * b},
		})
	}
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	ecom, err := scenarios.Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	// The e-commerce grids of the sweep evaluation ceilings, Fig 6 and
	// Fig 8 (the latter with its whole-year baseline budget).
	problems = append(problems,
		walkProblem{"ecommerce-fig6", inf, ecom, []float64{400, 1400, 3200, 5000}, []float64{1, 10, 100, 1000, 10000}},
		walkProblem{"ecommerce-fig8", inf, ecom, []float64{400, 800, 1600, 3200}, []float64{1, 10, 100, 1000, avail.MinutesPerYear}})

	var walks, replays int
	for pi, p := range problems {
		rng := rand.New(rand.NewSource(int64(pi) + 1))
		opts := Options{Registry: scenarios.Registry(), Workers: 1}
		// The fresh solvers share one engine: its mode-chain memo is
		// bit-identical to cold solving and only saves test time.
		freshOpts := opts
		freshOpts.Engine = avail.NewMarkovEngine()
		s, err := NewSolver(p.inf, p.svc, opts)
		if err != nil {
			t.Fatal(err)
		}
		budgets := append([]float64(nil), p.budgets...)
		sort.Float64s(budgets)
		for _, loadFull := range p.loads {
			c := newChain()
			var load tierLoad
			for _, b := range budgets {
				req := model.Requirements{
					Kind:              model.ReqEnterprise,
					Throughput:        loadFull,
					MaxAnnualDowntime: units.Duration(b * float64(units.Minute)),
				}
				load = loadOf(req)
				_, err := s.solve(context.Background(), req, c)
				var infErr *InfeasibleError
				if err != nil && !errors.As(err, &infErr) {
					t.Fatalf("%s load %v budget %v: %v", p.name, loadFull, b, err)
				}
			}
			for ti, key := range c.keys {
				for _, e := range append([]*walkEntry(nil), c.walks[key]...) {
					walks++
					for _, b := range walkProbes(e, rng) {
						replays++
						checkWalkProbe(t, p, s, c, freshOpts, ti, load, b, true)
					}
					if !math.IsInf(e.hi, 1) {
						checkWalkProbe(t, p, s, c, freshOpts, ti, load, e.hi, false)
					}
					if !math.IsInf(e.lo, -1) {
						checkWalkProbe(t, p, s, c, freshOpts, ti, load, math.Nextafter(e.lo, math.Inf(-1)), false)
					}
				}
			}
		}
	}
	t.Logf("%d recorded walks, %d replays checked", walks, replays)
	if walks == 0 {
		t.Fatal("no tier walk was recorded — the property test is vacuous")
	}
}

// walkProbes draws the in-interval budgets probed for one recorded
// walk: lo (when finite), the float just below hi (MaxFloat64 when hi
// is +Inf) and one seeded draw from [lo, hi), with infinite ends
// replaced by finite stand-ins around the recorded interval.
func walkProbes(e *walkEntry, rng *rand.Rand) []float64 {
	var out []float64
	lo, hi := e.lo, e.hi
	if !math.IsInf(lo, -1) {
		out = append(out, lo)
	} else {
		lo = 0 // downtimes are non-negative, so hi > 0
	}
	out = append(out, math.Nextafter(e.hi, math.Inf(-1)))
	if math.IsInf(hi, 1) {
		hi = 2*lo + 1
	}
	b := lo + rng.Float64()*(hi-lo)
	if b >= e.hi {
		b = math.Nextafter(e.hi, math.Inf(-1))
	}
	return append(out, b)
}

// checkWalkProbe runs one tier search through the chain's walk memo at
// budget b and compares it with a fresh searchTier on a fresh solver.
// mustReplay requires the memo to have replayed rather than walked.
func checkWalkProbe(t *testing.T, p walkProblem, s *Solver, c *chain, freshOpts Options, ti int, load tierLoad, b float64, mustReplay bool) {
	t.Helper()
	ctx := context.Background()
	var memo searchStats
	if s.collectsPools() {
		memo.pools = make([][]costDown, len(p.svc.Tiers))
	}
	best, cert, err := s.chainSearchTier(ctx, c, ti, load, b, &memo)
	if err != nil {
		t.Fatal(err)
	}
	where := func() string {
		return p.name + " tier " + p.svc.Tiers[ti].Name
	}
	if mustReplay && memo.WalkReuse != 1 {
		t.Fatalf("%s at budget %v: walked instead of replaying", where(), b)
	}
	fresh, err := NewSolver(p.inf, p.svc, freshOpts)
	if err != nil {
		t.Fatal(err)
	}
	var cold searchStats
	if fresh.collectsPools() {
		cold.pools = make([][]costDown, len(p.svc.Tiers))
	}
	w, err := fresh.searchTier(ctx, ti, load, b, &cold)
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case (best == nil) != (w.best == nil):
		t.Errorf("%s at budget %v: memo found %v, fresh walk %v", where(), b, best != nil, w.best != nil)
	case best != nil && (best.Cost != w.best.Cost ||
		math.Float64bits(best.DowntimeMinutes) != math.Float64bits(w.best.DowntimeMinutes) ||
		!reflect.DeepEqual(best.Design, w.best.Design)):
		t.Errorf("%s at budget %v: memo %v %v %s, fresh walk %v %v %s", where(), b,
			best.Cost, best.DowntimeMinutes, best.Design.Label(),
			w.best.Cost, w.best.DowntimeMinutes, w.best.Design.Label())
	}
	if cert != w.cert {
		t.Errorf("%s at budget %v: memo certificate %v, fresh walk %v", where(), b, cert, w.cert)
	}
	if got, want := memo.effort(), cold.effort(); got != want {
		t.Errorf("%s at budget %v: memo effort %+v, fresh walk %+v", where(), b, got, want)
	}
	if s.collectsPools() {
		got, want := reducePairs(memo.pools[ti]), reducePairs(cold.pools[ti])
		if !samePairs(got, want) {
			t.Errorf("%s at budget %v: memo pool pairs %v, fresh walk %v", where(), b, got, want)
		}
	}
}

// samePairs compares reduced pools bit for bit.
func samePairs(a, b []costDown) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].cost != b[i].cost || math.Float64bits(a[i].down) != math.Float64bits(b[i].down) {
			return false
		}
	}
	return true
}

// TestSolveChainOrder pins SolveChain's contract: cells are visited
// tightest budget first, each with exactly what SolveContext returns
// for its requirement, and a job requirement is refused.
func TestSolveChainOrder(t *testing.T) {
	s := appTierSolver(t, Options{})
	budgets := []units.Duration{100 * units.Minute, 10 * units.Minute, 1000 * units.Minute}
	var visited []int
	err := s.SolveChain(context.Background(), enterpriseReq(1000, 0), budgets, func(i int, sol *Solution, err error) error {
		visited = append(visited, i)
		want, wantErr := appTierSolver(t, Options{}).SolveContext(context.Background(), enterpriseReq(1000, budgets[i].Minutes()))
		if (err == nil) != (wantErr == nil) || (sol != nil && (sol.Cost != want.Cost || sol.DowntimeMinutes != want.DowntimeMinutes || sol.Design.Label() != want.Design.Label())) {
			t.Errorf("budget %v: chain %v %v, SolveContext %v %v", budgets[i], sol, err, want, wantErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visited, []int{1, 0, 2}) {
		t.Errorf("visit order %v, want [1 0 2]", visited)
	}
	job := model.Requirements{Kind: model.ReqJob, MaxJobTime: 50 * units.Hour}
	if err := s.SolveChain(context.Background(), job, budgets, nil); err == nil {
		t.Error("SolveChain accepted a job requirement")
	}
}
