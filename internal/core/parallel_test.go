package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/scenarios"
)

// countingEngine wraps an availability engine and counts Evaluate
// invocations, exposing how much engine work the cache actually admits.
type countingEngine struct {
	inner avail.Engine
	calls atomic.Int64
}

func (e *countingEngine) Evaluate(tms []avail.TierModel) (avail.Result, error) {
	e.calls.Add(1)
	return e.inner.Evaluate(tms)
}

// TestSolveWorkerCountBitIdentical asserts the search determinism
// guarantee: solutions — including search statistics — are identical at
// any worker count, for both the single-tier phase-1 path and the
// multi-tier frontier/combiner path.
func TestSolveWorkerCountBitIdentical(t *testing.T) {
	solve := func(t *testing.T, ecommerce bool, workers int, load, budget float64) *Solution {
		t.Helper()
		inf, err := scenarios.Infrastructure()
		if err != nil {
			t.Fatal(err)
		}
		var svc *model.Service
		if ecommerce {
			svc, err = scenarios.Ecommerce(inf)
		} else {
			svc, err = scenarios.ApplicationTier(inf)
		}
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(enterpriseReq(load, budget))
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	cases := []struct {
		name         string
		ecommerce    bool
		load, budget float64
	}{
		{"apptier-phase1", false, 1000, 100},
		// (2000, 60): per-tier optima combine above the budget, forcing
		// the phase-2 frontier build and the exact combiner.
		{"ecommerce-frontier", true, 2000, 60},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seq := solve(t, c.ecommerce, 1, c.load, c.budget)
			for _, workers := range []int{2, 4, 0} {
				parl := solve(t, c.ecommerce, workers, c.load, c.budget)
				if parl.Design.Label() != seq.Design.Label() {
					t.Errorf("workers=%d: design %q != sequential %q", workers, parl.Design.Label(), seq.Design.Label())
				}
				if parl.Cost != seq.Cost || parl.DowntimeMinutes != seq.DowntimeMinutes {
					t.Errorf("workers=%d: (cost, downtime) = (%v, %v), sequential (%v, %v)",
						workers, parl.Cost, parl.DowntimeMinutes, seq.Cost, seq.DowntimeMinutes)
				}
				if !reflect.DeepEqual(parl.Stats, seq.Stats) {
					t.Errorf("workers=%d: stats %+v != sequential %+v", workers, parl.Stats, seq.Stats)
				}
			}
		})
	}
}

// TestConcurrentSolvesShareCache drives many Solve calls on one solver
// from separate goroutines — the sweep usage pattern — under varied
// requirements, checking every solution against a fresh-solver rerun.
// It also pins the eval cache's singleflight dedup: the concurrent
// solves must invoke the engine exactly as often as the same solves run
// one after another on a single solver, and the per-solve
// Stats.Evaluations must add up to those invocations.
func TestConcurrentSolvesShareCache(t *testing.T) {
	loads := []float64{600, 1000, 1800, 2600}
	budgets := []float64{50, 500, 5000}
	type key struct{ load, budget float64 }

	seqEng := &countingEngine{inner: avail.NewMarkovEngine()}
	sequential := appTierSolver(t, Options{Engine: seqEng})
	for _, load := range loads {
		for _, budget := range budgets {
			if _, err := sequential.Solve(enterpriseReq(load, budget)); err != nil {
				t.Fatalf("load=%v budget=%v: %v", load, budget, err)
			}
		}
	}

	eng := &countingEngine{inner: avail.NewMarkovEngine()}
	shared := appTierSolver(t, Options{Engine: eng})
	got := sync.Map{}
	var (
		wg    sync.WaitGroup
		evals atomic.Int64
	)
	for _, load := range loads {
		for _, budget := range budgets {
			wg.Add(1)
			go func(load, budget float64) {
				defer wg.Done()
				sol, err := shared.Solve(enterpriseReq(load, budget))
				if err != nil {
					t.Errorf("load=%v budget=%v: %v", load, budget, err)
					return
				}
				evals.Add(int64(sol.Stats.Evaluations))
				got.Store(key{load, budget}, sol)
			}(load, budget)
		}
	}
	wg.Wait()
	if c, want := eng.calls.Load(), seqEng.calls.Load(); c != want {
		t.Errorf("concurrent solves invoked the engine %d times, sequential solves %d", c, want)
	}
	if e, c := evals.Load(), eng.calls.Load(); e != c {
		t.Errorf("Stats.Evaluations sum to %d across the concurrent solves, engine invoked %d times", e, c)
	}
	for _, load := range loads {
		for _, budget := range budgets {
			v, ok := got.Load(key{load, budget})
			if !ok {
				continue // solve already reported its error
			}
			sol := v.(*Solution)
			fresh := appTierSolver(t, Options{})
			want, err := fresh.Solve(enterpriseReq(load, budget))
			if err != nil {
				t.Fatal(err)
			}
			if sol.Design.Label() != want.Design.Label() || sol.Cost != want.Cost {
				t.Errorf("load=%v budget=%v: shared-solver design (%q, %v) != fresh (%q, %v)",
					load, budget, sol.Design.Label(), sol.Cost, want.Design.Label(), want.Cost)
			}
		}
	}
}
