package core

import (
	"reflect"
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
)

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
