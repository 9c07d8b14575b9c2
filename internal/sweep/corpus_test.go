package sweep

import (
	"context"
	"testing"

	"aved/internal/core"
	"aved/internal/scenarios"
)

// TestSweepBitIdenticalOnCorpusScenarios extends the grid-scheduling
// property to the corpus engine's workload families: on generated web,
// storage and telco scenarios, the grid-aware Fig6 sweep over a small
// requirement plane around each scenario's own requirement must
// reproduce the per-cell cold solutions bit for bit at worker counts 1
// and 4 — and the corpus must actually engage the frontier cache, so
// the reuse identity is not vacuous.
func TestSweepBitIdenticalOnCorpusScenarios(t *testing.T) {
	var frontierReuse, warmReuse int64
	fams := []scenarios.Family{scenarios.FamilyWeb, scenarios.FamilyStorage, scenarios.FamilyTelco}
	for _, fam := range fams {
		for i := 0; i < 4; i++ {
			sc, err := scenarios.GenScenario(fam, i, 5)
			if err != nil {
				t.Fatalf("%v %d: %v", fam, i, err)
			}
			// A plane around the scenario's own requirement, budgets
			// deliberately unsorted so the chain order differs from the
			// landing order the sweep must reproduce.
			peak := sc.Req.PeakLoad()
			b := sc.Req.MaxAnnualDowntime.Minutes()
			loads := []float64{peak, peak + 100}
			budgets := []float64{b, b / 4, 6 * b}
			opts := core.Options{Registry: sc.Registry}
			want, _, _ := coldCells(t, sc.Inf, sc.Svc, opts, loads, budgets)
			for _, workers := range []int{1, 4} {
				opts := opts
				opts.Workers = workers
				s, err := core.NewSolver(sc.Inf, sc.Svc, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Fig6(context.Background(), s, loads, budgets)
				if err != nil {
					t.Fatalf("%s workers %d: %v", sc.Name, workers, err)
				}
				got := fig6Cells(res, loads, budgets)
				for ci := range want {
					if got[ci] != want[ci] {
						t.Errorf("%s workers %d cell %d: grid %+v, cold %+v",
							sc.Name, workers, ci, got[ci], want[ci])
					}
				}
				frontierReuse += res.Totals.FrontierReuse
				warmReuse += res.Totals.WarmStartReuse
			}
		}
	}
	t.Logf("corpus scenarios: %d frontier reuses, %d warm replays", frontierReuse, warmReuse)
	if frontierReuse == 0 {
		t.Error("corpus scenarios never reused a frontier — the property test is vacuous")
	}
}
