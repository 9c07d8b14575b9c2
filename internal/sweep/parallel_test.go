package sweep

import (
	"context"
	"reflect"
	"testing"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
)

func appSolverWorkers(t *testing.T, workers int) *core.Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{Registry: scenarios.Registry(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sciSolverWorkers(t *testing.T, workers int) *core.Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{
		Registry: scenarios.Registry(),
		Workers:  workers,
		FixedMechanisms: map[string]map[string]model.ParamValue{
			"maintenanceA": {"level": model.EnumValue("bronze")},
			"maintenanceB": {"level": model.EnumValue("bronze")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// normStats reduces Stats to its scheduling-independent projection.
// Cells share the solver's eval cache, so which cell's solve executes
// a singleflight miss (vs replaying it as a hit) depends on
// scheduling; only the sum of the two is pinned. The engine-counter
// deltas are likewise apportioned arbitrarily between overlapping
// solves (see core.Stats), so they are dropped entirely.
func normStats(st core.Stats) core.Stats {
	st.Evaluations += st.EvalCacheHits
	st.EvalCacheHits = 0
	st.ModeMemoHits, st.ModeMemoSolves = 0, 0
	st.SimReplications, st.SimBatches = 0, 0
	// Warm-start reuse counts hits on flights another solve generation
	// created; with cells overlapping on one solver, which generation
	// creates a flight is a scheduling accident too. FrontierReuse is NOT
	// normalized: each chain's memo is private to its SolveChain call,
	// so it is exact at any worker count.
	st.WarmStartReuse = 0
	return st
}

// TestFig6WorkerCountBitIdentical pins the sweep determinism guarantee:
// the full Fig. 6 result — points, curve membership, and curve order —
// is identical whether the grid runs sequentially or across the pool.
// Per-point Stats are compared in their scheduling-independent
// projection.
func TestFig6WorkerCountBitIdentical(t *testing.T) {
	loads := []float64{600, 1500, 3000}
	budgets := []float64{30, 200, 2000}
	normPoints := func(ps []Fig6Point) []Fig6Point {
		out := append([]Fig6Point(nil), ps...)
		for i := range out {
			out[i].Stats = normStats(out[i].Stats)
		}
		return out
	}
	seq, err := Fig6(context.Background(), appSolverWorkers(t, 1), loads, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Points) == 0 || len(seq.Curves) == 0 {
		t.Fatalf("degenerate fixture: %d points, %d curves", len(seq.Points), len(seq.Curves))
	}
	for _, workers := range []int{4, 0} {
		parl, err := Fig6(context.Background(), appSolverWorkers(t, workers), loads, budgets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normPoints(parl.Points), normPoints(seq.Points)) {
			t.Errorf("workers=%d: points differ from sequential", workers)
		}
		if !reflect.DeepEqual(parl.Curves, seq.Curves) {
			t.Errorf("workers=%d: curves differ from sequential", workers)
		}
	}
}

// TestFig7WorkerCountBitIdentical covers the job-requirement sweep.
func TestFig7WorkerCountBitIdentical(t *testing.T) {
	hours := []float64{30, 45, 70, 110, 200}
	norm := func(ps []Fig7Point) []Fig7Point {
		out := append([]Fig7Point(nil), ps...)
		for i := range out {
			out[i].Stats = normStats(out[i].Stats)
		}
		return out
	}
	seq, err := Fig7(context.Background(), sciSolverWorkers(t, 1), hours)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("degenerate fixture: no points")
	}
	for _, workers := range []int{4, 0} {
		parl, err := Fig7(context.Background(), sciSolverWorkers(t, workers), hours)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(norm(parl), norm(seq)) {
			t.Errorf("workers=%d: points differ from sequential", workers)
		}
	}
}

// TestFig8WorkerCountBitIdentical covers the premium curves, baselines
// included.
func TestFig8WorkerCountBitIdentical(t *testing.T) {
	loads := []float64{800, 2000}
	budgets := []float64{30, 200, 2000}
	norm := func(cs []Fig8Curve) []Fig8Curve {
		out := append([]Fig8Curve(nil), cs...)
		for i := range out {
			out[i].BaselineStats = normStats(out[i].BaselineStats)
			out[i].Points = append([]Fig8Point(nil), out[i].Points...)
			for j := range out[i].Points {
				out[i].Points[j].Stats = normStats(out[i].Points[j].Stats)
			}
		}
		return out
	}
	seq, err := Fig8(context.Background(), appSolverWorkers(t, 1), loads, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(loads) {
		t.Fatalf("curves = %d, want %d", len(seq), len(loads))
	}
	for _, workers := range []int{4, 0} {
		parl, err := Fig8(context.Background(), appSolverWorkers(t, workers), loads, budgets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(norm(parl), norm(seq)) {
			t.Errorf("workers=%d: curves differ from sequential", workers)
		}
	}
}
