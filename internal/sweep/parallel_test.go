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

// TestFig6WorkerCountBitIdentical pins the sweep determinism guarantee:
// the full Fig. 6 result — points with their raw Stats, curve
// membership, curve order and totals — is identical at any worker
// count.
func TestFig6WorkerCountBitIdentical(t *testing.T) {
	loads := []float64{600, 1500, 3000}
	budgets := []float64{30, 200, 2000}
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
		if !reflect.DeepEqual(parl, seq) {
			t.Errorf("workers=%d: result differs from sequential", workers)
		}
	}
}

// TestFig7WorkerCountBitIdentical covers the job-requirement sweep on
// its default engine, whose levels each solve on a solver and engine of
// their own.
func TestFig7WorkerCountBitIdentical(t *testing.T) {
	hours := []float64{30, 45, 70, 110, 200}
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
		if !reflect.DeepEqual(parl, seq) {
			t.Errorf("workers=%d: points differ from sequential", workers)
		}
	}
}

// TestFig8WorkerCountBitIdentical covers the premium curves, baselines
// and infeasible budgets included.
func TestFig8WorkerCountBitIdentical(t *testing.T) {
	loads := []float64{800, 2000}
	budgets := []float64{30, 200, 2000}
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
		if !reflect.DeepEqual(parl, seq) {
			t.Errorf("workers=%d: curves differ from sequential", workers)
		}
	}
}
