package sweep

import (
	"context"
	"reflect"
	"testing"

	"aved/internal/core"
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
