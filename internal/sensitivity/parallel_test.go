package sensitivity

import (
	"context"
	"reflect"
	"testing"
)

// TestSweepWorkerCountBitIdentical asserts the what-if sweep returns
// identical points at any worker count: each factor owns a clone of the
// infrastructure and its own solver, so parallelism cannot leak
// perturbations between factors.
func TestSweepWorkerCountBitIdentical(t *testing.T) {
	inf, cfg := baseConfig(t)
	factors := []float64{0.25, 0.5, 1, 2, 4, 8}
	cfg.SolverOptions.Workers = 1
	seq, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), factors)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(factors) {
		t.Fatalf("points = %d, want %d", len(seq), len(factors))
	}
	for _, workers := range []int{4, 0} {
		cfg.SolverOptions.Workers = workers
		parl, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), factors)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parl, seq) {
			t.Errorf("workers=%d: points differ from sequential\nseq: %+v\npar: %+v", workers, seq, parl)
		}
	}
}

// TestSweepParallelDoesNotMutateBase re-checks the clone discipline
// under concurrency: the base infrastructure must be untouched after a
// parallel sweep with aggressive factors.
func TestSweepParallelDoesNotMutateBase(t *testing.T) {
	inf, cfg := baseConfig(t)
	cfg.SolverOptions.Workers = 8
	before := inf.Components["machineA"].Failures[0].MTBF
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMTBF("machineA"), []float64{0.1, 0.5, 2, 10}); err != nil {
		t.Fatal(err)
	}
	if got := inf.Components["machineA"].Failures[0].MTBF; got != before {
		t.Errorf("base infrastructure mutated: %v → %v", before, got)
	}
}
