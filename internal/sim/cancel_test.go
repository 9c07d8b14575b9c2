package sim

import (
	"context"
	"errors"
	"testing"

	"aved/internal/avail"
	"aved/internal/units"
)

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestSimulateTierCtxCanceled(t *testing.T) {
	eng, err := NewEngine(1, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	tm := singleMode(2, 1, 1, 1000*units.Hour, 4*units.Hour, 0, false)
	if _, err := eng.SimulateTierCtx(canceledCtx(), &tm); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateTierCtx err = %v, want context.Canceled", err)
	}
}

func TestEvaluateCtxCanceled(t *testing.T) {
	eng, err := NewEngine(1, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	tm := singleMode(2, 1, 1, 1000*units.Hour, 4*units.Hour, 0, false)
	if _, err := eng.EvaluateCtx(canceledCtx(), []avail.TierModel{tm}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx err = %v, want context.Canceled", err)
	}
}

// TestEvaluateCtxAdaptiveCanceled covers the adaptive-precision batch
// loop: its per-round ctx check must abort between allocation rounds.
func TestEvaluateCtxAdaptiveCanceled(t *testing.T) {
	eng, err := NewEngine(1, 100, 4096)
	if err != nil {
		t.Fatal(err)
	}
	eng.WithPrecision(0.0001, 8)
	tm := singleMode(2, 1, 1, 1000*units.Hour, 4*units.Hour, 0, false)
	if _, _, err := eng.EvaluateStatsCtx(canceledCtx(), []avail.TierModel{tm, tm}); !errors.Is(err, context.Canceled) {
		t.Fatalf("adaptive EvaluateStatsCtx err = %v, want context.Canceled", err)
	}
}

func TestSimulateJobCtxCanceled(t *testing.T) {
	p := JobParams{ComputeHours: 50, LossWindowHours: 1, MTBFHours: 100, OutageHours: 2}
	if _, err := SimulateJobCtx(canceledCtx(), 1, p, 256); !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateJobCtx err = %v, want context.Canceled", err)
	}
}

// TestEvaluateCtxBackgroundBitIdentical pins that threading a live
// context through the simulator does not perturb the estimate: the
// replication schedule, seeds and fold order are unchanged.
func TestEvaluateCtxBackgroundBitIdentical(t *testing.T) {
	tm := singleMode(2, 1, 1, 1000*units.Hour, 4*units.Hour, 0, false)
	e1, err := NewEngine(7, 200, 16)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(7, 200, 16)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Evaluate([]avail.TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r2, err := e2.EvaluateCtx(ctx, []avail.TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	if r1.DowntimeMinutes != r2.DowntimeMinutes || r1.Availability != r2.Availability {
		t.Errorf("EvaluateCtx(%v) != Evaluate(%v)", r2, r1)
	}
}
