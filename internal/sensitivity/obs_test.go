package sensitivity

import (
	"context"
	"testing"

	"aved/internal/obs"
	"aved/internal/sweep"
)

// TestSweepObs: a traced sensitivity sweep emits one sweep.point per
// factor carrying the perturbation factor, reports per-factor search
// stats on the points, and bumps the shared registry.
func TestSweepObs(t *testing.T) {
	inf, cfg := baseConfig(t)
	var tr obs.CollectTracer
	reg := obs.NewRegistry()
	cfg.SolverOptions.Tracer = &tr
	cfg.SolverOptions.Metrics = reg
	factors := []float64{0.5, 1, 2}
	points, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), factors)
	if err != nil {
		t.Fatal(err)
	}
	var cells []obs.Event
	for _, e := range tr.Events() {
		if e.Ev == obs.EvSweepPoint {
			cells = append(cells, e)
		}
	}
	if len(cells) != len(factors) {
		t.Fatalf("sweep.point events = %d, want %d", len(cells), len(factors))
	}
	got := map[float64]bool{}
	for _, e := range cells {
		got[e.Factor] = true
		if e.Total != len(factors) || e.Index < 1 || e.Index > len(factors) {
			t.Errorf("bad grid position in %+v", e)
		}
		if e.Err == "" && e.Cost <= 0 {
			t.Errorf("feasible factor with no cost: %+v", e)
		}
	}
	var tot sweep.Totals
	for _, f := range factors {
		if !got[f] {
			t.Errorf("no sweep.point for factor %v", f)
		}
	}
	for _, p := range points {
		if p.Infeasible {
			t.Fatalf("factor %v unexpectedly infeasible", p.Factor)
		}
		if p.Stats.CandidatesGenerated == 0 {
			t.Errorf("factor %v has empty stats", p.Factor)
		}
		tot.Add(p.Stats)
	}
	if tot.Points != len(factors) || tot.CandidatesGenerated == 0 {
		t.Errorf("totals = %+v", tot)
	}
	snap := reg.Snapshot()
	if snap.Counters["sweep.points"] != int64(len(factors)) {
		t.Errorf("sweep.points counter = %d, want %d", snap.Counters["sweep.points"], len(factors))
	}
	// The per-factor solvers share the registry, so the core counters
	// accumulate across factors.
	if snap.Counters["core.solves"] != int64(len(factors)) {
		t.Errorf("core.solves = %d, want %d", snap.Counters["core.solves"], len(factors))
	}
}
