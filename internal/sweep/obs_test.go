package sweep

import (
	"context"
	"slices"
	"strings"
	"testing"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
)

func obsAppSolver(t *testing.T, tr obs.Tracer, reg *obs.Registry) *core.Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{
		Registry: scenarios.Registry(),
		Tracer:   tr,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sweepEvents filters a trace down to the sweep.point events.
func sweepEvents(evs []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range evs {
		if e.Ev == obs.EvSweepPoint {
			out = append(out, e)
		}
	}
	return out
}

// TestFig6SweepObs: a traced Fig. 6 sweep emits exactly one sweep.point
// per grid cell — feasible or not — covering every 1-based index once,
// and its totals reconcile with both the per-point stats and the
// registry's sweep counters.
func TestFig6SweepObs(t *testing.T) {
	var tr obs.CollectTracer
	reg := obs.NewRegistry()
	solver := obsAppSolver(t, &tr, reg)
	loads := []float64{400, 1400}
	budgets := []float64{0.2, 100, 1000} // 0.2 min is infeasible at these loads
	res, err := Fig6(context.Background(), solver, loads, budgets)
	if err != nil {
		t.Fatal(err)
	}
	cellsTotal := len(loads) * len(budgets)
	points := sweepEvents(tr.Events())
	if len(points) != cellsTotal {
		t.Fatalf("sweep.point events = %d, want %d", len(points), cellsTotal)
	}
	seen := map[int]bool{}
	var infeasible int
	for _, e := range points {
		if e.Index < 1 || e.Index > cellsTotal || seen[e.Index] {
			t.Errorf("bad or duplicate cell index %d", e.Index)
		}
		seen[e.Index] = true
		if e.Total != cellsTotal {
			t.Errorf("event total = %d, want %d", e.Total, cellsTotal)
		}
		if e.Load == 0 || e.Budget == 0 {
			t.Errorf("event missing cell coordinates: %+v", e)
		}
		if e.Err != "" {
			infeasible++
		} else if e.Cost <= 0 {
			t.Errorf("feasible cell with no cost: %+v", e)
		}
	}
	if infeasible != res.Totals.Infeasible {
		t.Errorf("infeasible events = %d, totals say %d", infeasible, res.Totals.Infeasible)
	}
	if res.Totals.Points != len(res.Points) || res.Totals.Points+res.Totals.Infeasible != cellsTotal {
		t.Errorf("totals %+v inconsistent with %d points over %d cells",
			res.Totals, len(res.Points), cellsTotal)
	}
	var wantCand int
	for _, p := range res.Points {
		wantCand += p.Stats.CandidatesGenerated
	}
	if res.Totals.CandidatesGenerated != wantCand || wantCand == 0 {
		t.Errorf("totals candidates = %d, per-point sum = %d", res.Totals.CandidatesGenerated, wantCand)
	}
	snap := reg.Snapshot()
	if snap.Counters["sweep.points"] != int64(cellsTotal) {
		t.Errorf("sweep.points counter = %d, want %d", snap.Counters["sweep.points"], cellsTotal)
	}
	if snap.Counters["sweep.infeasible"] != int64(res.Totals.Infeasible) {
		t.Errorf("sweep.infeasible counter = %d, want %d",
			snap.Counters["sweep.infeasible"], res.Totals.Infeasible)
	}
	if snap.Gauges["sweep.total"] != float64(cellsTotal) {
		t.Errorf("sweep.total gauge = %v, want %d", snap.Gauges["sweep.total"], cellsTotal)
	}
	if h, ok := snap.Histograms["sweep.point_ms"]; !ok || h.Count != int64(cellsTotal) {
		t.Errorf("sweep.point_ms histogram = %+v, want %d observations", h, cellsTotal)
	}
}

// TestFig8SweepPointIndices: a traced Fig. 8 sweep emits one
// sweep.point per cell, baselines included, and indexes 1..Total each
// exactly once, whether the budget grid has the whole-year budget or
// the sweep appends it. Each load's row follows the grid, an appended
// baseline at its end.
func TestFig8SweepPointIndices(t *testing.T) {
	loads := []float64{800, 2000}
	for _, budgets := range [][]float64{{30, 200}, {30, 200, avail.MinutesPerYear}} {
		var tr obs.CollectTracer
		if _, err := Fig8(context.Background(), obsAppSolver(t, &tr, nil), loads, budgets); err != nil {
			t.Fatal(err)
		}
		grid := budgets
		if !slices.Contains(grid, avail.MinutesPerYear) {
			grid = append(slices.Clip(grid), avail.MinutesPerYear)
		}
		total := len(loads) * len(grid)
		points := sweepEvents(tr.Events())
		if len(points) != total {
			t.Fatalf("budgets %v: %d sweep.point events, want %d", budgets, len(points), total)
		}
		seen := map[int]bool{}
		for _, e := range points {
			if e.Total != total {
				t.Errorf("budgets %v: event total = %d, want %d", budgets, e.Total, total)
			}
			if e.Index < 1 || e.Index > total || seen[e.Index] {
				t.Errorf("budgets %v: bad or duplicate cell index %d of %d", budgets, e.Index, total)
			}
			seen[e.Index] = true
			want := slices.Index(loads, e.Load)*len(grid) + slices.Index(grid, e.Budget) + 1
			if e.Index != want {
				t.Errorf("budgets %v: load %v budget %v has index %d, want %d", budgets, e.Load, e.Budget, e.Index, want)
			}
		}
	}
}

// TestFig7Fig8PointStats: the job-axis and premium sweeps carry each
// point's search effort, baselines included.
func TestFig7Fig8PointStats(t *testing.T) {
	res, err := Fig7(context.Background(), sciSolver(t), []float64{20, 200})
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) == 0 {
		t.Fatal("no fig7 points")
	}
	for _, p := range points {
		if p.Stats.CandidatesGenerated == 0 {
			t.Errorf("fig7 point %vh has empty stats", p.RequirementHours)
		}
	}
	curves, err := Fig8(context.Background(), appSolver(t), []float64{800}, []float64{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		if c.BaselineStats.CandidatesGenerated == 0 {
			t.Errorf("fig8 load %v baseline has empty stats", c.Load)
		}
		for _, p := range c.Points {
			if p.Stats.CandidatesGenerated == 0 {
				t.Errorf("fig8 load %v budget %v has empty stats", c.Load, p.BudgetMinutes)
			}
		}
	}
}

// TestUntracedSweepEmitsNothing: a solver without observability leaves
// the sweep's instrumentation inert.
func TestUntracedSweepEmitsNothing(t *testing.T) {
	res, err := Fig6(context.Background(), appSolver(t), []float64{400}, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Totals.Points != 1 {
		t.Errorf("totals = %+v, want 1 point", res.Totals)
	}
}

// TestTotalsString pins the closing-line format the CLIs print.
// TestTotalsString pins the closing line to the scheduling-independent
// projection: no split between executed evaluations and cache replays,
// no engine deltas — those vary with worker scheduling and would break
// the byte-identical-output invariant of the sweep CLIs.
func TestTotalsString(t *testing.T) {
	tot := Totals{Points: 5, Stats: core.Stats{CandidatesGenerated: 100, CostPruned: 40, Evaluations: 50, EvalCacheHits: 10}}
	got := tot.String()
	want := "5 points: 100 candidates, 40 cost-pruned, 0 bound-pruned, 60 evaluations (incl. cache replays)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	tot.Infeasible = 2
	tot.ModeMemoHits, tot.ModeMemoSolves = 7, 3
	tot.SimReplications = 4096
	got = tot.String()
	if !strings.Contains(got, "(2 infeasible)") {
		t.Errorf("String() = %q, missing infeasible count", got)
	}
	for _, frag := range []string{"memo", "sim"} {
		if strings.Contains(got, frag) {
			t.Errorf("String() = %q, leaks scheduling-dependent %s counters", got, frag)
		}
	}
}

// TestFig7MemoCountersAddUp: the Fig. 7 levels solve in order on one
// solver, whose one engine is instrumented on the sweep's registry, so
// the registry's memo counters are the sum of the levels' own memo
// stats rather than the last level's.
func TestFig7MemoCountersAddUp(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	solver, err := core.NewSolver(inf, svc, core.Options{
		Registry: scenarios.Registry(),
		FixedMechanisms: map[string]map[string]model.ParamValue{
			"maintenanceA": {"level": model.EnumValue("bronze")},
			"maintenanceB": {"level": model.EnumValue("bronze")},
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{31.6, 139, 611}
	res, err := Fig7(context.Background(), solver, grid)
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) != len(grid) {
		t.Fatalf("%d of %d levels feasible", len(points), len(grid))
	}
	var hits, solves uint64
	for _, p := range points {
		hits += p.Stats.ModeMemoHits
		solves += p.Stats.ModeMemoSolves
	}
	snap := reg.Snapshot()
	t.Logf("levels: %d memo hits, %d memo solves", hits, solves)
	if got := snap.Counters["avail.memo.hits"]; got != int64(hits) || hits == 0 {
		t.Errorf("avail.memo.hits = %d, want the levels' sum %d", got, hits)
	}
	if got := snap.Counters["avail.memo.solves"]; got != int64(solves) {
		t.Errorf("avail.memo.solves = %d, want the levels' sum %d", got, solves)
	}
}
