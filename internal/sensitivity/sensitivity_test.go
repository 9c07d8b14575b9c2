package sensitivity

import (
	"context"
	"testing"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

func baseConfig(t *testing.T) (*model.Infrastructure, Config) {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ServiceSpec: scenarios.ApplicationTierSpec,
		Registry:    scenarios.Registry(),
		Requirement: model.Requirements{
			Kind:              model.ReqEnterprise,
			Throughput:        1000,
			MaxAnnualDowntime: 100 * units.Minute,
		},
	}
	return inf, cfg
}

func TestScaleMTBFImprovesDowntime(t *testing.T) {
	inf, cfg := baseConfig(t)
	points, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), []float64{0.5, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// More reliable hardware never raises the optimal cost.
	for i := 1; i < len(points); i++ {
		if points[i].Infeasible {
			t.Fatalf("factor %v infeasible", points[i].Factor)
		}
		if points[i].Cost > points[i-1].Cost {
			t.Errorf("cost rose with reliability: %v → %v", points[i-1].Cost, points[i].Cost)
		}
	}
	// The factor-1 point must match an unperturbed solve.
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := core.NewSolver(inf, svc, core.Options{Registry: cfg.Registry})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Solve(cfg.Requirement)
	if err != nil {
		t.Fatal(err)
	}
	if points[1].Cost != sol.Cost {
		t.Errorf("factor-1 cost %v differs from baseline %v", points[1].Cost, sol.Cost)
	}
}

func TestScaleMTBFDoesNotMutateBase(t *testing.T) {
	inf, cfg := baseConfig(t)
	before := inf.Components["machineA"].Failures[0].MTBF
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMTBF("machineA"), []float64{0.1, 10}); err != nil {
		t.Fatal(err)
	}
	if got := inf.Components["machineA"].Failures[0].MTBF; got != before {
		t.Errorf("base infrastructure mutated: %v → %v", before, got)
	}
}

func TestScaleCostShiftsDesignChoice(t *testing.T) {
	// Making appserverA arbitrarily expensive pushes the design to rD
	// (appserverB).
	inf, cfg := baseConfig(t)
	points, err := Sweep(context.Background(), inf, cfg, ScaleCost("appserverA"), []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Family.Resource != "rC" {
		t.Errorf("baseline resource = %s, want rC", points[0].Family.Resource)
	}
	if points[1].Family.Resource != "rD" {
		t.Errorf("with 10x appserverA price, resource = %s, want rD", points[1].Family.Resource)
	}
}

func TestScaleMechanismCostShiftsContract(t *testing.T) {
	// With a loose budget at low load the optimum uses the gold
	// contract (family 3); making maintenanceA contracts 20x dearer
	// pushes the design to bronze + spare machines instead.
	inf, cfg := baseConfig(t)
	cfg.Requirement = model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        800,
		MaxAnnualDowntime: 2000 * units.Minute,
	}
	points, err := Sweep(context.Background(), inf, cfg, ScaleMechanismCost("maintenanceA"), []float64{1, 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Family.Mechanisms; got != "maintenanceA=gold" {
		t.Errorf("baseline contract = %q, want gold", got)
	}
	if got := points[1].Family.Mechanisms; got != "maintenanceA=bronze" {
		t.Errorf("with 20x contract prices = %q, want bronze", got)
	}
	if points[1].Family.NSpare == 0 && points[1].Family.NExtra == 0 {
		t.Error("dear contracts should push toward machine redundancy")
	}
}

func TestSweepReportsInfeasible(t *testing.T) {
	inf, cfg := baseConfig(t)
	cfg.Requirement.MaxAnnualDowntime = 30 * units.Minute
	// Hardware 50x less reliable at a tight budget: the requirement
	// may become unachievable; the sweep must report it, not die.
	// Hardware 10000x less reliable cannot meet it at all.
	points, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), []float64{1, 0.002, 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Infeasible {
		t.Error("baseline should be feasible")
	}
	if !points[1].Infeasible {
		t.Logf("note: even 500x worse hardware remained feasible (downtime %v)", points[1].DowntimeMinutes)
	}
	if !points[2].Infeasible {
		t.Fatalf("10000x worse hardware met a 30m budget (downtime %v)", points[2].DowntimeMinutes)
	}
	// An infeasible factor keeps the effort its search spent.
	if st := points[2].Stats; st.CandidatesGenerated == 0 || st.Evaluations == 0 {
		t.Errorf("infeasible factor reports no search effort: %+v", st)
	}
}

func TestKnobErrors(t *testing.T) {
	inf, cfg := baseConfig(t)
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMTBF("ghost"), []float64{1}); err == nil {
		t.Error("unknown component should fail")
	}
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), []float64{-1}); err == nil {
		t.Error("negative factor should fail")
	}
	if _, err := Sweep(context.Background(), inf, cfg, ScaleCost(""), []float64{-1}); err == nil {
		t.Error("negative cost factor should fail")
	}
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMechanismCost("ghost"), []float64{1}); err == nil {
		t.Error("unknown mechanism should fail")
	}
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), nil); err == nil {
		t.Error("empty factors should fail")
	}
	cfg.Registry = nil
	if _, err := Sweep(context.Background(), inf, cfg, ScaleMTBF(""), []float64{1}); err == nil {
		t.Error("missing registry should fail")
	}
}

func TestCloneIsDeepAndAliasPreserving(t *testing.T) {
	inf, _ := baseConfig(t)
	clone := inf.Clone()
	// Mutating the clone leaves the original untouched.
	clone.Components["machineA"].CostActive = 1
	clone.Components["machineA"].Failures[0].MTBF = units.Day
	clone.Mechanisms["maintenanceA"].Effects[0].Costs[0] = 999
	clone.Mechanisms["maintenanceA"].Effects[1].Times[0] = units.Hour
	if inf.Components["machineA"].CostActive == 1 {
		t.Error("component mutation leaked to base")
	}
	if inf.Components["machineA"].Failures[0].MTBF == units.Day {
		t.Error("failure mutation leaked to base")
	}
	if inf.Mechanisms["maintenanceA"].Effects[0].Costs[0] != 380 ||
		inf.Mechanisms["maintenanceA"].Effects[1].Times[0] != 38*units.Hour {
		t.Error("mechanism mutation leaked to base")
	}
	// Aliasing preserved: the clone's resources reference the clone's
	// components.
	rc, ok := clone.Resources["rC"].Component("machineA")
	if !ok {
		t.Fatal("rC lost machineA")
	}
	if rc.Component != clone.Components["machineA"] {
		t.Error("clone resource members do not alias clone components")
	}
	if rc.Component == inf.Components["machineA"] {
		t.Error("clone resource members alias base components")
	}
}
