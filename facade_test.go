package aved_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"aved"
)

// TestFacadeSurface exercises the remaining thin wrappers of the public
// facade so regressions in re-export plumbing surface immediately.
func TestFacadeSurface(t *testing.T) {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := aved.PaperApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := aved.NewSolver(inf, svc, aved.Options{Registry: aved.PaperRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Solve(aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        800,
		MaxAnnualDowntime: aved.Minutes(500),
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("availability model exchange", func(t *testing.T) {
		var text, js bytes.Buffer
		if err := aved.WriteAvailabilityModel(&text, &sol.Design); err != nil {
			t.Fatal(err)
		}
		if err := aved.WriteAvailabilityModelJSON(&js, &sol.Design); err != nil {
			t.Fatal(err)
		}
		fromText, err := aved.ReadAvailabilityModel(&text)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := aved.ReadAvailabilityModelJSON(&js)
		if err != nil {
			t.Fatal(err)
		}
		if len(fromText) != len(fromJSON) || len(fromText) == 0 {
			t.Fatalf("round trips disagree: %d vs %d tiers", len(fromText), len(fromJSON))
		}
		// All three engines accept the round-tripped model.
		for _, eng := range []aved.Engine{aved.MarkovEngine(), aved.ExactEngine()} {
			if _, err := eng.Evaluate(fromText); err != nil {
				t.Errorf("engine %T rejected round-tripped model: %v", eng, err)
			}
		}
	})

	t.Run("design report", func(t *testing.T) {
		var sb strings.Builder
		if err := aved.WriteDesignReport(&sb, &sol.Design, aved.ExactEngine()); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "design total") {
			t.Errorf("report output: %s", sb.String())
		}
	})

	t.Run("grids and values", func(t *testing.T) {
		lg, err := aved.LogGrid(1, 100, 3)
		if err != nil || len(lg) != 3 {
			t.Errorf("LogGrid: %v %v", lg, err)
		}
		ln, err := aved.LinGrid(0, 10, 3)
		if err != nil || ln[1] != 5 {
			t.Errorf("LinGrid: %v %v", ln, err)
		}
		if aved.EnumValue("gold").Str != "gold" {
			t.Error("EnumValue")
		}
		if aved.DurationValue(2).Hours != 2 {
			t.Error("DurationValue")
		}
		reg := aved.NewRegistry()
		if reg == nil {
			t.Error("NewRegistry")
		}
	})

	t.Run("sensitivity", func(t *testing.T) {
		points, err := aved.SensitivitySweep(context.Background(), inf, aved.SensitivityConfig{
			ServiceSpec: strings.ReplaceAll(aved.PaperEcommerceSpec, "application=ecommerce", "application=sens"),
			Registry:    aved.PaperRegistry(),
			Requirement: aved.Requirements{
				Kind:              aved.ReqEnterprise,
				Throughput:        800,
				MaxAnnualDowntime: aved.Minutes(2000),
			},
		}, aved.ScaleCost("machineA"), []float64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(points) != 2 || points[1].Cost <= points[0].Cost {
			t.Errorf("dearer machines must raise cost: %+v", points)
		}
		// The remaining knob constructors.
		if _, err := aved.SensitivitySweep(context.Background(), inf, aved.SensitivityConfig{
			ServiceSpec: aved.PaperScientificSpec,
			Registry:    aved.PaperRegistry(),
			SolverOptions: aved.Options{
				FixedMechanisms: aved.Bronze(),
			},
			Requirement: aved.Requirements{Kind: aved.ReqJob, MaxJobTime: aved.Hours(300)},
		}, aved.ScaleMTBF("machineA"), []float64{1}); err != nil {
			t.Errorf("job-requirement sensitivity: %v", err)
		}
		if _, err := aved.SensitivitySweep(context.Background(), inf, aved.SensitivityConfig{
			ServiceSpec: strings.ReplaceAll(aved.PaperEcommerceSpec, "application=ecommerce", "application=sens2"),
			Registry:    aved.PaperRegistry(),
			Requirement: aved.Requirements{
				Kind:              aved.ReqEnterprise,
				Throughput:        800,
				MaxAnnualDowntime: aved.Minutes(2000),
			},
		}, aved.ScaleMechanismCost("maintenanceB"), []float64{1}); err != nil {
			t.Errorf("mechanism-cost sensitivity: %v", err)
		}
	})

	t.Run("warm spares through the facade", func(t *testing.T) {
		warmSolver, err := aved.NewSolver(inf, svc, aved.Options{
			Registry:           aved.PaperRegistry(),
			ExploreSpareWarmth: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		warmSol, err := warmSolver.Solve(aved.Requirements{
			Kind:              aved.ReqEnterprise,
			Throughput:        800,
			MaxAnnualDowntime: aved.Minutes(500),
		})
		if err != nil {
			t.Fatal(err)
		}
		if warmSol.Cost > sol.Cost {
			t.Errorf("warmth exploration must not worsen the optimum: %v vs %v", warmSol.Cost, sol.Cost)
		}
	})
}

// TestMissionDowntimeFacade: the finite-horizon figure undercuts the
// steady state for a young system and converges for long missions.
func TestMissionDowntimeFacade(t *testing.T) {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := aved.PaperApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	solver, err := aved.NewSolver(inf, svc, aved.Options{Registry: aved.PaperRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.Solve(aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        400,
		MaxAnnualDowntime: aved.Minutes(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := aved.WriteAvailabilityModel(&buf, &sol.Design); err != nil {
		t.Fatal(err)
	}
	tms, err := aved.ReadAvailabilityModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	shortRun, err := aved.MissionDowntime(&tms[0], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	longRun, err := aved.MissionDowntime(&tms[0], 20)
	if err != nil {
		t.Fatal(err)
	}
	if !(shortRun < longRun) {
		t.Errorf("young system downtime %v should undercut long-run %v", shortRun, longRun)
	}
	steady, err := aved.MarkovEngine().Evaluate(tms[:1])
	if err != nil {
		t.Fatal(err)
	}
	rel := (longRun - steady.DowntimeMinutes) / steady.DowntimeMinutes
	if rel > 0.05 || rel < -0.05 {
		t.Errorf("20y mission %v should approach steady state %v", longRun, steady.DowntimeMinutes)
	}
}

// TestNewEngineAndPaperScenario pins the two front-end name mappings:
// every engine name NewEngine accepts (markov keeps the solver default,
// a nil engine) and every paper scenario name, plus their one error
// message each.
func TestNewEngineAndPaperScenario(t *testing.T) {
	for _, name := range append(aved.EngineNames(), "") {
		eng, err := aved.NewEngine(aved.EngineSpec{Name: name, Seed: 1, Years: 10, Reps: 2})
		if err != nil {
			t.Fatalf("engine %q: %v", name, err)
		}
		if (eng == nil) != (name == "" || name == "markov") {
			t.Errorf("engine %q built %T", name, eng)
		}
	}
	if _, err := aved.NewEngine(aved.EngineSpec{Name: "all"}); err == nil ||
		err.Error() != `unknown engine "all" (want markov, exact or sim)` {
		t.Errorf("unknown engine error = %v", err)
	}
	for _, name := range []string{"apptier", "ecommerce", "scientific"} {
		inf, svc, err := aved.PaperScenario(name)
		if err != nil || inf == nil || svc == nil {
			t.Errorf("paper scenario %q: %v", name, err)
		}
	}
	if _, _, err := aved.PaperScenario("telco"); err == nil ||
		err.Error() != `unknown paper scenario "telco" (want apptier, ecommerce or scientific)` {
		t.Errorf("unknown scenario error = %v", err)
	}
}
