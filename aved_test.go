package aved_test

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aved"
)

func paperSolver(t *testing.T) *aved.Solver {
	t.Helper()
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := aved.PaperApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := aved.NewSolver(inf, svc, aved.Options{Registry: aved.PaperRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEndToEndEnterprise(t *testing.T) {
	s := paperSolver(t)
	sol, err := s.Solve(aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: aved.Minutes(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.DowntimeMinutes > 100 {
		t.Errorf("downtime %v over budget", sol.DowntimeMinutes)
	}
	label := sol.Design.Label()
	if !strings.Contains(label, "rC") {
		t.Errorf("design label = %q", label)
	}
	fam := aved.FamilyOf(&sol.Design.Tiers[0])
	if fam.NExtra != 1 || fam.NSpare != 0 {
		t.Errorf("family = %+v, want the paper's family 9", fam)
	}
}

func TestEndToEndJob(t *testing.T) {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := aved.PaperScientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := aved.NewSolver(inf, svc, aved.Options{
		Registry:        aved.PaperRegistry(),
		FixedMechanisms: aved.Bronze(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(aved.Requirements{Kind: aved.ReqJob, MaxJobTime: aved.Hours(100)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.JobTime > aved.Hours(100) {
		t.Errorf("job time %v over requirement", sol.JobTime)
	}
	if sol.Cost <= 0 {
		t.Error("cost should be positive")
	}
}

func TestLoadFromFiles(t *testing.T) {
	dir := t.TempDir()
	infPath := filepath.Join(dir, "infra.spec")
	svcPath := filepath.Join(dir, "service.spec")
	if err := os.WriteFile(infPath, []byte(aved.PaperInfrastructureSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(svcPath, []byte(aved.PaperEcommerceSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	inf, err := aved.LoadInfrastructureFile(infPath)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := aved.LoadServiceFile(svcPath, inf)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name != "ecommerce" || len(svc.Tiers) != 3 {
		t.Errorf("service = %q with %d tiers", svc.Name, len(svc.Tiers))
	}
	if _, err := aved.LoadInfrastructureFile(filepath.Join(dir, "missing.spec")); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := aved.LoadServiceFile(filepath.Join(dir, "missing.spec"), inf); err == nil {
		t.Error("missing service file should fail")
	}
}

func TestEnginesAgreeThroughFacade(t *testing.T) {
	s := paperSolver(t)
	sol, err := s.Solve(aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        600,
		MaxAnnualDowntime: aved.Minutes(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := aved.EvaluateDesign(&sol.Design, aved.MarkovEngine())
	if err != nil {
		t.Fatal(err)
	}
	simEng, err := aved.SimEngineAdaptive(99, 2000, 6, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	simulated, err := aved.EvaluateDesign(&sol.Design, simEng)
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(simulated.DowntimeMinutes-analytic.DowntimeMinutes) /
		math.Max(analytic.DowntimeMinutes, 1)
	if rel > 0.10 {
		t.Errorf("engines disagree: markov %.1f vs sim %.1f (rel %.2f)",
			analytic.DowntimeMinutes, simulated.DowntimeMinutes, rel)
	}
}

func TestInfeasibleSurfacesThroughFacade(t *testing.T) {
	s := paperSolver(t)
	_, err := s.Solve(aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        1e12,
		MaxAnnualDowntime: aved.Minutes(100),
	})
	var infErr *aved.InfeasibleError
	if !errors.As(err, &infErr) {
		t.Errorf("want InfeasibleError, got %v", err)
	}
}

func TestDurationHelpers(t *testing.T) {
	if aved.Minutes(90) != aved.Hours(1.5) {
		t.Error("Minutes/Hours disagree")
	}
	d, err := aved.ParseDuration("38h")
	if err != nil || d != aved.Hours(38) {
		t.Errorf("ParseDuration = %v, %v", d, err)
	}
}

// Example demonstrates the quickstart flow on the paper's own inputs.
func Example() {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	svc, err := aved.PaperApplicationTier(inf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	solver, err := aved.NewSolver(inf, svc, aved.Options{Registry: aved.PaperRegistry()})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sol, err := solver.Solve(aved.Requirements{
		Kind:              aved.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: aved.Minutes(100),
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	td := &sol.Design.Tiers[0]
	fmt.Printf("resource=%s actives=%d spares=%d cost=%s\n",
		td.Resource().Name, td.NActive, td.NSpare, sol.Cost)
	// Output:
	// resource=rC actives=6 spares=0 cost=28320
}

// ExampleLoadInfrastructure shows parsing a hand-written spec.
func ExampleLoadInfrastructure() {
	inf, err := aved.LoadInfrastructure(`
component=node cost=1000
  failure=crash mtbf=100d mttr=8h detect_time=1m
resource=web reconfig_time=0
  component=node depend=null startup=2m
`)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(len(inf.Components), len(inf.Resources))
	// Output:
	// 1 1
}
