package report

import (
	"strings"
	"testing"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

func solvedDesign(t *testing.T) *model.Design {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{Registry: scenarios.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: 100 * units.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &sol.Design
}

func TestDesignReportContents(t *testing.T) {
	d := solvedDesign(t)
	var sb strings.Builder
	if err := Design(&sb, d, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"tier application — rC (machineA/linux/appserverA)",
		"actives 6 (5 for load + 1 extra)",
		"mechanisms: maintenanceA=bronze",
		"machineA       6 active × 2640",
		"appserverA     6 active × 1700",
		"maintenanceA   6 instances × 380",
		"tier total     28320",
		"machineA/hard",
		"design total: cost 28320/yr",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDesignReportWithSpares(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	td := model.TierDesign{
		TierName:  "application",
		Option:    &svc.Tiers[0].Options[0],
		NActive:   2,
		NSpare:    1,
		NMinPerf:  2,
		MinActive: 2,
		SpareWarm: 0,
		Mechanisms: []model.MechSetting{{
			Mechanism: inf.Mechanisms["maintenanceA"],
			Values:    map[string]model.ParamValue{"level": model.EnumValue("bronze")},
		}},
	}
	d := &model.Design{Tiers: []model.TierDesign{td}}
	var sb strings.Builder
	if err := Design(&sb, d, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"spares 1 (cold)",
		"2 active × 2640 + 1 spare × 2400",
		"maintenanceA   3 instances × 380",
		"tier total     12220",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestDesignReportFractionalPrices renders a design on fractional
// component prices, whose per-line sums round differently from the
// cost model's order: the report still renders, and its totals are the
// cost model's.
func TestDesignReportFractionalPrices(t *testing.T) {
	src := scenarios.InfrastructureSpec
	for _, r := range [][2]string{
		{"machineA cost([inactive,active])=[2400 2640]", "machineA cost([inactive,active])=[2400.1 2640.3]"},
		{"unix cost([inactive,active])=[0 200]", "unix cost([inactive,active])=[0 200.45]"},
		{"appserverA cost([inactive,active])=[0 1700]", "appserverA cost([inactive,active])=[0 1700.7]"},
	} {
		if !strings.Contains(src, r[0]) {
			t.Fatalf("Fig. 3 spec has no %q", r[0])
		}
		src = strings.Replace(src, r[0], r[1], 1)
	}
	inf, err := model.ParseInfrastructure(src)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{Registry: scenarios.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: 1 * units.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Design(&sb, &sol.Design, Options{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"machineA       6 active × 2640.30 + 1 spare × 2400.10 = 18241.90",
		"appserverA     6 active × 1700.70 + 1 spare × 0 = 10204.20",
		"maintenanceA   7 instances × 380 = 2660",
		"tier total     31106.10",
		"design total: cost 31106.10/yr",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestDesignReportInvalidDesign(t *testing.T) {
	var sb strings.Builder
	if err := Design(&sb, &model.Design{}, Options{}); err == nil {
		t.Error("empty design should fail")
	}
}

func TestDescribeModel(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := DescribeModel(&sb, inf, svc, 12); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"infrastructure: 9 components, 3 mechanisms, 9 resource types",
		"mechanism checkpoint   2 parameter(s), 300 setting combination(s)",
		"resource  rH           machineA/linux/mpi",
		`service "scientific": 1 tier(s), job size 10000`,
		"option rH",
		"1200 mech combos",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeModelErrors(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := DescribeModel(&sb, nil, nil, 1); err == nil {
		t.Error("nil models should fail")
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	if err := DescribeModel(&sb, inf, svc, -1); err == nil {
		t.Error("negative redundancy should fail")
	}
	unresolved, err := model.ParseService(scenarios.ScientificSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := DescribeModel(&sb, inf, unresolved, 1); err == nil {
		t.Error("unresolved service should fail")
	}
}
