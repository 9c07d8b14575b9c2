package cost

import (
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// tierDesign builds a §5.1-style application-tier design on rC.
func tierDesign(t *testing.T, resource, level string, nActive, nSpare, spareWarm int) *model.TierDesign {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	tier := &svc.Tiers[0]
	var opt *model.ResourceOption
	for i := range tier.Options {
		if tier.Options[i].Resource == resource {
			opt = &tier.Options[i]
		}
	}
	if opt == nil {
		t.Fatalf("resource %q not in tier", resource)
	}
	td := &model.TierDesign{
		TierName:  tier.Name,
		Option:    opt,
		NActive:   nActive,
		NSpare:    nSpare,
		MinActive: nActive,
		NMinPerf:  nActive,
		SpareWarm: spareWarm,
	}
	for _, mechName := range opt.ResourceType().Mechanisms() {
		mech := inf.Mechanisms[mechName]
		ms := model.MechSetting{Mechanism: mech, Values: map[string]model.ParamValue{}}
		for _, p := range mech.Params {
			if p.IsEnum() {
				ms.Values[p.Name] = model.EnumValue(level)
			} else {
				ms.Values[p.Name] = model.DurationValue(p.Grid.Lo())
			}
		}
		td.Mechanisms = append(td.Mechanisms, ms)
	}
	return td
}

func TestTierCostActivesOnly(t *testing.T) {
	// rC active instance: machineA 2640 + linux 0 + appserverA 1700 =
	// 4340; bronze contract 380/machine. n=2 → 2×4720 = 9440.
	td := tierDesign(t, "rC", "bronze", 2, 0, 0)
	got, err := Tier(td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 9440 {
		t.Errorf("cost = %v, want 9440", got)
	}
}

func TestTierCostGoldContract(t *testing.T) {
	// Gold: 760/machine → 2×(4340+760) = 10200.
	td := tierDesign(t, "rC", "gold", 2, 0, 0)
	got, err := Tier(td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10200 {
		t.Errorf("cost = %v, want 10200", got)
	}
}

func TestTierCostInactiveSpare(t *testing.T) {
	// Family 6 of Fig. 6: 2 actives + 1 inactive spare, bronze.
	// Actives 2×4340, spare machineA 2400 (linux and appserverA cost
	// nothing inactive), contract 3×380 → 12220.
	td := tierDesign(t, "rC", "bronze", 2, 1, 0)
	got, err := Tier(td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 12220 {
		t.Errorf("cost = %v, want 12220", got)
	}
}

func TestTierCostActiveSpare(t *testing.T) {
	// A hot spare (warmth 3/3) pays full component prices: 3×4340 + 3×380.
	td := tierDesign(t, "rC", "bronze", 2, 1, 3)
	got, err := Tier(td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3*4340+3*380 {
		t.Errorf("cost = %v, want %v", got, 3*4340+3*380)
	}
}

func TestFamily3Vs6Crossover(t *testing.T) {
	// The paper's §5.1 observation: gold with no spare beats bronze
	// with one inactive spare below ~1400 load units (n ≤ 7) and loses
	// above it.
	for n := 2; n <= 12; n++ {
		gold := tierDesign(t, "rC", "gold", n, 0, 0)
		bronzeSpare := tierDesign(t, "rC", "bronze", n, 1, 0)
		cg, err := Tier(gold)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := Tier(bronzeSpare)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 7 && cg >= cb {
			t.Errorf("n=%d: gold (%v) should undercut bronze+spare (%v)", n, cg, cb)
		}
		if n >= 8 && cb >= cg {
			t.Errorf("n=%d: bronze+spare (%v) should undercut gold (%v)", n, cb, cg)
		}
	}
}

func TestMachineBCostStructure(t *testing.T) {
	// rE active: machineB 93500 + unix 200 + appserverA 1700 = 95400;
	// bronze maintenanceB 10100 → 105500 per machine.
	td := tierDesign(t, "rE", "bronze", 1, 0, 0)
	got, err := Tier(td)
	if err != nil {
		t.Fatal(err)
	}
	if got != 105500 {
		t.Errorf("cost = %v, want 105500", got)
	}
}

func TestTierCostUnresolvedOption(t *testing.T) {
	td := &model.TierDesign{TierName: "x", Option: &model.ResourceOption{}}
	if _, err := Tier(td); err == nil {
		t.Error("unresolved option should fail")
	}
}

func TestCheckpointMechanismIsFree(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	ck := inf.Mechanisms["checkpoint"]
	ms := model.MechSetting{Mechanism: ck, Values: map[string]model.ParamValue{
		"storage_location":    model.EnumValue("peer"),
		"checkpoint_interval": model.DurationValue(2),
	}}
	if got := ms.CostPerInstance(); got != 0 {
		t.Errorf("checkpoint cost = %v, want 0", got)
	}
	_ = units.Money(0)
}
