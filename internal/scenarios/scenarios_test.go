package scenarios

import (
	"testing"

	"aved/internal/model"
	"aved/internal/units"
)

func mustInfra(t *testing.T) *model.Infrastructure {
	t.Helper()
	inf, err := Infrastructure()
	if err != nil {
		t.Fatalf("Infrastructure(): %v", err)
	}
	return inf
}

func TestFig3ComponentInventory(t *testing.T) {
	inf := mustInfra(t)
	want := []string{"machineA", "machineB", "linux", "unix", "webserver",
		"appserverA", "appserverB", "database", "mpi"}
	got := inf.ComponentNames()
	if len(got) != len(want) {
		t.Fatalf("component count = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("component[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFig3MachineA(t *testing.T) {
	inf := mustInfra(t)
	mA := inf.Components["machineA"]
	if mA.CostInactive != 2400 || mA.CostActive != 2640 {
		t.Errorf("machineA cost = [%v %v], want [2400 2640]", mA.CostInactive, mA.CostActive)
	}
	hard, ok := mA.FailureMode("hard")
	if !ok {
		t.Fatal("machineA missing hard failure mode")
	}
	if hard.MTBF != 650*units.Day {
		t.Errorf("machineA hard mtbf = %v, want 650d", hard.MTBF)
	}
	if hard.MTTRRef != "maintenanceA" {
		t.Errorf("machineA hard mttr ref = %q, want maintenanceA", hard.MTTRRef)
	}
	if hard.DetectTime != 2*units.Minute {
		t.Errorf("machineA hard detect = %v, want 2m", hard.DetectTime)
	}
	soft, ok := mA.FailureMode("soft")
	if !ok {
		t.Fatal("machineA missing soft failure mode")
	}
	if soft.MTBF != 75*units.Day || soft.MTTR != 0 || soft.DetectTime != 0 {
		t.Errorf("machineA soft = %+v", soft)
	}
}

func TestFig3MachineB(t *testing.T) {
	inf := mustInfra(t)
	mB := inf.Components["machineB"]
	if mB.CostInactive != 85000 || mB.CostActive != 93500 {
		t.Errorf("machineB cost = [%v %v], want [85000 93500]", mB.CostInactive, mB.CostActive)
	}
	hard, _ := mB.FailureMode("hard")
	if hard.MTBF != 1300*units.Day || hard.MTTRRef != "maintenanceB" {
		t.Errorf("machineB hard = %+v", hard)
	}
	soft, _ := mB.FailureMode("soft")
	if soft.MTBF != 150*units.Day {
		t.Errorf("machineB soft mtbf = %v, want 150d", soft.MTBF)
	}
}

func TestFig3SoftwareComponents(t *testing.T) {
	inf := mustInfra(t)
	tests := []struct {
		name             string
		inactive, active units.Money
	}{
		{"linux", 0, 0},
		{"unix", 0, 200},
		{"webserver", 0, 0},
		{"appserverA", 0, 1700},
		{"appserverB", 0, 2000},
		{"database", 0, 20000},
		{"mpi", 0, 0},
	}
	for _, tt := range tests {
		c := inf.Components[tt.name]
		if c == nil {
			t.Errorf("missing component %q", tt.name)
			continue
		}
		if c.CostInactive != tt.inactive || c.CostActive != tt.active {
			t.Errorf("%s cost = [%v %v], want [%v %v]",
				tt.name, c.CostInactive, c.CostActive, tt.inactive, tt.active)
		}
		soft, ok := c.FailureMode("soft")
		if !ok || soft.MTBF != 60*units.Day {
			t.Errorf("%s soft failure = %+v (want mtbf 60d)", tt.name, soft)
		}
	}
	if ref := inf.Components["mpi"].LossWindowRef; ref != "checkpoint" {
		t.Errorf("mpi loss-window mechanism = %q, want checkpoint", ref)
	}
}

func TestFig3Mechanisms(t *testing.T) {
	inf := mustInfra(t)
	mA := inf.Mechanisms["maintenanceA"]
	if mA == nil {
		t.Fatal("missing maintenanceA")
	}
	level, ok := mA.Param("level")
	if !ok || len(level.Enum) != 4 || level.Enum[0] != "bronze" || level.Enum[3] != "platinum" {
		t.Errorf("maintenanceA level = %+v", level)
	}
	costEff, ok := mA.Effect("cost")
	if !ok || len(costEff.Costs) != 4 || costEff.Costs[0] != 380 || costEff.Costs[3] != 1500 {
		t.Errorf("maintenanceA cost effect = %+v", costEff)
	}
	mttrEff, ok := mA.Effect("mttr")
	if !ok || len(mttrEff.Times) != 4 || mttrEff.Times[0] != 38*units.Hour || mttrEff.Times[3] != 6*units.Hour {
		t.Errorf("maintenanceA mttr effect = %+v", mttrEff)
	}
	mB := inf.Mechanisms["maintenanceB"]
	costB, _ := mB.Effect("cost")
	if len(costB.Costs) != 4 || costB.Costs[0] != 10100 || costB.Costs[3] != 25300 {
		t.Errorf("maintenanceB cost = %v", costB.Costs)
	}
	ck := inf.Mechanisms["checkpoint"]
	if ck == nil {
		t.Fatal("missing checkpoint mechanism")
	}
	loc, ok := ck.Param("storage_location")
	if !ok || len(loc.Enum) != 2 || loc.Enum[0] != "central" || loc.Enum[1] != "peer" {
		t.Errorf("checkpoint storage_location = %+v", loc)
	}
	cpi, ok := ck.Param("checkpoint_interval")
	if !ok || cpi.IsEnum() {
		t.Fatalf("checkpoint interval = %+v", cpi)
	}
	if cpi.Grid.Lo() != 1.0/60 || cpi.Grid.Hi() != 24 || !cpi.Grid.Geometric() {
		t.Errorf("checkpoint interval grid = %v", cpi.Grid)
	}
	lw, ok := ck.Effect("loss_window")
	if !ok || lw.Pass != "checkpoint_interval" || len(lw.Times) != 0 {
		t.Errorf("checkpoint loss_window effect = %+v", lw)
	}
}

func TestFig3Resources(t *testing.T) {
	inf := mustInfra(t)
	want := []string{"rA", "rB", "rC", "rD", "rE", "rF", "rG", "rH", "rI"}
	got := inf.ResourceNames()
	if len(got) != len(want) {
		t.Fatalf("resources = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resource[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	rC := inf.Resources["rC"]
	if len(rC.Components) != 3 {
		t.Fatalf("rC components = %d", len(rC.Components))
	}
	if rC.Components[0].Component.Name != "machineA" ||
		rC.Components[1].Component.Name != "linux" ||
		rC.Components[2].Component.Name != "appserverA" {
		t.Errorf("rC stack wrong: %v", rC.Components)
	}
	if rC.Components[1].DependsOn != "machineA" || rC.Components[2].DependsOn != "linux" {
		t.Error("rC dependency chain wrong")
	}
	// Full startup: 30s + 2m + 2m = 4.5m.
	if got := rC.FullStartup(); got != units.Duration(270)*units.Second {
		t.Errorf("rC full startup = %v, want 4.5m", got)
	}
	// Restart after linux failure: linux + appserverA = 4m.
	if got := rC.RestartTime("linux"); got != 4*units.Minute {
		t.Errorf("rC restart(linux) = %v, want 4m", got)
	}
	// Restart after appserver failure: just the appserver.
	if got := rC.RestartTime("appserverA"); got != 2*units.Minute {
		t.Errorf("rC restart(appserverA) = %v, want 2m", got)
	}
	// machineA failure restarts everything.
	if got := rC.RestartTime("machineA"); got != rC.FullStartup() {
		t.Errorf("rC restart(machineA) = %v, want full startup", got)
	}
	// Mechanism references.
	if ms := rC.Mechanisms(); len(ms) != 1 || ms[0] != "maintenanceA" {
		t.Errorf("rC mechanisms = %v", ms)
	}
	rH := inf.Resources["rH"]
	ms := rH.Mechanisms()
	if len(ms) != 2 {
		t.Fatalf("rH mechanisms = %v, want checkpoint and maintenanceA", ms)
	}
}

func TestFig4Ecommerce(t *testing.T) {
	inf := mustInfra(t)
	svc, err := Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	if svc.Name != "ecommerce" || svc.HasJobSize {
		t.Errorf("service = %+v", svc)
	}
	if len(svc.Tiers) != 3 {
		t.Fatalf("tiers = %d, want 3", len(svc.Tiers))
	}
	app, ok := svc.Tier("application")
	if !ok || len(app.Options) != 4 {
		t.Fatalf("application tier options = %+v", app)
	}
	for i, wantRes := range []string{"rC", "rD", "rE", "rF"} {
		opt := app.Options[i]
		if opt.Resource != wantRes {
			t.Errorf("option[%d] = %q, want %q", i, opt.Resource, wantRes)
		}
		if opt.Sizing != model.SizingDynamic || opt.FailureScope != model.ScopeResource {
			t.Errorf("option[%d] sizing/scope = %v/%v", i, opt.Sizing, opt.FailureScope)
		}
		if opt.NActive.Lo() != 1 || opt.NActive.Hi() != 1000 {
			t.Errorf("option[%d] nActive = %v", i, opt.NActive)
		}
		if opt.ResourceType() == nil {
			t.Errorf("option[%d] unresolved", i)
		}
	}
	db, ok := svc.Tier("database")
	if !ok || len(db.Options) != 1 {
		t.Fatalf("database tier = %+v", db)
	}
	if !db.Options[0].PerfIsScalar || db.Options[0].PerfScalar != 10000 {
		t.Errorf("database performance = %+v", db.Options[0])
	}
	if db.Options[0].Sizing != model.SizingStatic {
		t.Error("database sizing should be static")
	}
}

func TestFig5Scientific(t *testing.T) {
	inf := mustInfra(t)
	svc, err := Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.HasJobSize || svc.JobSize != 10000 {
		t.Errorf("jobsize = %v (%v)", svc.JobSize, svc.HasJobSize)
	}
	comp, ok := svc.Tier("computation")
	if !ok || len(comp.Options) != 2 {
		t.Fatalf("computation tier = %+v", comp)
	}
	for i, wantRes := range []string{"rH", "rI"} {
		opt := comp.Options[i]
		if opt.Resource != wantRes {
			t.Errorf("option[%d] = %q, want %q", i, opt.Resource, wantRes)
		}
		if opt.Sizing != model.SizingStatic || opt.FailureScope != model.ScopeTier {
			t.Errorf("option[%d] sizing/scope = %v/%v", i, opt.Sizing, opt.FailureScope)
		}
		mp, ok := opt.MechPerfFor("checkpoint")
		if !ok {
			t.Fatalf("option[%d] missing checkpoint mperformance", i)
		}
		if len(mp.Args) != 3 || mp.Args[0] != "storage_location" || mp.Args[2] != "nActive" {
			t.Errorf("option[%d] mperf args = %v", i, mp.Args)
		}
	}
}

func TestApplicationTierScenario(t *testing.T) {
	inf := mustInfra(t)
	svc, err := ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Tiers) != 1 || len(svc.Tiers[0].Options) != 4 {
		t.Fatalf("application tier scenario = %+v", svc)
	}
}

func TestRegistryCoversAllReferences(t *testing.T) {
	inf := mustInfra(t)
	reg := Registry()
	for _, loader := range []func(*model.Infrastructure) (*model.Service, error){Ecommerce, ApplicationTier, Scientific} {
		svc, err := loader(inf)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range svc.Tiers {
			for _, opt := range tier.Options {
				if !opt.PerfIsScalar {
					if _, err := reg.Curve(opt.PerfRef); err != nil {
						t.Errorf("service %s tier %s: %v", svc.Name, tier.Name, err)
					}
				}
				for _, mp := range opt.MechPerf {
					if _, err := reg.Overhead(mp.Ref); err != nil {
						t.Errorf("service %s tier %s: %v", svc.Name, tier.Name, err)
					}
				}
			}
		}
	}
}
