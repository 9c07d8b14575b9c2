package model

import (
	"reflect"
	"strings"
	"testing"

	"aved/internal/units"
)

func TestWriteInfrastructureRoundTrip(t *testing.T) {
	inf := mustInfra(t)
	rendered := inf.Spec()
	back, err := ParseInfrastructure(rendered)
	if err != nil {
		t.Fatalf("reparse failed: %v\nrendered:\n%s", err, rendered)
	}
	// Idempotence: rendering the reparsed model reproduces the text.
	if again := back.Spec(); again != rendered {
		t.Errorf("render not idempotent:\nfirst:\n%s\nsecond:\n%s", rendered, again)
	}
	// Structural equivalence of key entities.
	if !reflect.DeepEqual(inf.ComponentNames(), back.ComponentNames()) {
		t.Errorf("component names differ: %v vs %v", inf.ComponentNames(), back.ComponentNames())
	}
	for _, name := range inf.ComponentNames() {
		if !reflect.DeepEqual(inf.Components[name], back.Components[name]) {
			t.Errorf("component %q differs:\n%+v\n%+v", name, inf.Components[name], back.Components[name])
		}
	}
	for _, name := range inf.MechanismNames() {
		a, b := inf.Mechanisms[name], back.Mechanisms[name]
		if !reflect.DeepEqual(a.Effects, b.Effects) {
			t.Errorf("mechanism %q effects differ:\n%+v\n%+v", name, a.Effects, b.Effects)
		}
		if len(a.Params) != len(b.Params) {
			t.Fatalf("mechanism %q param count differs", name)
		}
		for i := range a.Params {
			pa, pb := a.Params[i], b.Params[i]
			if pa.Name != pb.Name || !reflect.DeepEqual(pa.Enum, pb.Enum) {
				t.Errorf("mechanism %q param %d differs: %+v vs %+v", name, i, pa, pb)
			}
			if !pa.IsEnum() {
				if pa.Grid.Lo() != pb.Grid.Lo() || pa.Grid.Hi() != pb.Grid.Hi() ||
					pa.Grid.Geometric() != pb.Grid.Geometric() {
					t.Errorf("mechanism %q param %q grid differs: %v vs %v", name, pa.Name, pa.Grid, pb.Grid)
				}
			}
		}
	}
	for _, name := range inf.ResourceNames() {
		a, b := inf.Resources[name], back.Resources[name]
		if a.ReconfigTime != b.ReconfigTime || len(a.Components) != len(b.Components) {
			t.Fatalf("resource %q differs", name)
		}
		for i := range a.Components {
			if a.Components[i].Component.Name != b.Components[i].Component.Name ||
				a.Components[i].DependsOn != b.Components[i].DependsOn ||
				a.Components[i].Startup != b.Components[i].Startup {
				t.Errorf("resource %q member %d differs", name, i)
			}
		}
	}
}

func TestWriteServiceRoundTrip(t *testing.T) {
	svc, err := ParseService(miniService)
	if err != nil {
		t.Fatal(err)
	}
	rendered := svc.Spec()
	back, err := ParseService(rendered)
	if err != nil {
		t.Fatalf("reparse failed: %v\nrendered:\n%s", err, rendered)
	}
	if again := back.Spec(); again != rendered {
		t.Errorf("render not idempotent:\nfirst:\n%s\nsecond:\n%s", rendered, again)
	}
	if back.Name != svc.Name || back.HasJobSize != svc.HasJobSize {
		t.Errorf("service header differs")
	}
}

func TestWriteServiceWithJobSizeAndMechPerf(t *testing.T) {
	svc, err := ParseService(`
application=sci jobsize=10000
tier=compute
  resource=r1 sizing=static failurescope=tier
    nActive=[1-1000,+1] performance(nActive)=p.dat
    mechanism=ckpt mperformance(interval, nActive)=mp.dat
tier=db
  resource=r1 sizing=static failurescope=resource
    nActive=[1] performance=5000
`)
	if err != nil {
		t.Fatal(err)
	}
	rendered := svc.Spec()
	for _, want := range []string{"jobsize=10000", "mperformance(interval,nActive)=mp.dat",
		"performance=5000", "nActive=[1-1000,+1]", "failurescope=tier"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered service missing %q:\n%s", want, rendered)
		}
	}
	back, err := ParseService(rendered)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, rendered)
	}
	if back.JobSize != 10000 {
		t.Errorf("jobsize lost: %v", back.JobSize)
	}
	mp := back.Tiers[0].Options[0].MechPerf
	if len(mp) != 1 || mp[0].Ref != "mp.dat" || len(mp[0].Args) != 2 {
		t.Errorf("mech perf lost: %+v", mp)
	}
}

// TestFormatDurationGridRoundTrip pins that a rendered grid reads back
// identical, including bounds and ratios the three-decimal display form
// would round and a degenerate geometric grid that is not a singleton.
func TestFormatDurationGridRoundTrip(t *testing.T) {
	for _, src := range []string{"[1m-24h;*1.05]", "[2h]", "[10m-60m,+10m]", "[30s-5m;*2]",
		"[1.00001m-24h;*1.00001]", "[1m-1m;*2]", "[0.3333333s-1000.1234567d,+1.1h]", "[0]"} {
		g, err := units.ParseDurationGrid(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rendered := units.FormatDurationGrid(g)
		back, err := units.ParseDurationGrid(rendered)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", rendered, src, err)
		}
		if back != g {
			t.Errorf("%s → %s: grid drifted (%+v vs %+v)", src, rendered, g, back)
		}
	}
	g, _ := units.ParseDurationGrid("[1m-24h;*1.05]")
	if got := units.FormatDurationGrid(g); got != "[1m-1d;*1.05]" {
		t.Errorf("Fig. 3 checkpoint grid renders as %q, want [1m-1d;*1.05]", got)
	}
}
