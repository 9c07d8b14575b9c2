package model

import (
	"strings"
	"testing"

	"aved/internal/units"
)

const miniInfra = `
component=hw cost([inactive,active])=[100 110]
  failure=hard mtbf=100d mttr=<maint> detect_time=1m
  failure=soft mtbf=10d mttr=0 detect_time=0
component=os cost=0
  failure=soft mtbf=20d mttr=0 detect_time=0
component=app cost([inactive,active])=[0 50] loss_window=<ckpt>
  failure=soft mtbf=30d mttr=0 detect_time=0
mechanism=maint
  param=level range=[lo,hi]
    cost(level)=[10 20]
    mttr(level)=[10h 2h]
mechanism=ckpt
  param=interval range=[1m-4h;*2]
  cost=0
  loss_window=interval
resource=r1 reconfig_time=30s
  component=hw depend=null startup=1m
  component=os depend=hw startup=2m
  component=app depend=os startup=30s
`

const miniService = `
application=svc
tier=main
  resource=r1 sizing=dynamic failurescope=resource
    nActive=[1-100,+1] performance(nActive)=p.dat
`

func mustInfra(t *testing.T) *Infrastructure {
	t.Helper()
	inf, err := ParseInfrastructure(miniInfra)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

func mustDesign(t *testing.T, level string, n, s, spareWarm int) *TierDesign {
	t.Helper()
	inf := mustInfra(t)
	svc, err := ParseService(miniService)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Resolve(inf); err != nil {
		t.Fatal(err)
	}
	td := &TierDesign{
		TierName:  "main",
		Option:    &svc.Tiers[0].Options[0],
		NActive:   n,
		NSpare:    s,
		MinActive: n,
		NMinPerf:  n,
		SpareWarm: spareWarm,
		Mechanisms: []MechSetting{
			{
				Mechanism: inf.Mechanisms["maint"],
				Values:    map[string]ParamValue{"level": EnumValue(level)},
			},
			{
				Mechanism: inf.Mechanisms["ckpt"],
				Values:    map[string]ParamValue{"interval": DurationValue(2)},
			},
		},
	}
	return td
}

func TestEffectiveModesInactiveSpare(t *testing.T) {
	td := mustDesign(t, "lo", 2, 1, 0)
	ems, err := td.EffectiveModes()
	if err != nil {
		t.Fatal(err)
	}
	// hw has two modes, os and app one each.
	if len(ems) != 4 {
		t.Fatalf("effective modes = %d, want 4", len(ems))
	}
	byName := map[string]EffectiveMode{}
	for _, em := range ems {
		byName[em.Component+"/"+em.Mode] = em
	}
	hard := byName["hw/hard"]
	// Repair: detect 1m + mttr(lo) 10h + restart hw chain (1m+2m+30s).
	wantRepair := 1*units.Minute + 10*units.Hour + (1*units.Minute + 2*units.Minute + 30*units.Second)
	if hard.RepairTime != wantRepair {
		t.Errorf("hw/hard repair = %v, want %v", hard.RepairTime, wantRepair)
	}
	// Failover: detect 1m + reconfig 30s + full startup 3.5m.
	wantFO := 1*units.Minute + 30*units.Second + (1*units.Minute + 2*units.Minute + 30*units.Second)
	if hard.FailoverTime != wantFO {
		t.Errorf("hw/hard failover = %v, want %v", hard.FailoverTime, wantFO)
	}
	if !hard.UsesFailover {
		t.Error("hw/hard should fail over (10h repair >> 5m failover)")
	}
	// os soft: repair = restart os+app = 2.5m; failover 5m → no failover.
	osSoft := byName["os/soft"]
	if osSoft.RepairTime != 2*units.Minute+30*units.Second {
		t.Errorf("os/soft repair = %v", osSoft.RepairTime)
	}
	if osSoft.UsesFailover {
		t.Error("os/soft repair beats failover; no failover expected")
	}
	// app soft: repair = restart app only = 30s.
	appSoft := byName["app/soft"]
	if appSoft.RepairTime != 30*units.Second {
		t.Errorf("app/soft repair = %v", appSoft.RepairTime)
	}
}

func TestEffectiveModesActiveSpare(t *testing.T) {
	td := mustDesign(t, "hi", 2, 1, 3)
	ems, err := td.EffectiveModes()
	if err != nil {
		t.Fatal(err)
	}
	for _, em := range ems {
		if em.Component == "hw" && em.Mode == "hard" {
			// Active spare: failover = detect + reconfig only.
			want := 1*units.Minute + 30*units.Second
			if em.FailoverTime != want {
				t.Errorf("failover with hot spare = %v, want %v", em.FailoverTime, want)
			}
			// mttr(hi) = 2h.
			wantRepair := 1*units.Minute + 2*units.Hour + 3*units.Minute + 30*units.Second
			if em.RepairTime != wantRepair {
				t.Errorf("repair at hi level = %v, want %v", em.RepairTime, wantRepair)
			}
		}
	}
}

func TestEffectiveModesNoSpares(t *testing.T) {
	td := mustDesign(t, "lo", 2, 0, 0)
	ems, err := td.EffectiveModes()
	if err != nil {
		t.Fatal(err)
	}
	for _, em := range ems {
		if em.UsesFailover {
			t.Errorf("mode %s/%s uses failover with zero spares", em.Component, em.Mode)
		}
	}
}

func TestEffectiveModesMissingMechanism(t *testing.T) {
	td := mustDesign(t, "lo", 1, 0, 0)
	td.Mechanisms = nil
	if _, err := td.EffectiveModes(); err == nil {
		t.Error("missing mechanism setting should fail")
	}
}

func TestLossWindowFlowsThroughMechanism(t *testing.T) {
	td := mustDesign(t, "lo", 1, 0, 0)
	lw, ok, err := td.LossWindow()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("app component declares a loss window")
	}
	if lw != 2*units.Hour {
		t.Errorf("loss window = %v, want 2h (the chosen interval)", lw)
	}
}

func TestMechSettingValidate(t *testing.T) {
	inf := mustInfra(t)
	maint := inf.Mechanisms["maint"]
	good := MechSetting{Mechanism: maint, Values: map[string]ParamValue{"level": EnumValue("lo")}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid setting rejected: %v", err)
	}
	cases := []struct {
		name string
		ms   MechSetting
	}{
		{"nil mechanism", MechSetting{}},
		{"missing param", MechSetting{Mechanism: maint, Values: map[string]ParamValue{}}},
		{"bad enum", MechSetting{Mechanism: maint, Values: map[string]ParamValue{"level": EnumValue("zz")}}},
		{"numeric for enum", MechSetting{Mechanism: maint, Values: map[string]ParamValue{"level": DurationValue(1)}}},
		{"unknown param", MechSetting{Mechanism: maint, Values: map[string]ParamValue{
			"level": EnumValue("lo"), "bogus": EnumValue("x")}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.ms.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
	ckpt := inf.Mechanisms["ckpt"]
	outOfRange := MechSetting{Mechanism: ckpt, Values: map[string]ParamValue{"interval": DurationValue(100)}}
	if err := outOfRange.Validate(); err == nil {
		t.Error("out-of-range numeric should fail")
	}
	enumForNumeric := MechSetting{Mechanism: ckpt, Values: map[string]ParamValue{"interval": EnumValue("x")}}
	if err := enumForNumeric.Validate(); err == nil {
		t.Error("enum value for numeric param should fail")
	}
}

func TestMechSettingEffects(t *testing.T) {
	inf := mustInfra(t)
	maint := inf.Mechanisms["maint"]
	ms := MechSetting{Mechanism: maint, Values: map[string]ParamValue{"level": EnumValue("hi")}}
	mttr, ok := ms.MTTR()
	if !ok {
		t.Fatal("maint supplies no mttr")
	}
	if mttr != 2*units.Hour {
		t.Errorf("mttr(hi) = %v, want 2h", mttr)
	}
	if c := ms.CostPerInstance(); c != 20 {
		t.Errorf("cost(hi) = %v, want 20", c)
	}
	if _, ok := ms.LossWindow(); ok {
		t.Error("maint has no loss window effect")
	}
	// The effects are bound to typed tables parallel to the enum.
	cost, _ := maint.Effect("cost")
	if cost.ByParam != "level" || len(cost.Costs) != 2 || cost.Costs[0] != 10 || len(cost.Times) != 0 {
		t.Errorf("cost effect = %+v, want Costs [10 20] by level", cost)
	}
	rep, _ := maint.Effect("mttr")
	if len(rep.Times) != 2 || rep.Times[0] != 10*units.Hour || len(rep.Costs) != 0 {
		t.Errorf("mttr effect = %+v, want Times [10h 2h]", rep)
	}
	// A setting off the enumeration resolves nothing and prices at zero.
	off := MechSetting{Mechanism: maint, Values: map[string]ParamValue{"level": EnumValue("zz")}}
	if _, ok := off.MTTR(); ok {
		t.Error("unresolvable setting supplied an mttr")
	}
	if c := off.CostPerInstance(); c != 0 {
		t.Errorf("unresolvable setting costs %v, want 0", c)
	}
	// A numeric parameter passes its chosen value through unrounded.
	ckpt := inf.Mechanisms["ckpt"]
	lw, ok := MechSetting{Mechanism: ckpt, Values: map[string]ParamValue{"interval": DurationValue(1.23456789)}}.LossWindow()
	if !ok || lw != units.FromHours(1.23456789) {
		t.Errorf("loss window = %v %v, want the chosen interval exactly", lw, ok)
	}
}

func TestTierDesignValidate(t *testing.T) {
	good := mustDesign(t, "lo", 2, 1, 0)
	if err := good.Validate(); err != nil {
		t.Errorf("valid design rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*TierDesign)
	}{
		{"zero actives", func(td *TierDesign) { td.NActive = 0 }},
		{"negative spares", func(td *TierDesign) { td.NSpare = -1 }},
		{"m above n", func(td *TierDesign) { td.MinActive = 5 }},
		{"m zero", func(td *TierDesign) { td.MinActive = 0 }},
		{"n outside grid", func(td *TierDesign) { td.NActive = 500; td.MinActive = 1 }},
		{"warm out of range", func(td *TierDesign) { td.SpareWarm = 9 }},
		{"warm without spares", func(td *TierDesign) { td.NSpare = 0; td.SpareWarm = 1 }},
		{"missing mechanism", func(td *TierDesign) { td.Mechanisms = td.Mechanisms[:1] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			td := mustDesign(t, "lo", 2, 1, 0)
			tc.mutate(td)
			if err := td.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestDesignLabels(t *testing.T) {
	td := mustDesign(t, "lo", 3, 1, 0)
	td.NMinPerf = 2 // one extra active
	label := td.Label()
	for _, want := range []string{"r1", "n=3", "(+1)", "s=1", "cold", "maint=lo"} {
		if !strings.Contains(label, want) {
			t.Errorf("label %q missing %q", label, want)
		}
	}
	d := &Design{Tiers: []TierDesign{*td}}
	if err := d.Validate(); err != nil {
		t.Errorf("design validate: %v", err)
	}
	if !strings.Contains(d.Label(), "main{") {
		t.Errorf("design label = %q", d.Label())
	}
	if _, ok := d.Tier("main"); !ok {
		t.Error("Tier lookup failed")
	}
	if _, ok := d.Tier("nope"); ok {
		t.Error("Tier lookup should miss")
	}
	empty := &Design{}
	if err := empty.Validate(); err == nil {
		t.Error("empty design should fail validation")
	}
}

func TestBindInfraErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		at   string // position prefix the error must carry; empty to skip
	}{
		{"dup component", "component=a cost=0 failure=f mtbf=1d mttr=0 detect_time=0 component=a cost=0 failure=f mtbf=1d mttr=0 detect_time=0", ""},
		{"failure outside component", "failure=f mtbf=1d", ""},
		{"no failure modes", "component=a cost=0", ""},
		{"missing mtbf", "component=a cost=0 failure=f mttr=0 detect_time=0", ""},
		{"unknown mech ref", "component=a cost=0 failure=f mtbf=1d mttr=<nope> detect_time=0", ""},
		{"bad cost", "component=a cost=abc failure=f mtbf=1d mttr=0 detect_time=0", ""},
		{"bad duration", "component=a cost=0 failure=f mtbf=xyz mttr=0 detect_time=0", ""},
		{"param outside mechanism", "param=p range=[a,b]", ""},
		{"table size mismatch", "mechanism=m param=p range=[a,b] cost(p)=[1 2 3]", "spec:1:33:"},
		{"effect on numeric param", "mechanism=m param=p range=[1m-2m;*2] cost(p)=[1 2]", "spec:1:38:"},
		{"unknown effect param", "mechanism=m cost(q)=[1]", "spec:1:13:"},
		{"resource unknown component", "resource=r reconfig_time=0 component=ghost depend=null startup=1s", ""},
		{"resource empty", "component=a cost=0 failure=f mtbf=1d mttr=0 detect_time=0 resource=r reconfig_time=0", ""},
		{"bad dependency", "component=a cost=0 failure=f mtbf=1d mttr=0 detect_time=0 resource=r reconfig_time=0 component=a depend=ghost startup=1s", ""},
		{"tier in infra", "tier=t", ""},
		{"dup failure mode", "component=a cost=0 failure=f mtbf=1d mttr=0 detect_time=0 failure=f mtbf=1d mttr=0 detect_time=0", ""},
		// Every mechanism value is typed at bind, so a malformed one
		// fails here, at the attribute's position, before any search.
		{"bad effect value", "mechanism=m param=level range=[lo,hi] cost(level)=[oops 580]", "spec:1:39:"},
		{"unknown effect", "mechanism=m param=level range=[lo,hi] colour=red", "spec:1:39:"},
		{"enum pass-through", "mechanism=m param=level range=[lo,hi] mttr=level", "spec:1:39:"},
		{"bad scalar loss window", "mechanism=m param=p range=[1m-24h;*1.05] loss_window=sometimes", "spec:1:42:"},
		{"cost pass-through", "mechanism=m param=p range=[1m-24h;*1.05] cost=p", "spec:1:42:"},
		{"dup effect", "mechanism=m cost=0 param=p range=[a,b] cost(p)=[1 2]", "spec:1:40:"},
		{"setting with blanks", "mechanism=m param=p range=[a b,c]", "spec:1:21:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseInfrastructure(tc.src)
			if err == nil {
				t.Fatalf("ParseInfrastructure(%q) succeeded, want error", tc.src)
			}
			if !strings.HasPrefix(err.Error(), tc.at) {
				t.Errorf("error %q does not start with %q", err, tc.at)
			}
		})
	}
}

func TestBindServiceErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no application", "tier=t"},
		{"tier before application", "tier=t application=a"},
		{"resource outside tier", "application=a resource=r sizing=static failurescope=tier nActive=[1] performance=1"},
		{"bad sizing", "application=a tier=t resource=r sizing=maybe failurescope=tier nActive=[1] performance=1"},
		{"bad scope", "application=a tier=t resource=r sizing=static failurescope=galaxy nActive=[1] performance=1"},
		{"missing nActive", "application=a tier=t resource=r sizing=static failurescope=tier performance=1"},
		{"missing performance", "application=a tier=t resource=r sizing=static failurescope=tier nActive=[1]"},
		{"bad jobsize", "application=a jobsize=-5"},
		{"mechanism outside option", "application=a tier=t mechanism=ck mperformance(x)=f.dat"},
		{"dup tier", "application=a tier=t tier=t"},
		{"component in service", "application=a component=c cost=0"},
		{"zero nActive", "application=a tier=t resource=r sizing=static failurescope=tier nActive=[0-5,+1] performance=1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseService(tc.src); err == nil {
				t.Errorf("ParseService(%q) succeeded, want error", tc.src)
			}
		})
	}
}

func TestServiceResolveErrors(t *testing.T) {
	inf := mustInfra(t)
	svc, err := ParseService("application=a tier=t resource=ghost sizing=static failurescope=tier nActive=[1] performance=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Resolve(inf); err == nil {
		t.Error("unknown resource should fail to resolve")
	}
	empty := &Service{Name: "x"}
	if err := empty.Resolve(inf); err == nil {
		t.Error("service without tiers should fail")
	}
}

func TestRequirementsValidate(t *testing.T) {
	good := Requirements{Kind: ReqEnterprise, Throughput: 100, MaxAnnualDowntime: units.Hour}
	if err := good.Validate(); err != nil {
		t.Errorf("valid requirements rejected: %v", err)
	}
	bad := []Requirements{
		{},
		{Kind: ReqEnterprise},
		{Kind: ReqEnterprise, Throughput: 100},
		{Kind: ReqJob},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("requirements %d should fail", i)
		}
	}
	job := Requirements{Kind: ReqJob, MaxJobTime: 10 * units.Hour}
	if err := job.Validate(); err != nil {
		t.Errorf("job requirements rejected: %v", err)
	}
}

func TestOpModeAndEnumStrings(t *testing.T) {
	if ModeInactive.String() != "inactive" || ModeActive.String() != "active" {
		t.Error("OpMode strings wrong")
	}
	if SizingStatic.String() != "static" || SizingDynamic.String() != "dynamic" {
		t.Error("Sizing strings wrong")
	}
	if ScopeResource.String() != "resource" || ScopeTier.String() != "tier" {
		t.Error("FailureScope strings wrong")
	}
	if OpMode(9).String() == "" || Sizing(9).String() == "" || FailureScope(9).String() == "" {
		t.Error("unknown enum values should still render")
	}
}

func TestComponentMaxInstances(t *testing.T) {
	tests := []struct {
		give    string
		want    int
		wantErr string
	}{
		{give: "3", want: 3},
		{give: "+3", want: 3},
		{give: "0", wantErr: `spec:1:20: max_instances: want a positive integer, got "0"`},
		{give: "-2", wantErr: `spec:1:20: max_instances: want a positive integer, got "-2"`},
		{give: "3.5", wantErr: `spec:1:20: max_instances: want a positive integer, got "3.5"`},
		{give: "2e3", wantErr: `spec:1:20: max_instances: want a positive integer, got "2e3"`},
		{give: "3x", wantErr: `spec:1:20: max_instances: want a positive integer, got "3x"`},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			inf, err := ParseInfrastructure("component=a cost=0 max_instances=" + tt.give + " failure=f mtbf=1d mttr=0 detect_time=0")
			if tt.wantErr != "" {
				if err == nil || err.Error() != tt.wantErr {
					t.Fatalf("max_instances=%s: error %v, want %s", tt.give, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := inf.Components["a"].MaxInstances; got != tt.want {
				t.Errorf("max_instances = %d, want %d", got, tt.want)
			}
		})
	}
}
