package model_test

import (
	"reflect"
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
)

// The Fig. 3/4/5 parsers sit on the service boundary now that specs
// arrive over HTTP (internal/server), so they must reject any byte
// sequence with an error — never a panic — and their writers must
// round-trip whatever they accept. Seed corpora live under
// testdata/fuzz/; `go test -fuzz FuzzParseInfrastructure ./internal/model`
// runs a real campaign, and the seeds run as regular tests.

// FuzzParseInfrastructure fuzzes the Fig. 3 infrastructure parser, and
// for accepted inputs pins the write/reparse round trip by value: the
// rendered spec must parse back to an identical bound model — every
// component cost, failure-mode and resource duration, parameter grid
// and mechanism effect.
func FuzzParseInfrastructure(f *testing.F) {
	seeds := []string{
		"",
		scenarios.InfrastructureSpec,
		"component=machineA cost=0",
		"component=machineA cost([inactive,active])=[2400 2640]\n  failure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m",
		"mechanism=checkpoint\n  param=storage_location range=[central,peer]\n  cost=0",
		"resource=rA reconfig_time=0\n  component=machineA depend=null startup=30s",
		"component=x cost=0\nresource=r reconfig_time=0\n  component=x depend=null startup=0",
		"component=x cost=-1",
		"component=x cost=0\n  failure=f mtbf=0 mttr=0 detect_time=0",
		"resource=r reconfig_time=0\n  component=missing depend=null startup=0",
		"resource=r reconfig_time=0\n  component=a depend=b startup=0\n  component=b depend=a startup=0",
		"component=x cost=<mech>",
		"mechanism=m param=p range=[1m-24h;*1.05] cost=0",
		"tier=web",
		"\\\\ comment only",
		// A requirements clause is service vocabulary and must be
		// rejected here, not panic.
		"requirements=enterprise\n  traffic(hour)=[100 200 300]\n  max_annual_downtime=1h",
		"component=x cost=0\nrequirements=job\n  max_job_time=48h",
		// Values the display forms round to three decimals or to cents.
		"component=x cost=0.125\n  failure=f mtbf=1.00001h mttr=0 detect_time=0",
		"mechanism=m\n  param=p range=[1.00001m-24h;*1.00001]\n  loss_window=p",
		// Malformed effects, which bind must reject.
		"mechanism=m\n  param=level range=[lo,hi]\n    cost(level)=[oops 580]",
		"mechanism=m\n  param=level range=[lo,hi]\n    colour=red",
		"mechanism=m\n  param=level range=[lo,hi]\n    mttr=level",
		"mechanism=m\n  param=p range=[1m-24h;*1.05]\n  loss_window=sometimes",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		inf, err := model.ParseInfrastructure(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := inf.Spec()
		inf2, err := model.ParseInfrastructure(rendered)
		if err != nil {
			t.Fatalf("rendered infrastructure failed to reparse: %v\nsource: %q\nrendered: %q", err, src, rendered)
		}
		if !reflect.DeepEqual(inf, inf2) {
			t.Fatalf("bound values changed across round trip\nsource: %q\nrendered: %q\nre-rendered: %q",
				src, rendered, inf2.Spec())
		}
	})
}

// FuzzParseService fuzzes the Fig. 4/5 service parser and, for accepted
// inputs, the resolution step against the paper infrastructure — the
// exact pipeline a POST /v1/solve body goes through.
func FuzzParseService(f *testing.F) {
	seeds := []string{
		"",
		scenarios.EcommerceSpec,
		scenarios.ScientificSpec,
		scenarios.ApplicationTierSpec,
		"application=a",
		"application=a tier=t",
		"application=a jobsize=10000\ntier=t\n  resource=rH sizing=static failurescope=tier\n    nActive=[1-1000,+1] performance(nActive)=perfH.dat",
		"application=a\ntier=t\n  resource=missing sizing=dynamic failurescope=resource\n    nActive=[1] performance=1",
		"application=a\ntier=t\n  resource=rA sizing=bogus failurescope=resource\n    nActive=[1] performance=1",
		"application=a jobsize=-5\ntier=t",
		"tier=t\napplication=late",
		"application=a\ntier=t\n  resource=rA sizing=dynamic failurescope=resource\n    nActive=[1000-1,+1] performance=1",
		"component=machineA cost=0",
		// Traffic curves and failover SLOs in the requirements clause.
		"application=a\nrequirements=enterprise\n  traffic(hour)=[820 640 510 1420 980]\n  max_annual_downtime=1h\n  degraded_throughput=0.7\ntier=t\n  resource=rA sizing=dynamic failurescope=resource\n    nActive=[1-8,+1] performance(nActive)=perfA.dat",
		"application=a jobsize=10000\nrequirements=job\n  max_job_time=100h\ntier=t\n  resource=rH sizing=static failurescope=tier\n    nActive=[1-1000,+1] performance(nActive)=perfH.dat",
		"application=a\nrequirements=enterprise\n  throughput=100\n  traffic(hour)=[100 200]\n  max_annual_downtime=1h\ntier=t\n  resource=rA sizing=dynamic failurescope=resource\n    nActive=[1] performance=1",
		"application=a\nrequirements=enterprise\n  traffic(hour)=[NaN]\n  max_annual_downtime=1h\ntier=t",
		"application=a\nrequirements=enterprise\n  throughput=100\n  max_annual_downtime=1h\n  degraded_throughput=2\ntier=t",
		"application=a\nrequirements=bogus\n  throughput=100\ntier=t",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	inf, err := scenarios.Infrastructure()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		svc, err := model.ParseService(src)
		if err != nil {
			return
		}
		// Resolution must also fail with an error, never a panic, no
		// matter what the parser accepted. Resolve mutates the service,
		// so each accepted input gets a fresh parse.
		if err := svc.Resolve(inf); err != nil {
			return
		}
		rendered := svc.Spec()
		if _, err := model.ParseService(rendered); err != nil {
			t.Fatalf("rendered service failed to reparse: %v\nsource: %q\nrendered: %q", err, src, rendered)
		}
	})
}
