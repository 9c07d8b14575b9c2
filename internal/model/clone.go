package model

import "aved/internal/units"

// Clone deep-copies the infrastructure so callers can perturb
// parameters (what-if and sensitivity analysis) without touching the
// original. Component aliasing is preserved: resource members in the
// clone point at the clone's component objects.
func (inf *Infrastructure) Clone() *Infrastructure {
	out := &Infrastructure{
		Components:     make(map[string]*Component, len(inf.Components)),
		Mechanisms:     make(map[string]*Mechanism, len(inf.Mechanisms)),
		Resources:      make(map[string]*ResourceType, len(inf.Resources)),
		componentOrder: append([]string(nil), inf.componentOrder...),
		mechanismOrder: append([]string(nil), inf.mechanismOrder...),
		resourceOrder:  append([]string(nil), inf.resourceOrder...),
	}
	for name, c := range inf.Components {
		cc := *c
		cc.Failures = append([]FailureMode(nil), c.Failures...)
		out.Components[name] = &cc
	}
	for name, m := range inf.Mechanisms {
		mm := *m
		mm.Params = make([]Param, len(m.Params))
		for i, p := range m.Params {
			pp := p
			pp.Enum = append([]string(nil), p.Enum...)
			mm.Params[i] = pp
		}
		mm.Effects = make([]Effect, len(m.Effects))
		for i, e := range m.Effects {
			ee := e
			ee.Costs = append([]units.Money(nil), e.Costs...)
			ee.Times = append([]units.Duration(nil), e.Times...)
			mm.Effects[i] = ee
		}
		out.Mechanisms[name] = &mm
	}
	for name, r := range inf.Resources {
		rr := *r
		rr.Components = make([]ResourceComponent, len(r.Components))
		for i, rc := range r.Components {
			rr.Components[i] = ResourceComponent{
				Component: out.Components[rc.Component.Name],
				DependsOn: rc.DependsOn,
				Startup:   rc.Startup,
			}
		}
		out.Resources[name] = &rr
	}
	return out
}
