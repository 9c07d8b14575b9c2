// Package model defines Aved's typed design-space model — components,
// failure modes, availability mechanisms, resource types, services and
// tiers (§3 of the paper) — and binds parsed spec documents into
// validated model values. It also defines designs (the output of the
// search) and derives the effective failure-mode parameters (repair
// time, failover time) that the availability model of §4.2 consumes.
package model

import (
	"fmt"
	"math/bits"

	"aved/internal/units"
)

// OpMode is the operational mode of a component instance in a design.
type OpMode int

// Operational modes. Components of active resources must be active;
// spare resources may keep some or all components inactive (powered
// off / unlicensed) to reduce cost at the price of failover time.
const (
	ModeInactive OpMode = iota + 1
	ModeActive
)

// String renders the mode in spec vocabulary.
func (m OpMode) String() string {
	switch m {
	case ModeInactive:
		return "inactive"
	case ModeActive:
		return "active"
	default:
		return fmt.Sprintf("OpMode(%d)", int(m))
	}
}

// FailureMode describes one way a component can fail (§3.1.1).
type FailureMode struct {
	Name       string
	MTBF       units.Duration
	MTBFRef    string         // mechanism supplying the MTBF (mtbf=<rejuvenation>)
	MTTR       units.Duration // repair time once detected; used when MTTRRef is empty
	MTTRRef    string         // mechanism supplying the repair time (mttr=<maintenanceA>)
	DetectTime units.Duration
	// qual is the precomputed "component/mode" display name, filled at
	// bind time so the search's effective-mode resolutions need no
	// per-candidate string concatenation. Empty on hand-built values;
	// consumers fall back to concatenating (see EffectiveMode.Qual).
	qual string
}

// Component is the basic unit of fault management (§3.1.1).
type Component struct {
	Name          string
	CostInactive  units.Money
	CostActive    units.Money
	MaxInstances  int // 0 means unlimited
	LossWindow    units.Duration
	HasLossWindow bool
	LossWindowRef string // mechanism supplying the loss window (loss_window=<checkpoint>)
	Failures      []FailureMode
}

// Cost reports the component's annual cost in the given mode.
func (c *Component) Cost(mode OpMode) units.Money {
	if mode == ModeActive {
		return c.CostActive
	}
	return c.CostInactive
}

// FailureMode reports the named failure mode, if declared.
func (c *Component) FailureMode(name string) (FailureMode, bool) {
	for _, f := range c.Failures {
		if f.Name == name {
			return f, true
		}
	}
	return FailureMode{}, false
}

// Param is one configuration parameter of an availability mechanism.
// Parameters are either enumerated (maintenance levels) or numeric
// duration grids (checkpoint intervals).
type Param struct {
	Name string
	Enum []string   // enumerated settings, nil for numeric parameters
	Grid units.Grid // numeric settings in hours; valid when Enum is nil
}

// IsEnum reports whether the parameter takes enumerated settings.
func (p Param) IsEnum() bool { return len(p.Enum) > 0 }

// EnumIndex reports the position of an enumerated setting.
func (p Param) EnumIndex(v string) (int, bool) {
	for i, e := range p.Enum {
		if e == v {
			return i, true
		}
	}
	return 0, false
}

// Effect is one attribute an availability mechanism specifies or
// modifies (§3.1.2), bound to typed values: a table with one entry per
// setting of an enumerated parameter (mttr(level)=[38h 15h 8h 6h]), a
// one-entry scalar (cost=0), or no entries and a numeric parameter
// whose chosen value flows through (loss_window=checkpoint_interval).
type Effect struct {
	Attr    string           // "cost", "mttr", "mtbf" or "loss_window"
	ByParam string           // indexing enumerated parameter; empty for scalars
	Pass    string           // numeric parameter passed through; empty otherwise
	Costs   []units.Money    // cost entries, parallel to ByParam's enum
	Times   []units.Duration // mttr, mtbf or loss_window entries, likewise
}

// Mechanism is a configurable availability mechanism (§3.1.2).
type Mechanism struct {
	Name    string
	Params  []Param
	Effects []Effect
}

// Param reports the named parameter, if declared.
func (m *Mechanism) Param(name string) (Param, bool) {
	for _, p := range m.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// Effect reports the effect on the named attribute, if declared.
func (m *Mechanism) Effect(attr string) (Effect, bool) {
	for _, e := range m.Effects {
		if e.Attr == attr {
			return e, true
		}
	}
	return Effect{}, false
}

// ResourceComponent is a component's place inside a resource type:
// its startup latency and the component it depends on (§3.1.3).
type ResourceComponent struct {
	Component *Component
	DependsOn string // name of the prerequisite component; "" for none
	Startup   units.Duration
}

// ResourceType is a combination of components allocated as a unit
// (§3.1.3).
type ResourceType struct {
	Name         string
	ReconfigTime units.Duration
	Components   []ResourceComponent
}

// Component reports the member with the given component name.
func (r *ResourceType) Component(name string) (ResourceComponent, bool) {
	for _, rc := range r.Components {
		if rc.Component.Name == name {
			return rc, true
		}
	}
	return ResourceComponent{}, false
}

// Affected reports the member component plus every transitive
// dependent: the set that must restart when the named component fails.
func (r *ResourceType) Affected(name string) []ResourceComponent {
	var out []ResourceComponent
	affected := map[string]bool{name: true}
	// Members are declared in dependency order, so one forward pass
	// closes the dependent set.
	for _, rc := range r.Components {
		if affected[rc.Component.Name] || (rc.DependsOn != "" && affected[rc.DependsOn]) {
			affected[rc.Component.Name] = true
			out = append(out, rc)
		}
	}
	return out
}

// RestartTime reports the serial startup latency of the named component
// and its transitive dependents — the paper's "startup times of the
// components affected by the failure". It runs on the design-search hot
// path (every effective-mode resolution), so the affected set is
// tracked as an index bitmask rather than Affected's map, which keeps
// the common case allocation-free.
func (r *ResourceType) RestartTime(name string) units.Duration {
	if len(r.Components) > 64 {
		var total units.Duration
		for _, rc := range r.Affected(name) {
			total += rc.Startup
		}
		return total
	}
	var mask uint64
	var total units.Duration
	for i, rc := range r.Components {
		if r.inAffected(mask, rc.Component.Name, name) ||
			(rc.DependsOn != "" && r.inAffected(mask, rc.DependsOn, name)) {
			mask |= 1 << uint(i)
			total += rc.Startup
		}
	}
	return total
}

// inAffected reports whether s names the failed component or any
// already-masked member — the bitmask counterpart of Affected's set
// lookup.
func (r *ResourceType) inAffected(mask uint64, s, failed string) bool {
	if s == failed {
		return true
	}
	for mask != 0 {
		i := bits.TrailingZeros64(mask)
		if r.Components[i].Component.Name == s {
			return true
		}
		mask &= mask - 1
	}
	return false
}

// FullStartup reports the serial startup latency of every component:
// the time to bring a fully inactive spare online.
func (r *ResourceType) FullStartup() units.Duration {
	var total units.Duration
	for _, rc := range r.Components {
		total += rc.Startup
	}
	return total
}

// MaxInstances reports the tightest component-level instance cap on
// the resource type: the largest number of resource instances (active
// plus spare) a design may use. Zero means unlimited.
func (r *ResourceType) MaxInstances() int {
	cap := 0
	for _, rc := range r.Components {
		m := rc.Component.MaxInstances
		if m == 0 {
			continue
		}
		if cap == 0 || m < cap {
			cap = m
		}
	}
	return cap
}

// Mechanisms reports the names of every availability mechanism
// referenced by the resource's components (through mttr=<m> or
// loss_window=<m>), in first-reference order.
func (r *ResourceType) Mechanisms() []string {
	var out []string
	seen := map[string]bool{}
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, rc := range r.Components {
		add(rc.Component.LossWindowRef)
		for _, f := range rc.Component.Failures {
			add(f.MTTRRef)
			add(f.MTBFRef)
		}
	}
	return out
}

// Infrastructure is the bound infrastructure model: the repository of
// building blocks available to every design (§3.1).
type Infrastructure struct {
	Components map[string]*Component
	Mechanisms map[string]*Mechanism
	Resources  map[string]*ResourceType

	componentOrder []string
	mechanismOrder []string
	resourceOrder  []string
}

// ComponentNames reports component names in declaration order.
func (inf *Infrastructure) ComponentNames() []string { return inf.componentOrder }

// MechanismNames reports mechanism names in declaration order.
func (inf *Infrastructure) MechanismNames() []string { return inf.mechanismOrder }

// ResourceNames reports resource type names in declaration order.
func (inf *Infrastructure) ResourceNames() []string { return inf.resourceOrder }
