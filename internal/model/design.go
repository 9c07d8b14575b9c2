package model

import (
	"fmt"
	"sort"
	"strings"

	"aved/internal/units"
)

// ParamValue is one chosen setting of a mechanism parameter: an
// enumerated value (maintenance level) or a numeric duration in hours
// (checkpoint interval).
type ParamValue struct {
	Str   string  // enumerated setting; display form for numeric settings
	Hours float64 // numeric setting in hours; meaningful when IsNum
	IsNum bool
}

// EnumValue builds an enumerated parameter value.
func EnumValue(s string) ParamValue { return ParamValue{Str: s} }

// DurationValue builds a numeric duration parameter value.
func DurationValue(hours float64) ParamValue {
	return ParamValue{Str: units.FromHours(hours).String(), Hours: hours, IsNum: true}
}

// String renders the setting.
func (v ParamValue) String() string { return v.Str }

// MechSetting is one availability mechanism with all its parameters
// resolved to concrete values — part of a complete design.
type MechSetting struct {
	Mechanism *Mechanism
	Values    map[string]ParamValue
}

// Validate checks that every declared parameter has a value within its
// range and that no extraneous values are present.
func (ms MechSetting) Validate() error {
	if ms.Mechanism == nil {
		return fmt.Errorf("mechanism setting: nil mechanism")
	}
	for _, p := range ms.Mechanism.Params {
		v, ok := ms.Values[p.Name]
		if !ok {
			return fmt.Errorf("mechanism %q: parameter %q has no value", ms.Mechanism.Name, p.Name)
		}
		if p.IsEnum() {
			if v.IsNum {
				return fmt.Errorf("mechanism %q: parameter %q wants an enumerated value, got %v",
					ms.Mechanism.Name, p.Name, v)
			}
			if _, ok := p.EnumIndex(v.Str); !ok {
				return fmt.Errorf("mechanism %q: %q is not a setting of parameter %q",
					ms.Mechanism.Name, v.Str, p.Name)
			}
		} else {
			if !v.IsNum {
				return fmt.Errorf("mechanism %q: parameter %q wants a numeric value, got %q",
					ms.Mechanism.Name, p.Name, v.Str)
			}
			if !p.Grid.Contains(v.Hours) {
				return fmt.Errorf("mechanism %q: parameter %q value %v outside range %v",
					ms.Mechanism.Name, p.Name, v.Hours, p.Grid)
			}
		}
	}
	for name := range ms.Values {
		if _, ok := ms.Mechanism.Param(name); !ok {
			return fmt.Errorf("mechanism %q: unknown parameter %q", ms.Mechanism.Name, name)
		}
	}
	return nil
}

// entry reports which of eff's entries this setting selects: the
// position of the chosen setting of a table's enumerated parameter, or
// 0 for a scalar. It reports false when the setting leaves that
// parameter unset or off its enumeration, which Validate rejects.
func (ms MechSetting) entry(eff Effect) (int, bool) {
	if eff.ByParam == "" {
		return 0, true
	}
	p, _ := ms.Mechanism.Param(eff.ByParam)
	return p.EnumIndex(ms.Values[eff.ByParam].Str)
}

// duration resolves the mechanism's duration effect on attr under this
// setting, reporting false when the mechanism declares no such effect
// or the setting does not resolve it.
func (ms MechSetting) duration(attr string) (units.Duration, bool) {
	eff, has := ms.Mechanism.Effect(attr)
	if eff.Pass != "" {
		v, ok := ms.Values[eff.Pass]
		return units.FromHours(v.Hours), ok && v.IsNum
	}
	if i, ok := ms.entry(eff); has && ok {
		return eff.Times[i], true
	}
	return 0, false
}

// MTTR reports the repair time this setting supplies, if the mechanism
// has an mttr effect.
func (ms MechSetting) MTTR() (units.Duration, bool) { return ms.duration("mttr") }

// MTBF reports the mean time between failures this setting supplies,
// if the mechanism has an mtbf effect (e.g. software rejuvenation
// schedules that stretch a component's effective MTBF).
func (ms MechSetting) MTBF() (units.Duration, bool) { return ms.duration("mtbf") }

// LossWindow reports the loss window this setting supplies, if the
// mechanism has a loss_window effect.
func (ms MechSetting) LossWindow() (units.Duration, bool) { return ms.duration("loss_window") }

// CostPerInstance reports the mechanism's annual cost per covered
// resource instance under this setting. Mechanisms without a cost
// effect are free, and so is a setting Validate rejects.
func (ms MechSetting) CostPerInstance() units.Money {
	eff, has := ms.Mechanism.Effect("cost")
	if i, ok := ms.entry(eff); has && ok {
		return eff.Costs[i]
	}
	return 0
}

// Label renders the setting compactly: "maintenanceA=gold" or
// "checkpoint(storage_location=peer,checkpoint_interval=2h)".
func (ms MechSetting) Label() string {
	if len(ms.Values) == 1 {
		for _, v := range ms.Values {
			return ms.Mechanism.Name + "=" + v.String()
		}
	}
	keys := make([]string, 0, len(ms.Values))
	for k := range ms.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+ms.Values[k].String())
	}
	return ms.Mechanism.Name + "(" + strings.Join(parts, ",") + ")"
}

// TierDesign resolves every design choice for one tier (§4): resource
// type, active and spare counts, spare operational mode, and the
// settings of every mechanism the resource references.
type TierDesign struct {
	TierName  string
	Option    *ResourceOption
	NActive   int
	NSpare    int
	MinActive int // m: minimum actives for the tier to be up
	NMinPerf  int // actives needed for performance with no failures
	// SpareWarm is the number of leading components (in dependency
	// order) kept in active mode on each spare resource: 0 is a cold
	// spare (everything powered off), len(components) a hot spare.
	// Intermediate levels trade spare cost for failover time — the
	// paper's per-component spare operational modes (§4, dimension 4),
	// restricted to dependency-closed sets (a component cannot run
	// without its dependency).
	SpareWarm  int
	Mechanisms []MechSetting
}

// Resource reports the tier's resource type.
func (td *TierDesign) Resource() *ResourceType { return td.Option.ResourceType() }

// SpareComponentMode reports the operational mode of the i-th resource
// component on the tier's spare resources.
func (td *TierDesign) SpareComponentMode(i int) OpMode {
	if i < td.SpareWarm {
		return ModeActive
	}
	return ModeInactive
}

// spareWarmthLabel renders the warmth compactly.
func (td *TierDesign) spareWarmthLabel() string {
	total := len(td.Resource().Components)
	switch td.SpareWarm {
	case 0:
		return "cold"
	case total:
		return "hot"
	default:
		return fmt.Sprintf("warm%d/%d", td.SpareWarm, total)
	}
}

// Total reports the total resource count, active plus spare.
func (td *TierDesign) Total() int { return td.NActive + td.NSpare }

// NExtra reports the active resources beyond the performance minimum —
// the paper's n_extra family coordinate.
func (td *TierDesign) NExtra() int { return td.NActive - td.NMinPerf }

// Mechanism reports the setting for the named mechanism.
func (td *TierDesign) Mechanism(name string) (MechSetting, bool) {
	for _, ms := range td.Mechanisms {
		if ms.Mechanism != nil && ms.Mechanism.Name == name {
			return ms, true
		}
	}
	return MechSetting{}, false
}

// LossWindow reports the tier's loss window: the largest loss window of
// any component in the resource, with mechanism references resolved.
func (td *TierDesign) LossWindow() (units.Duration, bool, error) {
	var (
		lw  units.Duration
		has bool
	)
	for _, rc := range td.Resource().Components {
		comp := rc.Component
		if !comp.HasLossWindow {
			continue
		}
		cur := comp.LossWindow
		if comp.LossWindowRef != "" {
			v, err := td.mechDuration(comp.LossWindowRef, "loss_window", comp.Name)
			if err != nil {
				return 0, false, err
			}
			cur = v
		}
		if !has || cur > lw {
			lw = cur
		}
		has = true
	}
	return lw, has, nil
}

// mechDuration resolves the duration effect attr of the mechanism a
// component references, under this design's setting of it.
func (td *TierDesign) mechDuration(mech, attr, comp string) (units.Duration, error) {
	ms, ok := td.Mechanism(mech)
	if !ok {
		return 0, fmt.Errorf("tier %q: component %q needs mechanism %q for its %s, which the design does not configure",
			td.TierName, comp, mech, attr)
	}
	v, ok := ms.duration(attr)
	if !ok {
		return 0, fmt.Errorf("tier %q: mechanism setting %s supplies no %s", td.TierName, ms.Label(), attr)
	}
	return v, nil
}

// EffectiveMode is a failure mode with every mechanism reference and
// composition effect resolved — the per-mode parameters of the
// availability model in §4.2.
type EffectiveMode struct {
	Component string
	Mode      string
	// Qual is the "component/mode" display name, precomputed at bind
	// time. Empty when the failure mode was built by hand rather than
	// bound from a spec; consumers concatenate as a fallback.
	Qual string
	MTBF units.Duration
	// RepairTime is the full outage length when the failure is repaired
	// in place: detection + repair + restart of affected components.
	RepairTime units.Duration
	// FailoverTime is the outage length when a spare absorbs the
	// failure: detection + reconfiguration + startup of the spare's
	// inactive components.
	FailoverTime units.Duration
	// UsesFailover reports whether the design fails this mode over to a
	// spare: spares exist and repair takes longer than failover (§4.2).
	UsesFailover bool
	// SparePowered reports whether this mode's component runs in
	// active mode on idle spares, making them failure-prone for it.
	SparePowered bool
}

// EffectiveModes resolves every failure mode of every component in the
// tier's resource type under this design.
func (td *TierDesign) EffectiveModes() ([]EffectiveMode, error) {
	rt := td.Resource()
	// Failover must start only the components that are inactive on the
	// spare; the leading SpareWarm components are already running.
	var spareActivation units.Duration
	for i := td.SpareWarm; i < len(rt.Components); i++ {
		spareActivation += rt.Components[i].Startup
	}
	nModes := 0
	for _, rc := range rt.Components {
		nModes += len(rc.Component.Failures)
	}
	out := make([]EffectiveMode, 0, nModes)
	for ci, rc := range rt.Components {
		comp := rc.Component
		restart := rt.RestartTime(comp.Name)
		for _, f := range comp.Failures {
			mtbf, mttr := f.MTBF, f.MTTR
			var err error
			if f.MTBFRef != "" {
				if mtbf, err = td.mechDuration(f.MTBFRef, "mtbf", comp.Name); err != nil {
					return nil, err
				}
			}
			if f.MTTRRef != "" {
				if mttr, err = td.mechDuration(f.MTTRRef, "mttr", comp.Name); err != nil {
					return nil, err
				}
			}
			em := EffectiveMode{
				Component:    comp.Name,
				Mode:         f.Name,
				Qual:         f.qual,
				MTBF:         mtbf,
				RepairTime:   f.DetectTime + mttr + restart,
				FailoverTime: f.DetectTime + rt.ReconfigTime + spareActivation,
				SparePowered: td.NSpare > 0 && ci < td.SpareWarm,
			}
			em.UsesFailover = td.NSpare > 0 && em.RepairTime > em.FailoverTime
			out = append(out, em)
		}
	}
	return out, nil
}

// Validate checks structural consistency of the tier design.
func (td *TierDesign) Validate() error {
	if td.Option == nil || td.Option.ResourceType() == nil {
		return fmt.Errorf("tier %q: unresolved resource option", td.TierName)
	}
	if td.NActive < 1 {
		return fmt.Errorf("tier %q: need at least one active resource, got %d", td.TierName, td.NActive)
	}
	if td.NSpare < 0 {
		return fmt.Errorf("tier %q: negative spare count %d", td.TierName, td.NSpare)
	}
	if td.MinActive < 1 || td.MinActive > td.NActive {
		return fmt.Errorf("tier %q: minimum actives %d outside [1, %d]", td.TierName, td.MinActive, td.NActive)
	}
	if !td.Option.NActive.Contains(float64(td.NActive)) {
		return fmt.Errorf("tier %q: active count %d outside allowed range %v", td.TierName, td.NActive, td.Option.NActive)
	}
	if cap := td.Resource().MaxInstances(); cap > 0 && td.Total() > cap {
		return fmt.Errorf("tier %q: %d resource instances exceed the component cap of %d",
			td.TierName, td.Total(), cap)
	}
	if td.SpareWarm < 0 || td.SpareWarm > len(td.Resource().Components) {
		return fmt.Errorf("tier %q: spare warmth %d outside [0, %d]",
			td.TierName, td.SpareWarm, len(td.Resource().Components))
	}
	if td.NSpare == 0 && td.SpareWarm != 0 {
		return fmt.Errorf("tier %q: spare warmth %d without spares", td.TierName, td.SpareWarm)
	}
	for _, ms := range td.Mechanisms {
		if err := ms.Validate(); err != nil {
			return fmt.Errorf("tier %q: %w", td.TierName, err)
		}
	}
	needed := td.Resource().Mechanisms()
	for _, name := range needed {
		if _, ok := td.Mechanism(name); !ok {
			return fmt.Errorf("tier %q: resource %q references mechanism %q, which the design does not configure",
				td.TierName, td.Resource().Name, name)
		}
	}
	return nil
}

// Label renders the tier design compactly for reports:
// "rC n=5(+1) s=1(inactive) maintenanceA=gold".
func (td *TierDesign) Label() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s n=%d", td.Resource().Name, td.NActive)
	if td.NExtra() > 0 {
		fmt.Fprintf(&sb, "(+%d)", td.NExtra())
	}
	if td.NSpare > 0 {
		fmt.Fprintf(&sb, " s=%d(%s)", td.NSpare, td.spareWarmthLabel())
	}
	for _, ms := range td.Mechanisms {
		sb.WriteByte(' ')
		sb.WriteString(ms.Label())
	}
	return sb.String()
}

// Design is a complete resolution of every design choice for every
// tier — the output of the search.
type Design struct {
	Tiers []TierDesign
}

// Tier reports the design for the named tier.
func (d *Design) Tier(name string) (*TierDesign, bool) {
	for i := range d.Tiers {
		if d.Tiers[i].TierName == name {
			return &d.Tiers[i], true
		}
	}
	return nil, false
}

// Validate checks every tier design.
func (d *Design) Validate() error {
	if len(d.Tiers) == 0 {
		return fmt.Errorf("design has no tiers")
	}
	for i := range d.Tiers {
		if err := d.Tiers[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Label renders the design one tier per segment.
func (d *Design) Label() string {
	parts := make([]string, len(d.Tiers))
	for i := range d.Tiers {
		parts[i] = d.Tiers[i].TierName + "{" + d.Tiers[i].Label() + "}"
	}
	return strings.Join(parts, " ")
}
