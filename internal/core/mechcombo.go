package core

import (
	"fmt"
	"math"

	"aved/internal/model"
	"aved/internal/units"
)

// comboSet is one resource type's memoized mechanism enumeration: the
// combinations, each combo's relevant-settings fingerprint and the
// type's price table, all shared read-only by every option walk over
// the type.
type comboSet struct {
	combos [][]model.MechSetting
	fps    []fp128

	// The price table (§4.2): the per-instance component cost of an
	// active instance and of a spare at each warmth level 0..len(components),
	// and every combo's per-instance mechanism costs, flattened in setting
	// order (combo ci owns mech[ci*width : (ci+1)*width]).
	active units.Money
	spare  []units.Money
	mech   []units.Money
	width  int
	// Closed-form floors for tailCostLB: the cheapest per-instance
	// component cost over actives and every spare warmth the search
	// explores, and the cheapest combo's mechanism cost per instance.
	minInst, mechMin float64
}

// price reports the annual cost of a candidate — nActive actives and
// nSpare spares at warmth warm under combo ci — adding the terms in
// cost.Tier's order so the two agree bit for bit.
func (cs *comboSet) price(nActive, nSpare, warm, ci int) units.Money {
	total := units.Money(float64(nActive) * float64(cs.active))
	if nSpare > 0 {
		total += units.Money(float64(nSpare) * float64(cs.spare[warm]))
	}
	instances := float64(nActive + nSpare)
	for _, m := range cs.mech[ci*cs.width : (ci+1)*cs.width] {
		total += units.Money(instances * float64(m))
	}
	return total
}

// newComboSet fingerprints and prices a resource type's combinations.
func (s *Solver) newComboSet(rt *model.ResourceType, combos [][]model.MechSetting) *comboSet {
	cs := &comboSet{
		combos: combos,
		fps:    make([]fp128, len(combos)),
		spare:  make([]units.Money, len(rt.Components)+1),
	}
	for _, rc := range rt.Components {
		cs.active += rc.Component.Cost(model.ModeActive)
	}
	for warm := range cs.spare {
		td := model.TierDesign{SpareWarm: warm}
		for i, rc := range rt.Components {
			cs.spare[warm] += rc.Component.Cost(td.SpareComponentMode(i))
		}
	}
	cs.minInst = float64(cs.active)
	for _, warm := range s.warmLevels(rt, 1) {
		cs.minInst = min(cs.minInst, float64(cs.spare[warm]))
	}
	if len(combos) > 0 {
		cs.width = len(combos[0])
	}
	cs.mech = make([]units.Money, 0, len(combos)*cs.width)
	cs.mechMin = math.Inf(1)
	for i, combo := range combos {
		cs.fps[i] = comboFP(rt, combo)
		var per float64
		for _, ms := range combo {
			m := ms.CostPerInstance()
			cs.mech = append(cs.mech, m)
			per += float64(m)
		}
		cs.mechMin = min(cs.mechMin, per)
	}
	if len(combos) == 0 {
		cs.mechMin = 0
	}
	return cs
}

// mechCombos returns the combination set for a resource type, building
// it on first use (see buildCombos) and serving the memoized set —
// combinations, fingerprints and prices alike — afterwards. The set depends
// only on inputs fixed for the solver's lifetime, so memoization cannot
// change results; it exists because a solve walks each resource type's
// options several times (per-tier search, frontier build) and the
// enumeration is allocation-heavy.
func (s *Solver) mechCombos(rt *model.ResourceType) (*comboSet, error) {
	if cs, ok := s.comboCache[rt]; ok {
		return cs, nil
	}
	combos, err := s.buildCombos(rt)
	if err != nil {
		return nil, err
	}
	cs := s.newComboSet(rt, combos)
	if s.comboCache == nil {
		s.comboCache = map[*model.ResourceType]*comboSet{}
	}
	s.comboCache[rt] = cs
	return cs, nil
}

// buildCombos enumerates every combination of parameter settings for
// the mechanisms a resource type references, honouring FixedMechanisms
// pins. Combinations are generated deterministically: mechanisms in
// first-reference order, enumerated parameters in declaration order,
// numeric grids ascending.
func (s *Solver) buildCombos(rt *model.ResourceType) ([][]model.MechSetting, error) {
	names := rt.Mechanisms()
	combos := [][]model.MechSetting{nil}
	for _, name := range names {
		mech, ok := s.inf.Mechanisms[name]
		if !ok {
			return nil, fmt.Errorf("core: resource %q references unknown mechanism %q", rt.Name, name)
		}
		settings, err := s.settingsFor(mech)
		if err != nil {
			return nil, err
		}
		next := make([][]model.MechSetting, 0, len(combos)*len(settings))
		for _, combo := range combos {
			for _, setting := range settings {
				grown := make([]model.MechSetting, len(combo), len(combo)+1)
				copy(grown, combo)
				grown = append(grown, setting)
				next = append(next, grown)
			}
		}
		combos = next
	}
	return combos, nil
}

// settingsFor enumerates one mechanism's parameter-value combinations.
func (s *Solver) settingsFor(mech *model.Mechanism) ([]model.MechSetting, error) {
	pins := s.opts.FixedMechanisms[mech.Name]
	valueSets := make([][]model.ParamValue, len(mech.Params))
	for i, p := range mech.Params {
		if pin, ok := pins[p.Name]; ok {
			valueSets[i] = []model.ParamValue{pin}
			continue
		}
		if p.IsEnum() {
			vs := make([]model.ParamValue, len(p.Enum))
			for j, e := range p.Enum {
				vs[j] = model.EnumValue(e)
			}
			valueSets[i] = vs
			continue
		}
		points := p.Grid.Values()
		vs := make([]model.ParamValue, len(points))
		for j, hours := range points {
			vs[j] = model.DurationValue(hours)
		}
		valueSets[i] = vs
	}
	out := []model.MechSetting{{Mechanism: mech, Values: map[string]model.ParamValue{}}}
	for i, p := range mech.Params {
		next := make([]model.MechSetting, 0, len(out)*len(valueSets[i]))
		for _, base := range out {
			for _, v := range valueSets[i] {
				vals := make(map[string]model.ParamValue, len(base.Values)+1)
				for k, bv := range base.Values {
					vals[k] = bv
				}
				vals[p.Name] = v
				next = append(next, model.MechSetting{Mechanism: mech, Values: vals})
			}
		}
		out = next
	}
	for _, ms := range out {
		if err := ms.Validate(); err != nil {
			return nil, fmt.Errorf("core: mechanism %q: %w", mech.Name, err)
		}
	}
	return out, nil
}
