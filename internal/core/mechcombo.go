package core

import (
	"fmt"

	"aved/internal/model"
)

// comboSet is one resource type's memoized mechanism enumeration: the
// combinations plus each combo's relevant-settings fingerprint, both
// shared read-only by every option walk over the type.
type comboSet struct {
	combos [][]model.MechSetting
	fps    []fp128
}

// mechCombos returns the combination set for a resource type, building
// it on first use (see buildCombos) and serving the memoized set —
// combinations and fingerprints alike — afterwards. The set depends
// only on inputs fixed for the solver's lifetime, so memoization cannot
// change results; it exists because a solve walks each resource type's
// options several times (per-tier search, frontier build) and the
// enumeration is allocation-heavy.
func (s *Solver) mechCombos(rt *model.ResourceType) (*comboSet, error) {
	s.comboMu.Lock()
	cs, ok := s.comboCache[rt]
	s.comboMu.Unlock()
	if ok {
		return cs, nil
	}
	combos, err := s.buildCombos(rt)
	if err != nil {
		return nil, err
	}
	cs = &comboSet{combos: combos, fps: make([]fp128, len(combos))}
	for i, combo := range combos {
		cs.fps[i] = comboFP(rt, combo)
	}
	s.comboMu.Lock()
	if prev, ok := s.comboCache[rt]; ok {
		// A concurrent walk built the same set first; converge on the
		// canonical value.
		cs = prev
	} else {
		if s.comboCache == nil {
			s.comboCache = map[*model.ResourceType]*comboSet{}
		}
		s.comboCache[rt] = cs
	}
	s.comboMu.Unlock()
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
