package core

import (
	"context"

	"aved/internal/cost"
	"aved/internal/model"
)

// ComboSeed records the coordinates of a successful enterprise
// solution: enough to re-locate each chosen tier design in a later
// solve's models without holding pointers into the ones it came from.
// Mechanism settings are matched by name and value, so a seed taken on
// one solver still resolves on another built from perturbed models that
// keep the structure. Obtain one from Solution.Seed and pass it to
// SolveCell to seed a grid cell's combination upper bound. The fields
// are unexported: a seed is an opaque token, valid for any solver over
// a service with the same tier list.
type ComboSeed struct {
	tiers []seedCoord
}

type seedCoord struct {
	tierName   string
	resource   string
	nActive    int
	nSpare     int
	warm       int
	mechanisms []model.MechSetting
}

func seedCoordOf(td *model.TierDesign) seedCoord {
	return seedCoord{
		tierName:   td.TierName,
		resource:   td.Option.ResourceType().Name,
		nActive:    td.NActive,
		nSpare:     td.NSpare,
		warm:       td.SpareWarm,
		mechanisms: td.Mechanisms,
	}
}

// Seed extracts the solution's combination coordinates for seeding a
// later SolveCell — typically the next cell of a budget chain, whose
// looser budget this solution trivially satisfies. Nil for solutions
// without tier designs (and safe on a nil receiver), so sweep loops can
// chain unconditionally.
func (sol *Solution) Seed() *ComboSeed {
	if sol == nil || len(sol.Design.Tiers) == 0 {
		return nil
	}
	seed := &ComboSeed{tiers: make([]seedCoord, len(sol.Design.Tiers))}
	for i := range sol.Design.Tiers {
		seed.tiers[i] = seedCoordOf(&sol.Design.Tiers[i])
	}
	return seed
}

// seedUB re-prices a previous solution's combination under the current
// models and requirement, reporting its total cost as a combination
// upper bound when it is still inside the search space and still meets
// the downtime budget. Within a budget chain the seed's tiers replay
// from the evaluation cache, so the next cell usually gets a
// near-optimal UB without an engine evaluation — where a cold solve
// needs the full waterfilling probe pass. Any structural mismatch
// (different tiers, vanished option, setting no longer enumerated,
// size off the grid) reports ok=false and the caller falls back to
// waterfilling.
func (s *Solver) seedUB(ctx context.Context, req model.Requirements, seed *ComboSeed, stats *searchStats) (float64, bool, error) {
	if seed == nil || len(seed.tiers) != len(s.svc.Tiers) {
		return 0, false, nil
	}
	budget := req.MaxAnnualDowntime.Minutes()
	cands := make([]*TierCandidate, len(seed.tiers))
	for i := range seed.tiers {
		sc := &seed.tiers[i]
		tier := &s.svc.Tiers[i]
		if tier.Name != sc.tierName {
			return 0, false, nil
		}
		var opt *model.ResourceOption
		for j := range tier.Options {
			if tier.Options[j].ResourceType().Name == sc.resource {
				opt = &tier.Options[j]
				break
			}
		}
		if opt == nil {
			return 0, false, nil
		}
		o, ok, err := s.newOptionSearch(tier, opt, loadOf(req))
		if err != nil || !ok {
			return 0, false, err
		}
		// The re-located design must lie inside the space this solve
		// searches: an out-of-space combination could undercut the true
		// optimum and the derived thresholds would no longer be admissible.
		total := sc.nActive + sc.nSpare
		if sc.nActive < o.nMinPerf || !opt.NActive.Contains(float64(sc.nActive)) ||
			total > o.nMinPerf+s.opts.MaxRedundancy ||
			(o.maxTotal > 0 && total > o.maxTotal) ||
			!warmAllowed(o, sc.nSpare, sc.warm) {
			return 0, false, nil
		}
		ci := -1
		for k := range o.combos {
			if sameSettings(o.combos[k], sc.mechanisms) {
				ci = k
				break
			}
		}
		if ci < 0 {
			return 0, false, nil
		}
		minActive := minActiveFor(opt, sc.nActive, o.nMinDegraded)
		td := model.TierDesign{
			TierName:   tier.Name,
			Option:     opt,
			NActive:    sc.nActive,
			NSpare:     sc.nSpare,
			NMinPerf:   o.nMinPerf,
			MinActive:  minActive,
			SpareWarm:  sc.warm,
			Mechanisms: o.combos[ci],
		}
		mfp := modeFPOf(o.base, o.comboFPs[ci], sc.warm, sc.nSpare > 0)
		fps := candFP{avail: availFPOf(mfp, sc.nActive, minActive, sc.nSpare), mode: mfp}
		c, err := cost.Tier(&td)
		if err != nil {
			return 0, false, err
		}
		entry, err := s.evalTier(ctx, &td, fps, stats)
		if err != nil {
			return 0, false, err
		}
		stats.poolAdd(tier.Name, c, entry.downtimeMinutes)
		cands[i] = &TierCandidate{Design: td, Cost: c, DowntimeMinutes: entry.downtimeMinutes}
	}
	if combinedDowntime(cands) > budget {
		return 0, false, nil
	}
	return combinedCost(cands), true, nil
}

// warmAllowed reports whether the warmth level is one the current
// search would enumerate for that spare count.
func warmAllowed(o *optionSearch, nSpare, warm int) bool {
	if nSpare == 0 {
		return warm == 0
	}
	for _, w := range o.warmSpare {
		if w == warm {
			return true
		}
	}
	return false
}

// sameSettings compares mechanism settings by mechanism name and
// parameter values — the identity that survives across solvers.
func sameSettings(a, b []model.MechSetting) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Mechanism == nil || b[i].Mechanism == nil ||
			a[i].Mechanism.Name != b[i].Mechanism.Name ||
			len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for k, v := range a[i].Values {
			if w, ok := b[i].Values[k]; !ok || v != w {
				return false
			}
		}
	}
	return true
}
