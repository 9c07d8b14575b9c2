// Package cost implements Aved's design cost evaluation (§4.2): the sum
// over components of their annual cost at the selected operational mode
// plus the cost of every availability mechanism at its selected
// parameter values. Mechanism costs are per covered resource instance
// (the paper notes maintenance-contract cost is proportional to the
// number of machines it covers), so they multiply by the tier's total
// resource count, spares included.
//
// Tier is the reference pricer: the search prices candidates from a
// per-solver table that adds the same terms in the same order, so the
// two agree bit for bit.
package cost

import (
	"fmt"

	"aved/internal/model"
	"aved/internal/units"
)

// Tier reports the annual cost of one tier design.
func Tier(td *model.TierDesign) (units.Money, error) {
	if td.Option == nil || td.Option.ResourceType() == nil {
		return 0, fmt.Errorf("cost: tier %q has an unresolved resource option", td.TierName)
	}
	rt := td.Option.ResourceType()

	// Per-instance component cost at each operational mode; spare
	// components price at their per-component warmth mode.
	var activeCost, spareCost units.Money
	for i, rc := range rt.Components {
		activeCost += rc.Component.Cost(model.ModeActive)
		spareCost += rc.Component.Cost(td.SpareComponentMode(i))
	}
	total := units.Money(float64(td.NActive) * float64(activeCost))
	if td.NSpare > 0 {
		total += units.Money(float64(td.NSpare) * float64(spareCost))
	}

	// Mechanism cost per covered instance (actives and spares).
	instances := float64(td.NActive + td.NSpare)
	for _, ms := range td.Mechanisms {
		total += units.Money(instances * float64(ms.CostPerInstance()))
	}
	return total, nil
}
