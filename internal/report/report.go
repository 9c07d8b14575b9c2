// Package report renders human-readable design reports: per-tier
// design parameters, the annual cost broken down by component,
// operational mode and mechanism, and the expected downtime broken
// down by failure mode — the "complete picture" of a design that the
// paper argues an automated engine should give its user.
package report

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"aved/internal/avail"
	"aved/internal/cost"
	"aved/internal/model"
	"aved/internal/units"
)

// Options configure report rendering.
type Options struct {
	// Engine produces the availability breakdown. Defaults to the
	// analytic Markov engine.
	Engine avail.Engine
}

// Design writes a complete report for a design.
func Design(w io.Writer, d *model.Design, opts Options) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	eng := opts.Engine
	if eng == nil {
		eng = avail.NewMarkovEngine()
	}
	tms, err := avail.BuildModels(d)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	res, err := eng.Evaluate(tms)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	bw := bufio.NewWriter(w)
	var totalCost units.Money
	for i := range d.Tiers {
		td := &d.Tiers[i]
		tierCost, err := tierSection(bw, td, &res.Tiers[i])
		if err != nil {
			return err
		}
		totalCost += tierCost
	}
	fmt.Fprintf(bw, "design total: cost %s/yr, expected downtime %.2f min/yr (availability %.5f%%)\n",
		totalCost, res.DowntimeMinutes, res.Availability*100)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// tierSection writes one tier's block and reports its annual cost.
func tierSection(w *bufio.Writer, td *model.TierDesign, tr *avail.TierResult) (units.Money, error) {
	rt := td.Resource()
	stack := make([]string, len(rt.Components))
	for i, rc := range rt.Components {
		stack[i] = rc.Component.Name
	}
	fmt.Fprintf(w, "tier %s — %s (%s)\n", td.TierName, rt.Name, strings.Join(stack, "/"))
	fmt.Fprintf(w, "  actives %d (%d for load", td.NActive, td.NMinPerf)
	if td.NExtra() > 0 {
		fmt.Fprintf(w, " + %d extra", td.NExtra())
	}
	fmt.Fprintf(w, "), spares %d", td.NSpare)
	if td.NSpare > 0 {
		if td.SpareWarm == 0 {
			fmt.Fprint(w, " (cold)")
		} else if td.SpareWarm == len(rt.Components) {
			fmt.Fprint(w, " (hot)")
		} else {
			fmt.Fprintf(w, " (warm %d/%d)", td.SpareWarm, len(rt.Components))
		}
	}
	fmt.Fprintln(w)
	if len(td.Mechanisms) > 0 {
		labels := make([]string, len(td.Mechanisms))
		for i, ms := range td.Mechanisms {
			labels[i] = ms.Label()
		}
		fmt.Fprintf(w, "  mechanisms: %s\n", strings.Join(labels, ", "))
	}

	// Cost breakdown: one line per component and mechanism; the tier
	// total is the cost model's.
	total, err := cost.Tier(td)
	if err != nil {
		return 0, fmt.Errorf("report: %w", err)
	}
	fmt.Fprintln(w, "  cost/yr:")
	for i, rc := range rt.Components {
		active := rc.Component.Cost(model.ModeActive)
		line := units.Money(float64(td.NActive) * float64(active))
		fmt.Fprintf(w, "    %-14s %d active × %s", rc.Component.Name, td.NActive, active)
		if td.NSpare > 0 {
			spare := rc.Component.Cost(td.SpareComponentMode(i))
			line += units.Money(float64(td.NSpare) * float64(spare))
			fmt.Fprintf(w, " + %d spare × %s", td.NSpare, spare)
		}
		fmt.Fprintf(w, " = %s\n", line)
	}
	for _, ms := range td.Mechanisms {
		per := ms.CostPerInstance()
		line := units.Money(float64(td.Total()) * float64(per))
		fmt.Fprintf(w, "    %-14s %d instances × %s = %s\n", ms.Mechanism.Name, td.Total(), per, line)
	}
	fmt.Fprintf(w, "    tier total     %s\n", total)

	// Availability breakdown.
	fmt.Fprintln(w, "  downtime/yr:")
	for _, mc := range tr.Contributions {
		fmt.Fprintf(w, "    %-24s %8.2f min (%.2f failures/yr)\n", mc.Name, mc.Minutes(), mc.EventsPerYear)
	}
	fmt.Fprintf(w, "    tier total               %8.2f min\n", tr.DowntimeMinutes)
	return total, nil
}
