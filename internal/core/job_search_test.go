package core

import (
	"context"
	"math"
	"testing"

	"aved/internal/avail"
	"aved/internal/jobtime"
	"aved/internal/model"
	"aved/internal/perf"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// TestJobTimeMatchesExpected: the job walk's hoisted Eq. 1 — one
// availability-free product per (size, combo, mode) and a division per
// candidate — gives every (spares, warmth, combo) candidate exactly
// jobtime.Expected's completion time over the candidate's own
// overhead, loss window, system MTBF and availability, worked out
// afresh per candidate. It covers the scientific service and the
// corpus's batch draws, with spare warmth explored and not. The
// candidates are visited in the walk's order, so later spare counts
// reuse the products earlier ones stored.
func TestJobTimeMatchesExpected(t *testing.T) {
	checked := 0
	for _, warmth := range []bool{false, true} {
		checked += checkJobTimes(t, scientificSolver(t, Options{ExploreSpareWarmth: warmth}))
		for i := 0; i < 8; i++ {
			sc, err := scenarios.GenScenario(scenarios.FamilyBatch, i, 1)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSolver(sc.Inf, sc.Svc, Options{Registry: sc.Registry, ExploreSpareWarmth: warmth})
			if err != nil {
				t.Fatal(err)
			}
			checked += checkJobTimes(t, s)
		}
	}
	t.Logf("%d candidates match jobtime.Expected bit for bit", checked)
}

// checkJobTimes compares the hoisted job time of every candidate of
// s's first five sizes per option with expectedJobTime, reporting how
// many it checked.
func checkJobTimes(t *testing.T, s *Solver) int {
	t.Helper()
	ctx := context.Background()
	checked := 0
	tier := &s.svc.Tiers[0]
	for oi := range tier.Options {
		opt := &tier.Options[oi]
		rt := opt.ResourceType()
		tab, err := s.optionTable(tier, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.prepare(s); err != nil {
			t.Fatal(err)
		}
		products, _, err := s.newJobProducts(tab)
		if err != nil {
			t.Fatal(err)
		}
		base := baseFP(tier.Name, rt.Name)
		var stats searchStats
		nVal, ok := opt.NActive.Lo(), true
		for sizes := 0; ok && sizes < 5; sizes++ {
			n := int(math.Round(nVal))
			perfAtN := tab.curve.Throughput(n)
			products.reset(n, perfAtN)
			for spares := 0; spares <= s.opts.MaxRedundancy; spares++ {
				warms, slot0 := warmZeroLevels, 0
				if spares > 0 {
					warms, slot0 = s.warmLevels(rt, spares), 1
				}
				for _, warm := range warms {
					for ci, combo := range tab.cs.combos {
						td := s.buildJobDesign(tier, opt, n, spares, warm, combo)
						mfp := modeFPOf(base, tab.cs.fps[ci], warm, spares > 0)
						entry, err := s.evalTier(ctx, &td, candFP{avail: availFPOf(mfp, td.NActive, td.MinActive, td.NSpare), mode: mfp}, &stats)
						if err != nil {
							t.Fatal(err)
						}
						got, err := products.jobTime(ci, slot0+warm, entry)
						if err != nil {
							t.Fatal(err)
						}
						want := expectedJobTime(t, s, &td, perfAtN, entry.downtimeMinutes)
						if got != want {
							t.Fatalf("%s %s n=%d spares=%d warm=%d combo %d: hoisted %v, Expected %v",
								s.svc.Name, rt.Name, n, spares, warm, ci, got, want)
						}
						checked++
					}
				}
			}
			nVal, ok = opt.NActive.Next(nVal)
		}
	}
	return checked
}

// expectedJobTime works a candidate's Eq. 1 completion time out from
// its design alone, as the job walk did before it hoisted the product.
func expectedJobTime(t *testing.T, s *Solver, td *model.TierDesign, perfAtN, downtimeMinutes float64) units.Duration {
	t.Helper()
	availability := 1 - downtimeMinutes/avail.MinutesPerYear
	if availability <= 0 {
		return jobtime.MaxExpected
	}
	overhead := 1.0
	for _, mp := range td.Option.MechPerf {
		ms, ok := td.Mechanism(mp.Mechanism)
		if !ok {
			t.Fatalf("mechanism %q has no setting", mp.Mechanism)
		}
		oh, err := s.opts.Registry.Overhead(mp.Ref)
		if err != nil {
			t.Fatal(err)
		}
		args := map[string]perf.Arg{}
		for name, v := range ms.Values {
			args[name] = perf.Arg{Str: v.Str, Hours: v.Hours, IsNum: v.IsNum}
		}
		f, err := oh.Factor(args, td.NActive)
		if err != nil {
			t.Fatal(err)
		}
		overhead *= f
	}
	lw, _, err := td.LossWindow()
	if err != nil {
		t.Fatal(err)
	}
	modes, err := avail.BuildTierModes(td)
	if err != nil {
		t.Fatal(err)
	}
	mtbf, err := jobtime.SystemMTBF(modes, td.NActive)
	if err != nil {
		t.Fatal(err)
	}
	jt, err := jobtime.Expected(jobtime.Params{
		JobSize:        s.svc.JobSize,
		PerfPerHour:    perfAtN,
		OverheadFactor: overhead,
		LossWindow:     lw,
		SystemMTBF:     mtbf,
		Availability:   availability,
	})
	if err != nil {
		t.Fatal(err)
	}
	return jt
}
