package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aved/internal/cost"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// fracMechInfra is the Fig. 3 infrastructure with fractional mechanism
// prices: maintenanceA's levels and a priced checkpoint. Summing a
// candidate's terms in any order but cost.Tier's moves such prices by
// an ulp.
func fracMechInfra(t *testing.T) *model.Infrastructure {
	t.Helper()
	src := scenarios.InfrastructureSpec
	for _, r := range [][2]string{
		{"cost(level)=[380 580 760 1500]", "cost(level)=[468.2 580.3 760.7 1500.1]"},
		{"  cost=0\n  loss_window=checkpoint_interval", "  cost=70.65\n  loss_window=checkpoint_interval"},
	} {
		if !strings.Contains(src, r[0]) {
			t.Fatalf("Fig. 3 spec has no %q", r[0])
		}
		src = strings.Replace(src, r[0], r[1], 1)
	}
	inf, err := model.ParseInfrastructure(src)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

func fracScientificSolver(t *testing.T) *Solver {
	t.Helper()
	inf := fracMechInfra(t)
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJobSearchFractionalPrices solves Fig. 5 on fractional mechanism
// prices: every solve succeeds and reports cost.Tier's price exactly.
func TestJobSearchFractionalPrices(t *testing.T) {
	s := fracScientificSolver(t)
	for _, tc := range []struct {
		hours float64
		cost  string
	}{{100, "38146.20"}, {200, "19073.10"}, {500, "9536.55"}} {
		sol, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: units.Duration(tc.hours) * units.Hour})
		if err != nil {
			t.Fatalf("%vh: %v", tc.hours, err)
		}
		want, err := cost.Tier(&sol.Design.Tiers[0])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(float64(sol.Cost)) != math.Float64bits(float64(want)) {
			t.Errorf("%vh: solution cost %v (%x) != cost.Tier %v (%x)",
				tc.hours, sol.Cost, math.Float64bits(float64(sol.Cost)), want, math.Float64bits(float64(want)))
		}
		if got := sol.Cost.String(); got != tc.cost {
			t.Errorf("%vh: cost = %s, want %s", tc.hours, got, tc.cost)
		}
	}
}

// samePrice fails the test unless the table's price for td equals
// cost.Tier's bit for bit.
func samePrice(t *testing.T, where string, td *model.TierDesign, got units.Money) {
	t.Helper()
	want, err := cost.Tier(td)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
		t.Fatalf("%s: %s price %v (%x) != cost.Tier %v (%x)", where, td.Label(),
			got, math.Float64bits(float64(got)), want, math.Float64bits(float64(want)))
	}
}

// checkOptionPrices walks every size optionSearch.candidates can reach
// for each of the service's tiers and options, checking each yielded
// price against cost.Tier. It reports how many candidates it checked.
func checkOptionPrices(t *testing.T, name string, s *Solver, req model.Requirements) int {
	t.Helper()
	n := 0
	for ti := range s.svc.Tiers {
		tier := &s.svc.Tiers[ti]
		for oi := range tier.Options {
			o, ok, err := s.newOptionSearch(tier, &tier.Options[oi], loadOf(req))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			for total := o.nMinPerf; total <= o.nMinPerf+s.opts.MaxRedundancy; total++ {
				if o.maxTotal > 0 && total > o.maxTotal {
					break
				}
				for _, r := range o.candidates(nil, total) {
					td := o.design(&r)
					samePrice(t, name, &td, r.cost)
					n++
				}
			}
		}
	}
	return n
}

// TestComboPriceMatchesCostTier pins the price table to the cost model:
// every candidate the enterprise walk yields — over the seeded corpus,
// whose component prices are fractional, and the paper scenarios, with
// and without spare-warmth exploration — and every candidate shape the
// job walk prices on fractional mechanism costs is priced exactly as
// cost.Tier prices it.
func TestComboPriceMatchesCostTier(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 60; seed++ {
		sc, err := scenarios.RandSolveScenario(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := NewSolver(sc.Inf, sc.Svc, Options{Registry: scenarios.Registry(), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checked += checkOptionPrices(t, fmt.Sprintf("corpus seed %d", seed), s, sc.Req)
	}

	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		svc  func(*model.Infrastructure) (*model.Service, error)
		load float64
	}{
		{"apptier", scenarios.ApplicationTier, 1000},
		{"ecommerce", scenarios.Ecommerce, 2000},
	} {
		svc, err := tc.svc(inf)
		if err != nil {
			t.Fatal(err)
		}
		for _, warm := range []bool{false, true} {
			s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry(), ExploreSpareWarmth: warm})
			if err != nil {
				t.Fatal(err)
			}
			checked += checkOptionPrices(t, tc.name, s, enterpriseReq(tc.load, 60))
		}
	}

	// The job walk prices (n, spares, warm, combo) through the same
	// table; cover its first sizes at every warmth level.
	s := fracScientificSolver(t)
	tier := &s.svc.Tiers[0]
	for oi := range tier.Options {
		opt := &tier.Options[oi]
		cs, err := s.mechCombos(opt.ResourceType())
		if err != nil {
			t.Fatal(err)
		}
		nVal, ok := opt.NActive.Lo(), true
		for sizes := 0; ok && sizes < 4; sizes++ {
			n := int(math.Round(nVal))
			for spares := 0; spares <= 2; spares++ {
				for warm := range cs.spare {
					if spares == 0 && warm > 0 {
						break
					}
					for ci, combo := range cs.combos {
						td := s.buildJobDesign(tier, opt, n, spares, warm, combo)
						samePrice(t, "job", &td, cs.price(n, spares, warm, ci))
						checked++
					}
				}
			}
			nVal, ok = opt.NActive.Next(nVal)
		}
	}
	t.Logf("%d candidate prices match cost.Tier", checked)
}
