package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

func appTierSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Registry == nil {
		opts.Registry = scenarios.Registry()
	}
	s, err := NewSolver(inf, svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func scientificSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Registry == nil {
		opts.Registry = scenarios.Registry()
	}
	// §5.2 fixes the maintenance contract to bronze.
	if opts.FixedMechanisms == nil {
		opts.FixedMechanisms = map[string]map[string]model.ParamValue{
			"maintenanceA": {"level": model.EnumValue("bronze")},
			"maintenanceB": {"level": model.EnumValue("bronze")},
		}
	}
	s, err := NewSolver(inf, svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func enterpriseReq(load, downtimeMinutes float64) model.Requirements {
	return model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        load,
		MaxAnnualDowntime: units.Duration(downtimeMinutes * float64(units.Minute)),
	}
}

func contractLevel(t *testing.T, td *model.TierDesign) string {
	t.Helper()
	for _, ms := range td.Mechanisms {
		if ms.Mechanism.Name == "maintenanceA" || ms.Mechanism.Name == "maintenanceB" {
			return ms.Values["level"].Str
		}
	}
	t.Fatal("no maintenance contract in design")
	return ""
}

// TestPaperPointLoad1000Downtime100 reproduces the worked example in
// §5.1: at (load = 1000, downtime = 100 min) the optimal design is
// family 9 — machineA/linux/appserverA, bronze, one extra active, no
// spares — with estimated downtime around 50 minutes.
func TestPaperPointLoad1000Downtime100(t *testing.T) {
	s := appTierSolver(t, Options{})
	sol, err := s.Solve(enterpriseReq(1000, 100))
	if err != nil {
		t.Fatal(err)
	}
	td := &sol.Design.Tiers[0]
	if got := td.Resource().Name; got != "rC" {
		t.Errorf("resource = %s, want rC (machineA/linux/appserverA)", got)
	}
	if got := contractLevel(t, td); got != "bronze" {
		t.Errorf("contract = %s, want bronze", got)
	}
	if td.NMinPerf != 5 {
		t.Errorf("nMinPerf = %d, want 5 (200 units/machine)", td.NMinPerf)
	}
	if td.NExtra() != 1 || td.NSpare != 0 {
		t.Errorf("(n_extra, n_spare) = (%d, %d), want (1, 0)", td.NExtra(), td.NSpare)
	}
	if sol.DowntimeMinutes < 25 || sol.DowntimeMinutes > 75 {
		t.Errorf("downtime = %.1f min, paper reports ≈50", sol.DowntimeMinutes)
	}
}

// TestMachineBNeverSelected reproduces the §5.1 observation: with
// linear application scaling, machineB's worse cost/performance keeps
// it out of every optimal design.
func TestMachineBNeverSelected(t *testing.T) {
	s := appTierSolver(t, Options{})
	for _, load := range []float64{400, 1200, 3200} {
		for _, down := range []float64{30, 300, 3000} {
			sol, err := s.Solve(enterpriseReq(load, down))
			if err != nil {
				var inf *InfeasibleError
				if errors.As(err, &inf) {
					continue // very tight corners may be infeasible
				}
				t.Fatal(err)
			}
			res := sol.Design.Tiers[0].Resource().Name
			if res == "rE" || res == "rF" {
				t.Errorf("load=%v down=%v: machineB selected (%s)", load, down, res)
			}
		}
	}
}

// TestFamily3To6Crossover reproduces the §5.1 crossover: with a relaxed
// downtime budget, low loads prefer a better maintenance contract
// (family 3: gold, no spares) while high loads prefer an extra machine
// (family 6: bronze, one inactive spare), because contract cost scales
// with machine count.
func TestFamily3To6Crossover(t *testing.T) {
	s := appTierSolver(t, Options{})
	low, err := s.Solve(enterpriseReq(800, 2000))
	if err != nil {
		t.Fatal(err)
	}
	lowTD := &low.Design.Tiers[0]
	if got := contractLevel(t, lowTD); got != "gold" {
		t.Errorf("load 800: contract = %s, want gold (family 3)", got)
	}
	if lowTD.NSpare != 0 {
		t.Errorf("load 800: spares = %d, want 0", lowTD.NSpare)
	}
	high, err := s.Solve(enterpriseReq(3200, 2000))
	if err != nil {
		t.Fatal(err)
	}
	highTD := &high.Design.Tiers[0]
	if got := contractLevel(t, highTD); got != "bronze" {
		t.Errorf("load 3200: contract = %s, want bronze (family 6)", got)
	}
	if highTD.NSpare != 1 {
		t.Errorf("load 3200: spares = %d, want 1", highTD.NSpare)
	}
}

// TestRequirementPlaneCoverage: across the Fig. 6 requirement plane
// every solution meets its budget, and within a fixed design family
// the downtime estimate grows with load (evaluated directly, since the
// optimal family changes with the requirement).
func TestRequirementPlaneCoverage(t *testing.T) {
	s := appTierSolver(t, Options{})
	for _, load := range []float64{400, 1000, 2400, 5000} {
		for _, down := range []float64{1, 10, 100, 1000, 10000} {
			sol, err := s.Solve(enterpriseReq(load, down))
			if err != nil {
				t.Fatalf("load=%v down=%v: %v", load, down, err)
			}
			if sol.DowntimeMinutes > down {
				t.Errorf("load=%v down=%v: solution downtime %.2f over budget", load, down, sol.DowntimeMinutes)
			}
			if sol.Cost <= 0 {
				t.Errorf("load=%v down=%v: non-positive cost %v", load, down, sol.Cost)
			}
		}
	}
	// Fixed family (rC, bronze, 0, 0): downtime grows with load.
	var stats searchStats
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 25} {
		td := model.TierDesign{
			TierName:  "application",
			Option:    &s.svc.Tiers[0].Options[0],
			NActive:   n,
			NSpare:    0,
			NMinPerf:  n,
			MinActive: n,
			SpareWarm: 0,
			Mechanisms: []model.MechSetting{{
				Mechanism: s.inf.Mechanisms["maintenanceA"],
				Values:    map[string]model.ParamValue{"level": model.EnumValue("bronze")},
			}},
		}
		entry, err := s.evalTier(context.Background(), &td, fingerprintOf(&td), &stats)
		if err != nil {
			t.Fatal(err)
		}
		if entry.downtimeMinutes <= prev {
			t.Errorf("family downtime at n=%d (%.1f) did not grow beyond %.1f", n, entry.downtimeMinutes, prev)
		}
		prev = entry.downtimeMinutes
	}
}

// TestTighterBudgetCostsMore: cost is monotone in the availability
// requirement.
func TestTighterBudgetCostsMore(t *testing.T) {
	s := appTierSolver(t, Options{})
	var prevCost units.Money
	for _, down := range []float64{5000, 500, 50, 5} {
		sol, err := s.Solve(enterpriseReq(1600, down))
		if err != nil {
			t.Fatalf("downtime %v: %v", down, err)
		}
		if prevCost != 0 && sol.Cost < prevCost {
			t.Errorf("budget %v min: cost %v below looser budget's %v", down, sol.Cost, prevCost)
		}
		if sol.DowntimeMinutes > down {
			t.Errorf("budget %v min: solution downtime %.2f exceeds budget", down, sol.DowntimeMinutes)
		}
		prevCost = sol.Cost
	}
}

// TestCostPruningEngages: after the first feasible design the search
// rejects dearer candidates without availability evaluations — via the
// §4.1 incumbent prune under SearchExhaustive, via the sorted
// branch-and-bound cut under the default SearchBnB.
func TestCostPruningEngages(t *testing.T) {
	s := appTierSolver(t, Options{Search: SearchExhaustive})
	sol, err := s.Solve(enterpriseReq(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.CostPruned == 0 {
		t.Error("expected cost-pruned candidates")
	}
	if sol.Stats.BoundPruned != 0 {
		t.Errorf("exhaustive search bound-pruned %d candidates, want 0", sol.Stats.BoundPruned)
	}
	if sol.Stats.CandidatesGenerated <= sol.Stats.CostPruned {
		t.Error("candidate accounting inconsistent")
	}
	if sol.Stats.Evaluations == 0 {
		t.Error("expected availability evaluations")
	}

	b := appTierSolver(t, Options{})
	bnb, err := b.Solve(enterpriseReq(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if bnb.Stats.BoundPruned == 0 {
		t.Error("expected bound-pruned candidates under branch-and-bound")
	}
	if bnb.Stats.CostPruned != 0 {
		t.Errorf("branch-and-bound cost-pruned %d candidates, want 0", bnb.Stats.CostPruned)
	}
	if bnb.Stats.Evaluations > sol.Stats.Evaluations {
		t.Errorf("branch-and-bound ran %d evaluations, exhaustive only %d",
			bnb.Stats.Evaluations, sol.Stats.Evaluations)
	}
	if bnb.Cost != sol.Cost || bnb.DowntimeMinutes != sol.DowntimeMinutes {
		t.Errorf("branch-and-bound result (%v, %.3f) differs from exhaustive (%v, %.3f)",
			bnb.Cost, bnb.DowntimeMinutes, sol.Cost, sol.DowntimeMinutes)
	}
}

// TestInfeasibleRequirement: impossible requirements yield
// InfeasibleError rather than a bogus design.
func TestInfeasibleRequirement(t *testing.T) {
	s := appTierSolver(t, Options{})
	var infErr *InfeasibleError
	// Unreachable throughput: even 1000 of the fastest machines fall
	// short.
	_, err := s.Solve(enterpriseReq(1e9, 1000))
	if !errors.As(err, &infErr) {
		t.Errorf("want InfeasibleError for impossible load, got %v", err)
	}
	// A job that cannot finish in time on a capped cluster.
	inf, err2 := scenarios.Infrastructure()
	if err2 != nil {
		t.Fatal(err2)
	}
	svc, err2 := model.ParseService(`
application=tiny jobsize=10000
tier=computation
  resource=rH sizing=static failurescope=tier
    nActive=[1-4,+1] performance(nActive)=perfH.dat
    mechanism=checkpoint mperformance(storage_location,
        checkpoint_interval, nActive)=mperfH.dat
`)
	if err2 != nil {
		t.Fatal(err2)
	}
	if err2 := svc.Resolve(inf); err2 != nil {
		t.Fatal(err2)
	}
	solver, err2 := NewSolver(inf, svc, Options{Registry: scenarios.Registry()})
	if err2 != nil {
		t.Fatal(err2)
	}
	_, err = solver.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: 1 * units.Hour})
	if !errors.As(err, &infErr) {
		t.Errorf("want InfeasibleError for impossible job time, got %v", err)
	}
}

// TestInfeasibleErrorText pins the infeasible texts, which reach the
// CLIs' stderr and the server's 422 bodies: each kind of miss formats
// its figures exactly as the eager fmt.Sprintf it replaced did, and a
// real solve's miss reads as it always has.
func TestInfeasibleErrorText(t *testing.T) {
	const prefix = "core: no feasible design: "
	d := 20 * units.Minute
	cases := []struct {
		err  *InfeasibleError
		want string
	}{
		{&InfeasibleError{miss: missIsolated, tier: "database", bound: d, qty: 2000},
			fmt.Sprintf("tier %q cannot meet %v annual downtime at load %v in isolation", "database", d, 2000.0)},
		{&InfeasibleError{miss: missNoDesigns, tier: "web"},
			fmt.Sprintf("tier %q has no feasible designs", "web")},
		{&InfeasibleError{miss: missCombination, bound: d, qty: 1e9},
			fmt.Sprintf("no tier combination meets %v annual downtime at load %v", d, 1e9)},
		{&InfeasibleError{miss: missJobTime, bound: 48 * units.Hour, qty: 1.5e4},
			fmt.Sprintf("no design completes job size %v within %v", 1.5e4, 48*units.Hour)},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != prefix+c.want {
			t.Errorf("Error() = %q, want %q", got, prefix+c.want)
		}
	}
	_, err := appTierSolver(t, Options{}).Solve(enterpriseReq(1e9, 1000))
	const want = prefix + `tier "application" cannot meet 1000m annual downtime at load 1e+09 in isolation`
	if err == nil || err.Error() != want {
		t.Errorf("impossible load: got %v, want %q", err, want)
	}
}

// TestScientificResourceSwitch reproduces Fig. 7's headline shape:
// machineB (rI) for tight completion-time requirements, machineA (rH)
// when the requirement relaxes.
func TestScientificResourceSwitch(t *testing.T) {
	s := scientificSolver(t, Options{})
	tight, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: 3 * units.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := tight.Design.Tiers[0].Resource().Name; got != "rI" {
		t.Errorf("3h requirement: resource = %s, want rI (machineB)", got)
	}
	relaxed, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: 200 * units.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got := relaxed.Design.Tiers[0].Resource().Name; got != "rH" {
		t.Errorf("200h requirement: resource = %s, want rH (machineA)", got)
	}
	if tight.Cost <= relaxed.Cost {
		t.Errorf("tight requirement (%v) should cost more than relaxed (%v)", tight.Cost, relaxed.Cost)
	}
	if tight.JobTime > 3*units.Hour || relaxed.JobTime > 200*units.Hour {
		t.Error("solutions must meet their requirements")
	}
}

// TestScientificCheckpointIntervalGrowsWhenRelaxed reproduces Fig. 7:
// the optimal checkpoint interval increases as the execution-time
// requirement relaxes (fewer resources, fewer failures).
func TestScientificCheckpointIntervalGrowsWhenRelaxed(t *testing.T) {
	s := scientificSolver(t, Options{})
	cpiAt := func(maxTime units.Duration) float64 {
		sol, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: maxTime})
		if err != nil {
			t.Fatalf("requirement %v: %v", maxTime, err)
		}
		ms, ok := sol.Design.Tiers[0].Mechanism("checkpoint")
		if !ok {
			t.Fatal("design has no checkpoint setting")
		}
		return ms.Values["checkpoint_interval"].Hours
	}
	tight := cpiAt(10 * units.Hour)
	relaxed := cpiAt(500 * units.Hour)
	if relaxed <= tight {
		t.Errorf("checkpoint interval should grow: tight %vh vs relaxed %vh", tight, relaxed)
	}
}

// TestScientificResourceCountShrinksWhenRelaxed reproduces Fig. 7: the
// resource count decreases as the requirement relaxes.
func TestScientificResourceCountShrinksWhenRelaxed(t *testing.T) {
	s := scientificSolver(t, Options{})
	nAt := func(maxTime units.Duration) int {
		sol, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: maxTime})
		if err != nil {
			t.Fatalf("requirement %v: %v", maxTime, err)
		}
		return sol.Design.Tiers[0].NActive
	}
	if n50, n500 := nAt(50*units.Hour), nAt(500*units.Hour); n500 >= n50 {
		t.Errorf("resource count should shrink: 50h→%d, 500h→%d", n50, n500)
	}
}

// TestScientificStorageLocation reproduces Fig. 7: central storage for
// small node counts, peer for large ones (central becomes a
// bottleneck).
func TestScientificStorageLocation(t *testing.T) {
	s := scientificSolver(t, Options{})
	locAt := func(maxTime units.Duration) (string, int) {
		sol, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: maxTime})
		if err != nil {
			t.Fatalf("requirement %v: %v", maxTime, err)
		}
		ms, _ := sol.Design.Tiers[0].Mechanism("checkpoint")
		return ms.Values["storage_location"].Str, sol.Design.Tiers[0].NActive
	}
	loc, n := locAt(500 * units.Hour)
	if n < 30 && loc != "central" {
		t.Errorf("n=%d should use central storage, got %s", n, loc)
	}
	loc, n = locAt(15 * units.Hour)
	if n > 70 && loc != "peer" {
		t.Errorf("n=%d should use peer storage, got %s", n, loc)
	}
}

// TestJobWithoutJobSizeFails: job requirements need a jobsize.
func TestJobWithoutJobSizeFails(t *testing.T) {
	s := appTierSolver(t, Options{})
	_, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: 10 * units.Hour})
	if err == nil {
		t.Error("job requirement without jobsize should fail")
	}
}

func TestNewSolverValidation(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	reg := scenarios.Registry()
	if _, err := NewSolver(nil, svc, Options{Registry: reg}); err == nil {
		t.Error("nil infrastructure should fail")
	}
	if _, err := NewSolver(inf, nil, Options{Registry: reg}); err == nil {
		t.Error("nil service should fail")
	}
	if _, err := NewSolver(inf, svc, Options{}); err == nil {
		t.Error("missing registry should fail")
	}
	unresolved, err := model.ParseService(scenarios.ApplicationTierSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSolver(inf, unresolved, Options{Registry: reg}); err == nil {
		t.Error("unresolved service should fail")
	}
}

func TestMechCombosCounts(t *testing.T) {
	s := appTierSolver(t, Options{})
	rC := s.inf.Resources["rC"]
	cs, err := s.mechCombos(rC)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.combos) != 4 {
		t.Errorf("rC combos = %d, want 4 maintenance levels", len(cs.combos))
	}
	rH := s.inf.Resources["rH"]
	cs, err = s.mechCombos(rH)
	if err != nil {
		t.Fatal(err)
	}
	// 4 maintenance levels × 2 locations × |interval grid|.
	ck := s.inf.Mechanisms["checkpoint"]
	cpi, _ := ck.Param("checkpoint_interval")
	want := 4 * 2 * cpi.Grid.Len()
	if len(cs.combos) != want {
		t.Errorf("rH combos = %d, want %d", len(cs.combos), want)
	}
}

func TestMechCombosFixedPin(t *testing.T) {
	s := appTierSolver(t, Options{
		FixedMechanisms: map[string]map[string]model.ParamValue{
			"maintenanceA": {"level": model.EnumValue("gold")},
		},
	})
	cs, err := s.mechCombos(s.inf.Resources["rC"])
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.combos) != 1 {
		t.Fatalf("pinned combos = %d, want 1", len(cs.combos))
	}
	if cs.combos[0][0].Values["level"].Str != "gold" {
		t.Errorf("pinned level = %v", cs.combos[0][0].Values["level"])
	}
}

func TestCombineGreedyVsExact(t *testing.T) {
	// Construct two synthetic frontiers where greedy refinement is
	// suboptimal but exact combination succeeds.
	f1 := []TierCandidate{
		{Cost: 100, DowntimeMinutes: 100},
		{Cost: 150, DowntimeMinutes: 60},
		{Cost: 400, DowntimeMinutes: 5},
	}
	f2 := []TierCandidate{
		{Cost: 100, DowntimeMinutes: 100},
		{Cost: 340, DowntimeMinutes: 30},
	}
	budget := 70.0
	exact, ok := CombineExact([][]TierCandidate{f1, f2}, budget)
	if !ok {
		t.Fatal("exact combiner found nothing")
	}
	greedy, ok := CombineGreedy([][]TierCandidate{f1, f2}, budget)
	if !ok {
		t.Fatal("greedy combiner found nothing")
	}
	var exactCost, greedyCost units.Money
	for i := range exact {
		exactCost += exact[i].Cost
		greedyCost += greedy[i].Cost
	}
	if exactCost > greedyCost {
		t.Errorf("exact (%v) should never cost more than greedy (%v)", exactCost, greedyCost)
	}
	if combinedDowntime(exact) > budget || combinedDowntime(greedy) > budget {
		t.Error("both combiners must meet the budget")
	}
}

func TestCombineInfeasible(t *testing.T) {
	f := [][]TierCandidate{{{Cost: 1, DowntimeMinutes: 1000}}}
	if _, ok := CombineExact(f, 10); ok {
		t.Error("exact combiner should report infeasible")
	}
	if _, ok := CombineGreedy(f, 10); ok {
		t.Error("greedy combiner should report infeasible")
	}
}

// TestMultiTierEcommerce solves the full three-tier Fig. 4 service:
// the series composition must meet the overall budget.
func TestMultiTierEcommerce(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(enterpriseReq(2000, 800))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Design.Tiers) != 3 {
		t.Fatalf("tiers = %d, want 3", len(sol.Design.Tiers))
	}
	if sol.DowntimeMinutes > 800 {
		t.Errorf("combined downtime %.1f exceeds 800", sol.DowntimeMinutes)
	}
	names := map[string]bool{}
	for i := range sol.Design.Tiers {
		names[sol.Design.Tiers[i].TierName] = true
	}
	for _, want := range []string{"web", "application", "database"} {
		if !names[want] {
			t.Errorf("missing tier %q in design", want)
		}
	}
}

// TestMaxInstancesEnforced: a component-level instance cap bounds the
// search (and can rule an option out entirely).
func TestMaxInstancesEnforced(t *testing.T) {
	inf, err := model.ParseInfrastructure(`
component=box cost=100 max_instances=4
  failure=hard mtbf=100d mttr=24h detect_time=1m
resource=r reconfig_time=0
  component=box depend=null startup=1m
`)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := model.ParseService(`
application=capped
tier=main
  resource=r sizing=dynamic failurescope=resource
    nActive=[1-100,+1] performance(nActive)=box.dat
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Resolve(inf); err != nil {
		t.Fatal(err)
	}
	reg := scenarios.Registry()
	reg.RegisterCurve("box.dat", boxCurve{})
	s, err := NewSolver(inf, svc, Options{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Feasible within the cap: 2 needed for load, up to 2 more allowed.
	sol, err := s.Solve(model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        200,
		MaxAnnualDowntime: 10000 * units.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Design.Tiers[0].Total(); got > 4 {
		t.Errorf("total instances %d exceed cap 4", got)
	}
	// Load needing 5 actives is infeasible under the cap.
	_, err = s.Solve(model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        500,
		MaxAnnualDowntime: 10000 * units.Minute,
	})
	var infErr *InfeasibleError
	if !errors.As(err, &infErr) {
		t.Errorf("want InfeasibleError above the instance cap, got %v", err)
	}
}

type boxCurve struct{}

func (boxCurve) Throughput(n int) float64 { return 100 * float64(n) }
