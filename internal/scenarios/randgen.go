package scenarios

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/units"
)

// This file generates small pseudo-random availability models for
// differential testing: the same design evaluated by the analytic
// Markov engine and the discrete-event simulator must agree within the
// simulator's confidence interval (plus the analytic model's documented
// approximation error). Everything is driven by a caller-supplied
// *rand.Rand, so a failing design is reproducible from its seed alone.
//
// The generator deliberately stays inside the regime the paper's
// simplified Markov model assumes: per-resource failure rates well
// below repair rates (MTBF of weeks to years against repairs of
// minutes to two days). Outside that regime the analytic engine's
// independence approximations degrade and the two engines legitimately
// diverge, which would tell a differential test nothing.

// RandMode draws one failure mode. Failover, when the mode uses it, is
// always faster than repair — the §4.2 rule for when spares are worth
// engaging at all.
func RandMode(rng *rand.Rand, name string) avail.Mode {
	mtbf := units.FromDays(30 + 700*rng.Float64())
	repair := units.FromHours(0.5 + 47.5*rng.Float64())
	failover := units.FromSeconds(30 + 570*rng.Float64())
	usesFO := rng.Intn(4) > 0 // three in four modes fail over
	return avail.Mode{
		Name:         name,
		MTBF:         mtbf,
		Repair:       repair,
		Failover:     failover,
		UsesFailover: usesFO,
		SparePowered: usesFO && rng.Intn(2) == 0,
	}
}

// RandTier draws a small tier: one to five active resources, a
// feasible minimum-active threshold, up to three spares and one to
// three failure modes.
func RandTier(rng *rand.Rand, name string) avail.TierModel {
	n := 1 + rng.Intn(5)
	tm := avail.TierModel{
		Name: name,
		N:    n,
		M:    1 + rng.Intn(n),
		S:    rng.Intn(4),
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		tm.Modes = append(tm.Modes, RandMode(rng, fmt.Sprintf("%s/mode%d", name, i)))
	}
	return tm
}

// RandDesign draws a whole design of one to three tiers, the series
// composition both engines evaluate.
func RandDesign(rng *rand.Rand) []avail.TierModel {
	tms := make([]avail.TierModel, 0, 3)
	for i := 0; i < 1+rng.Intn(3); i++ {
		tms = append(tms, RandTier(rng, fmt.Sprintf("tier%d", i)))
	}
	return tms
}

// SolveScenario is one drawn full-solver problem for differential
// search testing: a price- and reliability-perturbed clone of the
// paper infrastructure, a service over a random subset of its resource
// types, and an enterprise requirement. The perturbations move the
// cost orderings the branch-and-bound search prunes by, so a corpus of
// these exercises bound math the fixed paper scenarios never reach.
type SolveScenario struct {
	Inf *model.Infrastructure
	Svc *model.Service
	Req model.Requirements
	// Spec is the service spec text Svc was parsed from, for callers
	// that bind the service themselves (e.g. sensitivity sweeps).
	Spec string
}

// RandSolveScenario draws one solver scenario from rng. The same seed
// reproduces the same scenario bit for bit: all random draws happen in
// a sorted, deterministic order, and a draw that fails the structural
// feasibility precheck (a tier no option of which can meet the drawn
// throughput on its grid) redraws from the same stream — still
// deterministic, and bounded so a miscalibrated generator fails loudly
// instead of spinning.
func RandSolveScenario(rng *rand.Rand) (*SolveScenario, error) {
	for attempt := 0; attempt < maxGenAttempts; attempt++ {
		sc, err := randSolveScenarioOnce(rng)
		if err != nil {
			return nil, err
		}
		if StructurallyFeasible(sc.Svc, sc.Req, Registry()) {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("scenarios: no structurally feasible draw in %d attempts", maxGenAttempts)
}

func randSolveScenarioOnce(rng *rand.Rand) (*SolveScenario, error) {
	inf, err := Infrastructure()
	if err != nil {
		return nil, err
	}
	// Perturb every component: prices by a log-uniform factor in
	// [1/4, 4] (both modes together, preserving inactive ≤ active),
	// MTBFs by a factor in [1/2, 4] (staying in the failure-rate ≪
	// repair-rate regime the analytic engine assumes).
	names := make([]string, 0, len(inf.Components))
	for name := range inf.Components {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := inf.Components[name]
		cf := math.Exp((2*rng.Float64() - 1) * math.Ln2 * 2)
		c.CostInactive = units.Money(float64(c.CostInactive) * cf)
		c.CostActive = units.Money(float64(c.CostActive) * cf)
		mf := 0.5 + 3.5*rng.Float64()
		for i := range c.Failures {
			c.Failures[i].MTBF = units.Duration(float64(c.Failures[i].MTBF) * mf)
		}
	}
	spec := randServiceSpec(rng)
	svc, err := service("random", spec, inf)
	if err != nil {
		return nil, err
	}
	budgets := []float64{30, 60, 100, 300, 1000, 2000} // minutes/year
	req := model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        200 + float64(rng.Intn(13))*200,
		MaxAnnualDowntime: units.Duration(budgets[rng.Intn(len(budgets))] * float64(units.Minute)),
	}
	return &SolveScenario{Inf: inf, Svc: svc, Req: req, Spec: spec}, nil
}

// randServiceSpec assembles a service over the paper's resource types:
// the application tier always (a nonempty subset of rC–rF), the web
// tier (subset of rA/rB) and the static database tier each with
// two-in-three odds.
func randServiceSpec(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("application=randsvc\n")
	if rng.Intn(3) > 0 {
		b.WriteString("tier=web\n")
		b.WriteString(randSubset(rng, []string{"rA", "rB"}))
	}
	b.WriteString("tier=application\n")
	b.WriteString(randSubset(rng, []string{"rC", "rD", "rE", "rF"}))
	if rng.Intn(3) > 0 {
		b.WriteString("tier=database\n")
		b.WriteString(resourceStanza("rG"))
	}
	return b.String()
}

// randSubset writes the stanzas of a uniformly drawn nonempty subset.
func randSubset(rng *rand.Rand, resources []string) string {
	var b strings.Builder
	mask := 1 + rng.Intn(1<<len(resources)-1)
	for i, r := range resources {
		if mask&(1<<i) != 0 {
			b.WriteString(resourceStanza(r))
		}
	}
	return b.String()
}

func resourceStanza(r string) string {
	if r == "rG" {
		return "  resource=rG sizing=static failurescope=resource\n" +
			"    nActive=[1] performance=10000\n"
	}
	return fmt.Sprintf("  resource=%s sizing=dynamic failurescope=resource\n"+
		"    nActive=[1-1000,+1] performance(nActive)=perf%s.dat\n", r, r[1:])
}
