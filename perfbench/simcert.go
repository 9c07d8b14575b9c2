package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"aved"
	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/sim"
	"aved/internal/units"
)

// simSeed is the Monte-Carlo engine's fixed seed: every evaluation of a
// design must reproduce the value set-up recorded.
const simSeed = 1

// simCertify re-certifies winning designs with the Monte-Carlo engine,
// the only caller of the sim layer. One operation evaluates one design
// — a corpus winner or a Fig 4 e-commerce winner — through
// aved.SimEngineAdaptive at the default replication worker count, with
// a fixed seed, replication budget and relErr.
//
// A design's simulated years are fixed by its failure rate: each
// replication simulates about simEvents failures, so a telco chain
// failing hundreds of times a year and a batch tier failing a few times
// cost the same and no handful of designs dominates the run. relErr is
// 0 — the full budget — because adaptive stopping ends rare-outage
// designs at a different replication count than busy ones, which would
// again make the cost of a run depend on which designs its seed drew.
//
// Storage winners are left out before anything is simulated: their
// repairs run for a day or more, failures of different modes overlap,
// and the analytic engine's per-mode decomposition reads 1.1 to 2 times
// below the simulator on them, at times outside the band.
type simCertify struct {
	perFamily int
}

const (
	simEvents = 2000 // simulated failures per replication
	simReps   = 128  // replications per evaluation
	// Simulated years per replication are kept within these limits.
	minYears = 2
	maxYears = 60
)

// yearsFor sizes a design's simulated years so one replication sees
// about simEvents failures.
func yearsFor(tms []avail.TierModel) float64 {
	perYear := 0.0
	for _, tm := range tms {
		for _, m := range tm.Modes {
			n := tm.N
			if m.SparePowered {
				n += tm.S
			}
			perYear += float64(n) * float64(units.Year) / float64(m.MTBF)
		}
	}
	return math.Min(math.Max(simEvents/perYear, minYears), maxYears)
}

// simEngine is the part of the Monte-Carlo engine the benchmark uses:
// evaluation with per-tier confidence statistics, and its work counters.
type simEngine interface {
	EvaluateStats(tms []avail.TierModel) (avail.Result, []sim.Stats, error)
	RepStats() (replications, batches uint64)
}

type certDesign struct {
	name   string
	tms    []avail.TierModel
	eng    simEngine
	markov float64 // analytic downtime, the band's centre
	want   float64 // the fixed-seed simulated downtime
}

type simInst struct {
	designs []certDesign
}

func (c simCertify) setup(seed int64) (instance, error) {
	winners, err := c.winners(seed)
	if err != nil {
		return nil, err
	}
	in := &simInst{}
	markov := avail.NewMarkovEngine()
	for _, w := range winners {
		tms, err := avail.BuildModels(w.design)
		if err != nil {
			return nil, fmt.Errorf("%s: build models: %w", w.name, err)
		}
		ref, err := markov.Evaluate(tms)
		if err != nil {
			return nil, fmt.Errorf("%s: markov: %w", w.name, err)
		}
		eng, err := aved.SimEngineAdaptive(simSeed, yearsFor(tms), simReps, 0, 0, 0)
		if err != nil {
			return nil, err
		}
		se, ok := eng.(simEngine)
		if !ok {
			return nil, fmt.Errorf("sim engine %T lacks EvaluateStats/RepStats", eng)
		}
		// The first evaluation fixes the value every later one must match;
		// the timed check also holds it to the band.
		res, _, err := se.EvaluateStats(tms)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		in.designs = append(in.designs, certDesign{name: w.name, tms: tms, eng: se,
			markov: ref.DowntimeMinutes, want: res.DowntimeMinutes})
	}
	return in, nil
}

type winner struct {
	name   string
	design *model.Design
}

// winners solves the seeded corpus, storage aside, and four seeded Fig 4
// e-commerce requirements, keeping every feasible design.
func (c simCertify) winners(seed int64) ([]winner, error) {
	var out []winner
	keep := func(name string, sol *core.Solution, err error) error {
		a, err := answerOf(sol, err)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if a.feasible {
			out = append(out, winner{name, &sol.Design})
		}
		return nil
	}
	scs, err := scenarios.GenCorpus(scenarios.CorpusConfig{Seed: seed, PerFamily: c.perFamily})
	if err != nil {
		return nil, err
	}
	for _, sc := range scs {
		if sc.Family == scenarios.FamilyStorage {
			continue
		}
		s, err := core.NewSolver(sc.Inf, sc.Svc, core.Options{Registry: sc.Registry})
		if err != nil {
			return nil, err
		}
		sol, err := s.Solve(sc.Req)
		if err := keep(sc.Name, sol, err); err != nil {
			return nil, err
		}
	}
	inf, err := scenarios.Infrastructure()
	if err != nil {
		return nil, err
	}
	ecom, err := scenarios.Ecommerce(inf)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSolver(inf, ecom, core.Options{Registry: scenarios.Registry()})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		load := math.Round(400 * math.Pow(10, rng.Float64()))
		budget := math.Round(10 * math.Pow(100, rng.Float64()))
		sol, err := s.Solve(model.Requirements{
			Kind:              model.ReqEnterprise,
			Throughput:        load,
			MaxAnnualDowntime: units.Duration(budget * float64(units.Minute)),
		})
		if err := keep(fmt.Sprintf("ecommerce-%v-%vm", load, budget), sol, err); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check tests one evaluation of d: it must equal the fixed-seed value
// and lie in the Markov-vs-sim band of the corpus differential test:
// three combined 95% half-widths, plus 10% of the larger estimate, plus
// one minute per year.
func (d certDesign) check(res avail.Result, stats []sim.Stats) error {
	got := res.DowntimeMinutes
	if got != d.want {
		return fmt.Errorf("%s: simulated %v min/yr, fixed-seed value %v", d.name, got, d.want)
	}
	var hw2 float64
	for _, st := range stats {
		hw2 += st.HalfWidth95 * st.HalfWidth95
	}
	band := 3*math.Sqrt(hw2) + 0.10*math.Max(d.markov, got) + 1.0
	if diff := math.Abs(d.markov - got); diff > band {
		return fmt.Errorf("%s: markov %.3f vs sim %.3f min/yr, |diff| %.3f exceeds band %.3f",
			d.name, d.markov, got, diff, band)
	}
	return nil
}

func (in *simInst) close() {}

func (in *simInst) run(rc *runCtx) error {
	rc.notes["designs"] = len(in.designs)
	return closedLoop(rc, func(traced bool) (int, error) {
		for _, d := range in.designs {
			in.certifyOne(rc, d, traced)
		}
		return len(in.designs), nil
	})
}

func (in *simInst) certifyOne(rc *runCtx, d certDesign, traced bool) {
	t := rc.tally
	var reps0, batches0 uint64
	if traced {
		reps0, batches0 = d.eng.RepStats()
	}
	c0, t0 := cpuNow(), now()
	res, stats, err := d.eng.EvaluateStats(d.tms)
	t1 := now()
	if err != nil {
		err = fmt.Errorf("%s: %w", d.name, err)
	} else {
		err = d.check(res, stats)
	}
	t2, c2 := now(), cpuNow()
	rc.op(time.Duration(c2-c0), err)
	if !traced {
		return
	}
	reps, batches := d.eng.RepStats()
	t.add("sim.calls", 1)
	t.add("sim.busy_ms", float64(t1-t0)/1e6)
	t.add("sim.replications", float64(reps-reps0))
	t.add("sim.batches", float64(batches-batches0))
	t.op(ledger{wall: t2 - t0, parts: []part{{"sim", t1 - t0}}})
}
