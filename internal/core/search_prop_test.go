package core

import (
	"errors"
	"math/rand"
	"testing"

	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// These property tests pin the branch-and-bound contract against the
// exhaustive reference walk: identical solutions, identical candidate
// accounting, never more engine evaluations — over a seeded corpus of
// generated scenarios whose perturbed prices move the cost orderings
// the bounds prune by, plus the paper scenarios themselves.

// solveMode builds a fresh sequential solver for the scenario and runs
// one search under the given mode, reporting alongside the solution how
// many engine evaluations the adaptive bound phase (the waterfilling UB
// probes) executed.
func solveMode(t *testing.T, sc *scenarios.SolveScenario, mode SearchMode) (*Solution, int, error) {
	t.Helper()
	var tr obs.CollectTracer
	s, err := NewSolver(sc.Inf, sc.Svc, Options{
		Registry: scenarios.Registry(),
		Workers:  1,
		Search:   mode,
		Tracer:   &tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(sc.Req)
	probes, phase := 0, ""
	for _, e := range tr.Events() {
		switch e.Ev {
		case obs.EvPhaseStart:
			phase = e.Phase
		case obs.EvEvalMiss:
			if phase == "bound" {
				probes++
			}
		}
	}
	return sol, probes, err
}

func TestBnBBitIdenticalOnCorpus(t *testing.T) {
	var feasible, infeasible, pruned int
	var totalBnB, totalEx int64
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc, err := scenarios.RandSolveScenario(rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		bnb, probes, bErr := solveMode(t, sc, SearchBnB)
		ex, _, eErr := solveMode(t, sc, SearchExhaustive)
		if (bErr == nil) != (eErr == nil) {
			t.Fatalf("seed %d: feasibility disagrees: bnb %v, exhaustive %v", seed, bErr, eErr)
		}
		if bErr != nil {
			var infB, infE *InfeasibleError
			if !errors.As(bErr, &infB) || !errors.As(eErr, &infE) {
				t.Fatalf("seed %d: non-infeasible error: bnb %v, exhaustive %v", seed, bErr, eErr)
			}
			infeasible++
			continue
		}
		feasible++
		if bnb.Cost != ex.Cost || bnb.DowntimeMinutes != ex.DowntimeMinutes ||
			bnb.Design.Label() != ex.Design.Label() {
			t.Errorf("seed %d: solutions differ:\n  bnb        %v %.6f %s\n  exhaustive %v %.6f %s",
				seed, bnb.Cost, bnb.DowntimeMinutes, bnb.Design.Label(),
				ex.Cost, ex.DowntimeMinutes, ex.Design.Label())
		}
		// The provable per-instance guarantee: outside the adaptive UB
		// probes, the bounded search only ever skips evaluations — the
		// sorted per-size walk evaluates a subset of the enumeration
		// walk's candidates and the truncated frontiers are prefixes of
		// the full ones. The probes themselves are an investment that can
		// overshoot the savings on a small instance by a few evaluations;
		// the aggregate assertion below pins that the investment pays off
		// decisively across the corpus.
		if bnb.Stats.Evaluations > ex.Stats.Evaluations+probes {
			t.Errorf("seed %d: bnb ran %d evaluations (incl. %d UB probes), exhaustive only %d",
				seed, bnb.Stats.Evaluations, probes, ex.Stats.Evaluations)
		}
		totalBnB += int64(bnb.Stats.Evaluations)
		totalEx += int64(ex.Stats.Evaluations)
		if bnb.Stats.BoundPruned > 0 {
			pruned++
		}
	}
	t.Logf("corpus: %d feasible, %d infeasible, %d with bound prunes; evaluations bnb=%d exhaustive=%d",
		feasible, infeasible, pruned, totalBnB, totalEx)
	if feasible == 0 {
		t.Error("corpus produced no feasible scenarios — generator is miscalibrated")
	}
	if pruned == 0 {
		t.Error("no scenario engaged the bounds — the property test is vacuous")
	}
	if totalBnB*2 > totalEx {
		t.Errorf("corpus aggregate: bnb %d evaluations is not even a 2x cut of exhaustive %d",
			totalBnB, totalEx)
	}
}

// TestBnBEvalCeilings pins engine-evaluation ceilings on the paper
// scenarios under the default search at Workers=1 — a regression gate
// for the admissible bounds (measured: apptier 12; e-commerce 88 at
// 1400/60m, 100 at 2000/60m, 80 at 1000/100m; scientific 144) — and
// requires every case to return the exhaustive walk's design and cost.
// The e-commerce 1400/60m case also pins the headline speedup:
// branch-and-bound needs at least 5x fewer evaluations than the
// exhaustive walk's 785.
func TestBnBEvalCeilings(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	enterprise := func(load, minutes float64) model.Requirements {
		return model.Requirements{
			Kind:              model.ReqEnterprise,
			Throughput:        load,
			MaxAnnualDowntime: units.Duration(minutes * float64(units.Minute)),
		}
	}
	cases := []struct {
		name    string
		svc     func(*model.Infrastructure) (*model.Service, error)
		req     model.Requirements
		opts    Options
		ceiling int
	}{
		{"apptier-1000-100m", scenarios.ApplicationTier, enterprise(1000, 100), Options{}, 20},
		{"ecommerce-1400-60m", scenarios.Ecommerce, enterprise(1400, 60), Options{}, 120},
		{"ecommerce-2000-60m", scenarios.Ecommerce, enterprise(2000, 60), Options{}, 135},
		{"ecommerce-1000-100m", scenarios.Ecommerce, enterprise(1000, 100), Options{}, 108},
		// The database tier's phase-1 optimum alone takes 146.95 of the
		// 147 minutes, so proportional waterfilling pushes it a whole
		// cost step up (139000 to 218900); the second pass holds it at
		// its phase-1 design and bounds the combination at 192380, 300
		// above the optimum. Measured: 167 (452 with one pass).
		{"ecommerce-1000-147m", scenarios.Ecommerce, enterprise(1000, 147), Options{}, 200},
		{"scientific-100h", scenarios.Scientific,
			model.Requirements{Kind: model.ReqJob, MaxJobTime: 100 * units.Hour},
			Options{FixedMechanisms: map[string]map[string]model.ParamValue{
				"maintenanceA": {"level": model.EnumValue("bronze")},
				"maintenanceB": {"level": model.EnumValue("bronze")},
			}},
			160},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := tc.svc(inf)
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.Registry = scenarios.Registry()
			opts.Workers = 1
			s, err := NewSolver(inf, svc, opts)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.Solve(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.Evaluations > tc.ceiling {
				t.Errorf("%s: %d engine evaluations exceed the pinned ceiling %d",
					tc.name, sol.Stats.Evaluations, tc.ceiling)
			}

			exOpts := opts
			exOpts.Search = SearchExhaustive
			se, err := NewSolver(inf, svc, exOpts)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := se.Solve(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Cost != ex.Cost || sol.Design.Label() != ex.Design.Label() {
				t.Errorf("%s: bnb and exhaustive disagree", tc.name)
			}
			t.Logf("%s: bnb %d evaluations, exhaustive %d", tc.name,
				sol.Stats.Evaluations, ex.Stats.Evaluations)
			if tc.name == "ecommerce-1400-60m" && sol.Stats.Evaluations*5 > ex.Stats.Evaluations {
				t.Errorf("%s: bnb %d evaluations is not a 5x cut of exhaustive %d",
					tc.name, sol.Stats.Evaluations, ex.Stats.Evaluations)
			}
		})
	}
}
