package scenarios_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/sim"
)

// These tests assert the repo's differential claims over the corpus
// engine's generated population instead of the three paper fixtures:
// branch-and-bound bit-identity to the exhaustive walk at worker counts
// 1 and 4, Markov-vs-simulator CI-band agreement on every solved
// design, constant-traffic/scalar equivalence, and the repeat-solve
// law — with per-family feasibility floors so none of it can pass
// vacuously.

// solveCorpus runs one search over a corpus scenario on a fresh solver.
// A nil solution with a nil error never happens: infeasibility comes
// back as *core.InfeasibleError, anything else is fatal.
func solveCorpus(t *testing.T, sc *scenarios.CorpusScenario, mode core.SearchMode, workers int) (*core.Solution, error) {
	t.Helper()
	s, err := core.NewSolver(sc.Inf, sc.Svc, core.Options{
		Registry: sc.Registry, Workers: workers, Search: mode,
	})
	if err != nil {
		t.Fatalf("%s: solver: %v", sc.Name, err)
	}
	sol, err := s.Solve(sc.Req)
	if err != nil {
		var inf *core.InfeasibleError
		if !errors.As(err, &inf) {
			t.Fatalf("%s: solve: %v", sc.Name, err)
		}
		return nil, err
	}
	return sol, nil
}

// sameSolution compares the projection of a solution the bit-identity
// contract pins: cost, the requirement metric and the design label.
func sameSolution(a, b *core.Solution) bool {
	return a.Cost == b.Cost && a.DowntimeMinutes == b.DowntimeMinutes &&
		a.JobTime == b.JobTime && a.Design.Label() == b.Design.Label()
}

// TestCorpusDifferential is the corpus-wide differential gate: across
// ≥200 generated scenarios of all four families, (1) branch-and-bound
// at workers 1 and 4 and the exhaustive walk at workers 1 agree on
// feasibility and, when feasible, on the solution bit for bit; (2) the
// analytic downtime of every solved design falls inside the
// simulator's confidence band; (3) every family stays ≥80% feasible,
// so no family's assertions go vacuous.
func TestCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential in -short mode")
	}
	const perFamily = 52
	corpus, err := scenarios.GenCorpus(scenarios.CorpusConfig{Seed: 1, PerFamily: perFamily})
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 200 {
		t.Fatalf("corpus has %d scenarios, want at least 200", len(corpus))
	}
	markov := avail.NewMarkovEngine()
	counts := map[scenarios.Family]int{}
	feasible := map[scenarios.Family]int{}
	for i, sc := range corpus {
		counts[sc.Family]++
		bnb, errB := solveCorpus(t, sc, core.SearchBnB, 1)
		bnb4, errB4 := solveCorpus(t, sc, core.SearchBnB, 4)
		ex, errE := solveCorpus(t, sc, core.SearchExhaustive, 1)
		if (errB == nil) != (errE == nil) || (errB == nil) != (errB4 == nil) {
			t.Fatalf("%s: feasibility disagrees: bnb@1 %v, bnb@4 %v, exhaustive %v",
				sc.Name, errB, errB4, errE)
		}
		if errB != nil {
			continue
		}
		feasible[sc.Family]++
		if !sameSolution(bnb, ex) {
			t.Errorf("%s: bnb and exhaustive differ:\n  bnb        %v %.6f %v %s\n  exhaustive %v %.6f %v %s",
				sc.Name, bnb.Cost, bnb.DowntimeMinutes, bnb.JobTime, bnb.Design.Label(),
				ex.Cost, ex.DowntimeMinutes, ex.JobTime, ex.Design.Label())
		}
		if !sameSolution(bnb, bnb4) {
			t.Errorf("%s: worker count changed the solution:\n  workers=1 %v %s\n  workers=4 %v %s",
				sc.Name, bnb.Cost, bnb.Design.Label(), bnb4.Cost, bnb4.Design.Label())
		}

		// Markov vs simulator on the solved design, with the same band the
		// random-design differential uses — three combined-in-quadrature
		// half-widths plus a 10% allowance for the analytic chain's
		// independence approximations — widened by a one-minute-per-year
		// absolute floor: cost-optimal designs often land at downtimes of
		// seconds per year, where a purely relative band demands more
		// agreement than either engine's resolution carries.
		tms, err := avail.BuildModels(&bnb.Design)
		if err != nil {
			t.Fatalf("%s: build models: %v", sc.Name, err)
		}
		want, err := markov.Evaluate(tms)
		if err != nil {
			t.Fatalf("%s: markov: %v", sc.Name, err)
		}
		eng, err := sim.NewEngine(int64(i)+1, 60, 32)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := eng.EvaluateStats(tms)
		if err != nil {
			t.Fatalf("%s: sim: %v", sc.Name, err)
		}
		var hw2 float64
		for _, st := range stats {
			hw2 += st.HalfWidth95 * st.HalfWidth95
		}
		band := 3*math.Sqrt(hw2) + 0.10*math.Max(want.DowntimeMinutes, got.DowntimeMinutes) + 1.0
		if diff := math.Abs(want.DowntimeMinutes - got.DowntimeMinutes); diff > band {
			t.Errorf("%s: markov %.3f min/yr vs sim %.3f min/yr, |diff| %.3f exceeds band %.3f (design %s)",
				sc.Name, want.DowntimeMinutes, got.DowntimeMinutes, diff, band, bnb.Design.Label())
		}
	}
	for _, fam := range scenarios.Families {
		t.Logf("%-8v %d/%d feasible", fam, feasible[fam], counts[fam])
		if feasible[fam]*5 < counts[fam]*4 {
			t.Errorf("family %v: only %d/%d scenarios feasible, below the 80%% vacuity floor",
				fam, feasible[fam], counts[fam])
		}
	}
}

// TestCorpusDeterministicRoundTrip pins the two generator contracts the
// differential tests stand on: the corpus is a pure function of its
// seed (byte-identical spec texts across same-seed generations), and
// every stored spec is the writer's fixed point — parsing it and
// rendering it back reproduces the identical bytes, for every family.
func TestCorpusDeterministicRoundTrip(t *testing.T) {
	cfg := scenarios.CorpusConfig{Seed: 7, PerFamily: 8}
	a, err := scenarios.GenCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenarios.GenCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != cfg.PerFamily*len(scenarios.Families) {
		t.Fatalf("corpus sizes: %d vs %d, want %d", len(a), len(b), cfg.PerFamily*len(scenarios.Families))
	}
	seen := map[scenarios.Family]int{}
	for i := range a {
		sc := a[i]
		seen[sc.Family]++
		if sc.Name != b[i].Name || sc.InfSpec != b[i].InfSpec || sc.SvcSpec != b[i].SvcSpec {
			t.Errorf("%s: same-seed generations differ", sc.Name)
		}
		inf, err := model.ParseInfrastructure(sc.InfSpec)
		if err != nil {
			t.Fatalf("%s: reparse infrastructure: %v", sc.Name, err)
		}
		if got := inf.Spec(); got != sc.InfSpec {
			t.Errorf("%s: infrastructure spec is not a writer fixed point:\n--- stored ---\n%s\n--- rewritten ---\n%s",
				sc.Name, sc.InfSpec, got)
		}
		svc, err := model.ParseService(sc.SvcSpec)
		if err != nil {
			t.Fatalf("%s: reparse service: %v", sc.Name, err)
		}
		if got := svc.Spec(); got != sc.SvcSpec {
			t.Errorf("%s: service spec is not a writer fixed point:\n--- stored ---\n%s\n--- rewritten ---\n%s",
				sc.Name, sc.SvcSpec, got)
		}
		if svc.Reqs == nil {
			t.Errorf("%s: canonical service spec lost its requirements clause", sc.Name)
		}
	}
	for _, fam := range scenarios.Families {
		if seen[fam] != cfg.PerFamily {
			t.Errorf("family %v: %d scenarios, want %d", fam, seen[fam], cfg.PerFamily)
		}
	}
}

// TestCorpusConstantTrafficDifferential extends the core-level
// constant-curve equivalence to generated workloads: on web corpus
// scenarios, a constant 24-sample traffic curve at the peak must solve
// bit-identically — stats included — to the legacy scalar throughput
// at the same value, because both collapse to the same per-option size
// minima and therefore the same candidate space.
func TestCorpusConstantTrafficDifferential(t *testing.T) {
	var feasible int
	for i := 0; i < 10; i++ {
		sc, err := scenarios.GenScenario(scenarios.FamilyWeb, i, 3)
		if err != nil {
			t.Fatal(err)
		}
		peak := sc.Req.PeakLoad()
		scalar := sc.Req
		scalar.Traffic = nil
		scalar.Throughput = peak
		flat := sc.Req
		flat.Traffic = make([]float64, 24)
		for h := range flat.Traffic {
			flat.Traffic[h] = peak
		}
		flat.Throughput = 0

		solve := func(req model.Requirements) (*core.Solution, error) {
			s, err := core.NewSolver(sc.Inf, sc.Svc, core.Options{Registry: sc.Registry, Workers: 1})
			if err != nil {
				t.Fatalf("%s: solver: %v", sc.Name, err)
			}
			return s.Solve(req)
		}
		a, errA := solve(scalar)
		b, errB := solve(flat)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: feasibility disagrees: scalar %v, constant curve %v", sc.Name, errA, errB)
		}
		if errA != nil {
			continue
		}
		feasible++
		if !sameSolution(a, b) {
			t.Errorf("%s: constant curve diverged from scalar:\n  scalar %v %s\n  curve  %v %s",
				sc.Name, a.Cost, a.Design.Label(), b.Cost, b.Design.Label())
		}
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Errorf("%s: constant curve changed search effort:\n  scalar %+v\n  curve  %+v",
				sc.Name, a.Stats, b.Stats)
		}
	}
	if feasible == 0 {
		t.Error("no web scenario was feasible — the equivalence test is vacuous")
	}
}

// TestCorpusRepeatSolveLaw pins what a second solve on the same solver
// may and may not depend on, over generated enterprise workloads: the
// search never consults the solver's history, so the repeat must
// reproduce the solution bit for bit and make exactly as many
// evaluation requests as the first solve — every one of them served
// from the evaluation cache entries the first solve left, except the
// uncached whole-design evaluation that closes every enterprise solve.
func TestCorpusRepeatSolveLaw(t *testing.T) {
	feasible := 0
	for _, fam := range []scenarios.Family{scenarios.FamilyWeb, scenarios.FamilyStorage, scenarios.FamilyTelco} {
		for i := 0; i < 6; i++ {
			sc, err := scenarios.GenScenario(fam, i, 11)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.NewSolver(sc.Inf, sc.Svc, core.Options{Registry: sc.Registry, Workers: 1})
			if err != nil {
				t.Fatalf("%s: solver: %v", sc.Name, err)
			}
			first, err := s.Solve(sc.Req)
			if err != nil {
				var inf *core.InfeasibleError
				if !errors.As(err, &inf) {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				continue
			}
			feasible++
			again, err := s.Solve(sc.Req)
			if err != nil {
				t.Fatalf("%s: repeat solve turned infeasible: %v", sc.Name, err)
			}
			if !sameSolution(first, again) {
				t.Errorf("%s: repeat solve changed the solution:\n  first %v %s\n  again %v %s",
					sc.Name, first.Cost, first.Design.Label(), again.Cost, again.Design.Label())
			}
			fs, as := first.Stats, again.Stats
			if fr, ar := fs.Evaluations+fs.EvalCacheHits, as.Evaluations+as.EvalCacheHits; ar != fr {
				t.Errorf("%s: repeat solve made %d evaluation requests, first solve %d", sc.Name, ar, fr)
			}
			if as.Evaluations != 1 {
				t.Errorf("%s: repeat solve ran %d engine evaluations, want only the whole-design one", sc.Name, as.Evaluations)
			}
			if as.WarmStartReuse != as.EvalCacheHits {
				t.Errorf("%s: repeat solve reused %d earlier entries of %d cache hits, want all",
					sc.Name, as.WarmStartReuse, as.EvalCacheHits)
			}
		}
	}
	t.Logf("repeat-solve law: %d feasible scenarios", feasible)
	if feasible == 0 {
		t.Error("no scenario was feasible — the repeat-solve law is vacuous")
	}
}
