package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/perf"
	"aved/internal/scenarios"
	"aved/internal/spec"
	"aved/internal/units"
)

// answer is the part of a solve the benchmark checks: feasibility, the
// design label, its cost and the requirement metric.
type answer struct {
	feasible bool
	label    string
	cost     units.Money
	down     float64
	job      units.Duration
}

func (a answer) String() string {
	if !a.feasible {
		return "infeasible"
	}
	return fmt.Sprintf("%s cost %v down %v job %v", a.label, a.cost, a.down, a.job)
}

// answerOf reduces a solve's outcome to an answer; infeasibility is an
// answer, any other error is not.
func answerOf(sol *core.Solution, err error) (answer, error) {
	if err != nil {
		var inf *core.InfeasibleError
		if errors.As(err, &inf) {
			return answer{}, nil
		}
		return answer{}, err
	}
	return answer{feasible: true, label: sol.Design.Label(), cost: sol.Cost,
		down: sol.DowntimeMinutes, job: sol.JobTime}, nil
}

// referenceSolve answers a requirement with the exhaustive search, the
// repository's reference oracle, on one worker.
func referenceSolve(sc *scenarios.CorpusScenario) (answer, error) {
	s, err := core.NewSolver(sc.Inf, sc.Svc, core.Options{Registry: sc.Registry, Search: core.SearchExhaustive, Workers: 1})
	if err != nil {
		return answer{}, err
	}
	return answerOf(s.Solve(sc.Req))
}

// corpusSolve is the aved solve surface over the seeded scenario corpus
// (all four families). One operation takes one scenario from its spec
// text to a checked solution: parse, bind, build a solver at the CLI's
// default worker count, solve.
type corpusSolve struct {
	perFamily int
	workers   int
}

// maxTelcoStages leaves out the corpus's 8-stage telco chains: their
// solve times swing across three orders of magnitude between draws (one
// draw alone can take half a pass), so no affordable corpus that holds
// them has a steady pass time. 7-stage chains vary little and stay.
const maxTelcoStages = 7

// corpusCase is one scenario as the timed loop sees it: spec texts in,
// the exhaustive search's answer to check against.
type corpusCase struct {
	name     string
	infSpec  string
	svcSpec  string
	registry *perf.Registry
	want     answer
}

type corpusInst struct {
	corpusSolve
	cases []corpusCase
}

// genCorpus draws perFamily scenarios of every family from the seeded
// corpus generator, skipping telco chains of more than maxTelcoStages
// stages.
func genCorpus(seed int64, perFamily int) ([]*scenarios.CorpusScenario, error) {
	var out []*scenarios.CorpusScenario
	for _, fam := range scenarios.Families {
		for i, n := 0, 0; n < perFamily; i++ {
			sc, err := scenarios.GenScenario(fam, i, seed)
			if err != nil {
				return nil, err
			}
			if fam == scenarios.FamilyTelco && len(sc.Svc.Tiers) > maxTelcoStages {
				continue
			}
			out = append(out, sc)
			n++
		}
	}
	return out, nil
}

func (c corpusSolve) setup(seed int64) (instance, error) {
	scs, err := genCorpus(seed, c.perFamily)
	if err != nil {
		return nil, err
	}
	in := &corpusInst{corpusSolve: c}
	for _, sc := range scs {
		want, err := referenceSolve(sc)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", sc.Name, err)
		}
		in.cases = append(in.cases, corpusCase{sc.Name, sc.InfSpec, sc.SvcSpec, sc.Registry, want})
	}
	// Interleave the families, so every stretch of the loop sees the mix.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.cases), func(i, j int) { in.cases[i], in.cases[j] = in.cases[j], in.cases[i] })
	// Warm-up: one full untimed pass, which must already be right.
	rc := newRunCtx(config{})
	if _, err := in.pass(rc, false); err != nil {
		return nil, err
	}
	if rc.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", rc.failures[0])
	}
	return in, nil
}

func (in *corpusInst) close() {}

func (in *corpusInst) run(rc *runCtx) error {
	return closedLoop(rc, func(traced bool) (int, error) { return in.pass(rc, traced) })
}

// pass solves every scenario once.
func (in *corpusInst) pass(rc *runCtx, traced bool) (int, error) {
	for i := range in.cases {
		if _, err := in.solveOne(rc, &in.cases[i], traced); err != nil {
			return i, err
		}
	}
	return len(in.cases), nil
}

// solveOne runs one operation and returns its solution (nil when
// infeasible). A wrong answer is recorded on rc; an error that stops
// the benchmark (a spec that no longer parses) is returned.
func (in *corpusInst) solveOne(rc *runCtx, sc *corpusCase, traced bool) (*core.Solution, error) {
	t := rc.tally
	c0, t0 := cpuNow(), now()
	idoc, err := spec.Parse(sc.infSpec)
	if err != nil {
		return nil, fmt.Errorf("%s: parse infrastructure: %w", sc.name, err)
	}
	sdoc, err := spec.Parse(sc.svcSpec)
	if err != nil {
		return nil, fmt.Errorf("%s: parse service: %w", sc.name, err)
	}
	t1 := now()
	inf, err := model.BindInfrastructure(idoc)
	if err != nil {
		return nil, fmt.Errorf("%s: bind infrastructure: %w", sc.name, err)
	}
	svc, err := model.BindService(sdoc)
	if err != nil {
		return nil, fmt.Errorf("%s: bind service: %w", sc.name, err)
	}
	if err := svc.Resolve(inf); err != nil {
		return nil, fmt.Errorf("%s: resolve: %w", sc.name, err)
	}
	t2 := now()
	solver, err := core.NewSolver(inf, svc, t.options(core.Options{Registry: sc.registry, Workers: in.workers}, traced))
	if err != nil {
		return nil, fmt.Errorf("%s: solver: %w", sc.name, err)
	}
	t3 := now()
	sol, solveErr := solver.Solve(*svc.Reqs)
	t4 := now()
	got, err := answerOf(sol, solveErr)
	if err == nil && got != sc.want {
		err = fmt.Errorf("got %v, want %v", got, sc.want)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", sc.name, err)
	}
	t5, c5 := now(), cpuNow()
	rc.op(time.Duration(c5-c0), err)
	if !traced {
		return sol, nil
	}
	availWall := t.engineCalls(t3, t4)
	t.add("spec.parse_us", float64(t1-t0)/1e3)
	t.add("model.bind_us", float64(t2-t1)/1e3)
	t.add("core.new_solver_us", float64(t3-t2)/1e3)
	t.add("core.solve_us", float64(t4-t3)/1e3)
	t.add("core.self_us", float64(t4-t3-availWall)/1e3)
	if sol != nil {
		t.addStats(sol.Stats)
	}
	t.op(ledger{wall: t5 - t0, parts: []part{
		{"spec", t1 - t0},
		{"model", t2 - t1},
		{"core.new_solver", t3 - t2},
		{"core.self", t4 - t3 - availWall},
		{"avail", availWall},
	}})
	return sol, nil
}

// addStats folds one solve's effort counters into the tally.
func (t *tally) addStats(st core.Stats) {
	t.add("core.candidates", float64(st.CandidatesGenerated))
	t.add("core.evaluations", float64(st.Evaluations))
	t.add("core.eval_cache_hits", float64(st.EvalCacheHits))
	t.add("core.bound_pruned", float64(st.BoundPruned))
	t.add("core.cost_pruned", float64(st.CostPruned))
	t.add("core.frontier_reuse", float64(st.FrontierReuse))
	t.add("core.warm_start_reuse", float64(st.WarmStartReuse))
	t.add("avail.memo_hits", float64(st.ModeMemoHits))
	t.add("avail.memo_solves", float64(st.ModeMemoSolves))
}
