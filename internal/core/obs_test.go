package core

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"

	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/units"
)

func ecommerceObsSolver(t *testing.T, opts Options) *Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Ecommerce(inf)
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

// normalizeEvents canonicalizes a trace for cross-run comparison:
// wall-clock fields zeroed, engine-memo events dropped (the mode memo
// is not singleflight, so concurrent misses may double-solve and the
// hit/solve split is scheduling-dependent), then sorted as a multiset.
func normalizeEvents(evs []obs.Event) []string {
	out := make([]string, 0, len(evs))
	for _, e := range evs {
		if strings.HasPrefix(e.Ev, "memo.") {
			continue
		}
		e.T, e.MS, e.DurNs = 0, 0, 0
		b, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

// TestTraceDeterministicAcrossWorkers pins the repo invariant on the
// trace surface: the multiset of core search events is identical
// whatever the worker count, because per-tier walks are sequential and
// the singleflight evaluation cache gives every fingerprint exactly one
// miss however many goroutines race on it.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	req := enterpriseReq(2000, 60)
	run := func(workers int) []string {
		var tr obs.CollectTracer
		s := ecommerceObsSolver(t, Options{Workers: workers, Tracer: &tr})
		if _, err := s.Solve(req); err != nil {
			t.Fatal(err)
		}
		return normalizeEvents(tr.Events())
	}
	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatalf("event counts differ: %d sequential vs %d parallel", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("event multiset diverges at %d:\n%s\nvs\n%s", i, seq[i], par[i])
		}
	}
}

// TestTraceEventCountsMatchStats ties the event stream to the Solution
// counters: every counted unit of search effort has exactly one event.
func TestTraceEventCountsMatchStats(t *testing.T) {
	var tr obs.CollectTracer
	s := ecommerceObsSolver(t, Options{Tracer: &tr})
	sol, err := s.Solve(enterpriseReq(2000, 60))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, e := range tr.Events() {
		counts[e.Ev]++
	}
	checks := []struct {
		ev   string
		want int
	}{
		{obs.EvSearchStart, 1},
		{obs.EvSearchEnd, 1},
		{obs.EvCandGen, sol.Stats.CandidatesGenerated},
		{obs.EvCandPrune, sol.Stats.CostPruned},
		{obs.EvEvalMiss, sol.Stats.Evaluations},
		{obs.EvEvalHit, sol.Stats.EvalCacheHits},
	}
	for _, c := range checks {
		if counts[c.ev] != c.want {
			t.Errorf("%s events = %d, want %d", c.ev, counts[c.ev], c.want)
		}
	}
	if counts[obs.EvPhaseStart] == 0 || counts[obs.EvPhaseStart] != counts[obs.EvPhaseEnd] {
		t.Errorf("unbalanced phases: %d starts, %d ends", counts[obs.EvPhaseStart], counts[obs.EvPhaseEnd])
	}
	if counts[obs.EvTierDone] != len(sol.Design.Tiers) {
		t.Errorf("tier.done events = %d, want %d", counts[obs.EvTierDone], len(sol.Design.Tiers))
	}
	if counts[obs.EvIncumbent] == 0 {
		t.Error("no incumbent events for a feasible solve")
	}
}

// TestJobTraceEvents covers the job-search path: kind=job on the
// terminal event, the job-search phase, and incumbents carrying the
// completion time. The job search emits millions of cand.gen events, so
// the checks run as events arrive and none is kept.
func TestJobTraceEvents(t *testing.T) {
	var start, end, incumbents, phases int
	var endJobH float64
	tr := obs.FuncTracer(func(e obs.Event) {
		switch e.Ev {
		case obs.EvSearchStart:
			start++
			if e.Kind != "job" {
				t.Errorf("search.start kind = %q, want job", e.Kind)
			}
		case obs.EvSearchEnd:
			end++
			endJobH = e.JobH
		case obs.EvIncumbent:
			incumbents++
			if e.JobH <= 0 {
				t.Errorf("job incumbent without a completion time: %+v", e)
			}
		case obs.EvPhaseStart:
			if e.Phase != "job-search" {
				t.Errorf("phase = %q, want job-search", e.Phase)
			}
			phases++
		}
	})
	s := scientificSolver(t, Options{Tracer: tr})
	sol, err := s.Solve(model.Requirements{Kind: model.ReqJob, MaxJobTime: 3 * units.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if endJobH != sol.JobTime.Hours() {
		t.Errorf("search.end jobH = %v, want %v", endJobH, sol.JobTime.Hours())
	}
	if start != 1 || end != 1 || incumbents == 0 || phases != 1 {
		t.Errorf("start=%d end=%d incumbents=%d phases=%d", start, end, incumbents, phases)
	}
}

// TestSearchErrorEvent: infeasible solves emit search.error and bump
// the registry's infeasible counter.
func TestSearchErrorEvent(t *testing.T) {
	var tr obs.CollectTracer
	reg := obs.NewRegistry()
	s := appTierSolver(t, Options{Tracer: &tr, Metrics: reg})
	_, err := s.Solve(enterpriseReq(1e9, 1000))
	var infErr *InfeasibleError
	if !errors.As(err, &infErr) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
	var errEvents int
	for _, e := range tr.Events() {
		if e.Ev == obs.EvSearchError {
			errEvents++
			if e.Err == "" {
				t.Error("search.error without an error string")
			}
		}
		if e.Ev == obs.EvSearchEnd {
			t.Error("search.end emitted for a failed solve")
		}
	}
	if errEvents != 1 {
		t.Errorf("search.error events = %d, want 1", errEvents)
	}
	snap := reg.Snapshot()
	if snap.Counters["core.infeasible"] != 1 || snap.Counters["core.solve_errors"] != 1 {
		t.Errorf("error counters = %v", snap.Counters)
	}
}

// TestMetricsRegistryPopulated: a successful solve flushes its counters
// and latency into the registry, matching the Solution's Stats.
func TestMetricsRegistryPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	s := ecommerceObsSolver(t, Options{Metrics: reg})
	sol, err := s.Solve(enterpriseReq(2000, 60))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	want := map[string]int64{
		"core.solves":          1,
		"core.candidates":      int64(sol.Stats.CandidatesGenerated),
		"core.cost_pruned":     int64(sol.Stats.CostPruned),
		"core.evaluations":     int64(sol.Stats.Evaluations),
		"core.eval_cache_hits": int64(sol.Stats.EvalCacheHits),
	}
	for k, v := range want {
		if snap.Counters[k] != v {
			t.Errorf("%s = %d, want %d", k, snap.Counters[k], v)
		}
	}
	if h := snap.Histograms["core.solve_ms"]; h.Count != 1 {
		t.Errorf("core.solve_ms count = %d, want 1", h.Count)
	}
}

// TestObsDisabledZeroAlloc is the overhead-budget regression: with
// tracing and metrics off, a warm cached evaluation must not allocate.
func TestObsDisabledZeroAlloc(t *testing.T) {
	s := appTierSolver(t, Options{})
	designs := benchEvalDesigns(t, s)
	var stats searchStats
	for i := range designs {
		if _, err := s.evalTier(context.Background(), &designs[i], fingerprintOf(&designs[i]), &stats); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		td := &designs[0]
		if _, err := s.evalTier(context.Background(), td, fingerprintOf(td), &stats); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("evalTier with observability disabled allocates %v per call, want 0", allocs)
	}
}

// TestSolutionStatsMemoDeltas: Stats attributes engine memo activity to
// the solve that caused it — a repeat solve on a warm engine reports
// hits but no new chain solves.
func TestSolutionStatsMemoDeltas(t *testing.T) {
	s := appTierSolver(t, Options{})
	first, err := s.Solve(enterpriseReq(1000, 100))
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ModeMemoSolves == 0 {
		t.Error("first solve reports no mode-chain solves")
	}
	second, err := s.Solve(enterpriseReq(1000, 100))
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.ModeMemoSolves != 0 {
		t.Errorf("repeat solve reports %d new chain solves, want 0 (warm memo)", second.Stats.ModeMemoSolves)
	}
}
