//go:build ignore

// Command check_metrics validates the observability outputs of one
// traced search — the CI gate behind scripts/check_metrics.sh. It
// cross-checks three artifacts written by the same `aved` run:
//
//   - the -metrics JSON snapshot (counter keys, histogram counts),
//   - the -trace JSONL search trace (event multiplicities),
//   - the -json solution report (the solver's own stats),
//
// and fails when a required key is missing or any pair disagrees.
// Phase wall-clock attribution is cross-checked three ways: the
// phase.end / eval.miss DurNs sums in the trace must equal the
// solution report's phaseNanos exactly (integer nanoseconds), and the
// solve.phase.* histograms must carry the same observation counts and
// (within float tolerance) the same millisecond sums.
//
// With -sweep it instead validates a traced avedsweep run: the
// per-point reuse counters carried on sweep.point events (the numbers
// the -progress lines print) must sum to the registry's core.warm_reuse,
// core.frontier_reuse and core.walk_reuse counters and match the
// per-hit warm.reuse / frontier.reuse / walk.reuse event
// multiplicities, and the sweep must replay at least one tier walk. A
// replay charges only its reuse counter, so the effort counters
// core.candidates, core.cost_pruned, core.bound_pruned,
// core.evaluations and core.eval_cache_hits must equal the cand.gen,
// cand.prune, bound.prune, eval.miss and eval.hit event counts, as in
// solve mode; an infeasible cell flushes no counters, so every cell must
// be feasible. The phase histograms are checked against the trace the
// same way as in solve mode.
//
// With -prom it lints a Prometheus text exposition (as served by
// /metrics?format=prom or written by -metrics with a .prom path):
// every sample must belong to a family with HELP and TYPE lines,
// values must parse, histogram buckets must be cumulative
// (non-decreasing in le order) and end in an le="+Inf" bucket equal to
// the family's _count.
//
// Usage:
//
//	go run scripts/check_metrics.go metrics.json trace.jsonl solution.json
//	go run scripts/check_metrics.go -sweep metrics.json trace.jsonl
//	go run scripts/check_metrics.go -prom metrics.prom
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

type snapshot struct {
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

type solution struct {
	Candidates  int64 `json:"candidatesGenerated"`
	CostPruned  int64 `json:"costPruned"`
	BoundPruned int64 `json:"boundPruned"`
	Evaluations int64 `json:"availabilityEvaluations"`
	CacheHits   int64 `json:"evalCacheHits"`
	WarmReuse   int64 `json:"warmStartReuse"`
	// PhaseNanos is the -timings wall-clock attribution; "bind" is
	// CLI-timed (no trace events), the rest must match the trace sums.
	PhaseNanos map[string]int64 `json:"phaseNanos"`
}

// trace aggregates one JSONL search trace: event multiplicities plus
// the reuse totals the sweep.point events carry.
type trace struct {
	events map[string]int64
	// pointWarm / pointFrontier / pointWalk sum the wreuse / freuse /
	// walkreuse fields over the sweep.point events — the per-cell reuse
	// the -progress lines show.
	pointWarm     int64
	pointFrontier int64
	pointWalk     int64
	// phaseNs sums phase.end DurNs per phase; phaseEnds counts the
	// events. evalMissNs sums eval.miss DurNs — the engine wall time,
	// attributed to the cross-cutting "eval" phase.
	phaseNs    map[string]int64
	phaseEnds  map[string]int64
	evalMissNs int64
}

func main() {
	args := os.Args[1:]
	var sweepMode, promMode bool
	if len(args) > 0 {
		switch args[0] {
		case "-sweep":
			sweepMode, args = true, args[1:]
		case "-prom":
			promMode, args = true, args[1:]
		}
	}
	switch {
	case promMode && len(args) == 1,
		sweepMode && len(args) == 2,
		!promMode && !sweepMode && len(args) == 3:
	default:
		fmt.Fprintln(os.Stderr, "usage: check_metrics metrics.json trace.jsonl solution.json")
		fmt.Fprintln(os.Stderr, "       check_metrics -sweep metrics.json trace.jsonl")
		fmt.Fprintln(os.Stderr, "       check_metrics -prom metrics.prom")
		os.Exit(2)
	}
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	var families int
	var snap snapshot
	var tr trace
	var sol solution
	switch {
	case promMode:
		families = lintProm(fail, args[0])
	case sweepMode:
		readJSON(args[0], &snap)
		tr = readTrace(args[1])
		checkSweep(fail, snap, tr)
	default:
		readJSON(args[0], &snap)
		tr = readTrace(args[1])
		readJSON(args[2], &sol)
		checkSolve(fail, snap, tr, sol)
	}

	if len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "check_metrics:", e)
		}
		os.Exit(1)
	}
	switch {
	case promMode:
		fmt.Printf("check_metrics: prom ok (%d metric families)\n", families)
	case sweepMode:
		fmt.Printf("check_metrics: sweep ok (%d points, %d warm replays, %d frontier reuses, %d walk replays, %d trace events)\n",
			tr.events["sweep.point"], tr.pointWarm, tr.pointFrontier, tr.pointWalk, total(tr.events))
	default:
		fmt.Printf("check_metrics: ok (%d candidates, %d evaluations, %d trace events)\n",
			sol.Candidates, sol.Evaluations, total(tr.events))
	}
}

// checkSolve validates one single-solve `aved` run.
func checkSolve(fail func(string, ...any), snap snapshot, tr trace, sol solution) {
	events := tr.events
	// Metrics schema: the counters and timing histogram a single
	// completed solve must flush.
	for _, key := range []string{
		"core.solves", "core.candidates", "core.cost_pruned",
		"core.bound_pruned", "core.warm_reuse", "core.frontier_reuse",
		"core.walk_reuse",
		"core.evaluations", "core.eval_cache_hits",
		"avail.memo.hits", "avail.memo.solves",
	} {
		if _, ok := snap.Counters[key]; !ok {
			fail("metrics: counter %q missing", key)
		}
	}
	if n := snap.Counters["core.solves"]; n != 1 {
		fail("metrics: core.solves = %d, want 1", n)
	}
	if h, ok := snap.Histograms["core.solve_ms"]; !ok {
		fail("metrics: histogram core.solve_ms missing")
	} else if h.Count != 1 {
		fail("metrics: core.solve_ms count = %d, want 1", h.Count)
	}

	// Trace shape: one search lifecycle, no errors.
	if n := events["search.start"]; n != 1 {
		fail("trace: %d search.start events, want 1", n)
	}
	if n := events["search.end"]; n != 1 {
		fail("trace: %d search.end events, want 1", n)
	}
	if n := events["search.error"]; n != 0 {
		fail("trace: %d search.error events, want 0", n)
	}

	// Cross-checks: trace multiplicities, metrics counters and the
	// solution report all describe the same search. FrontierReuse and
	// WalkReuse are zero by contract on a plain solve (the solver's walk
	// and frontier memo they count serves only Solver.SolveChain budget
	// chains, never SolveContext), so their rows pin exactly that.
	cross := []struct {
		ev      string
		counter string
		stat    int64
	}{
		{"cand.gen", "core.candidates", sol.Candidates},
		{"cand.prune", "core.cost_pruned", sol.CostPruned},
		// A whole-option subtree prune emits one bound.prune event and
		// counts one bound-pruned candidate, so the identity holds for
		// per-candidate and per-subtree prunes alike.
		{"bound.prune", "core.bound_pruned", sol.BoundPruned},
		{"eval.miss", "core.evaluations", sol.Evaluations},
		{"eval.hit", "core.eval_cache_hits", sol.CacheHits},
		{"warm.reuse", "core.warm_reuse", sol.WarmReuse},
		{"frontier.reuse", "core.frontier_reuse", 0},
		{"walk.reuse", "core.walk_reuse", 0},
	}
	for _, c := range cross {
		if got := events[c.ev]; got != c.stat {
			fail("trace: %d %s events but the solution reports %d", got, c.ev, c.stat)
		}
		if got := snap.Counters[c.counter]; got != c.stat {
			fail("metrics: %s = %d but the solution reports %d", c.counter, got, c.stat)
		}
	}
	if sol.Candidates == 0 {
		fail("solution: zero candidates generated — the search did not run")
	}

	// Phase attribution: the solution's phaseNanos (a -timings run) must
	// equal the trace's phase.end / eval.miss DurNs sums exactly —
	// they are the same int64 nanoseconds accumulated on two paths.
	// "bind" is stamped by the CLI around model loading, outside the
	// solver, so it has no trace events; everything else must match.
	if len(sol.PhaseNanos) == 0 {
		fail("solution: no phaseNanos — run aved with -timings")
	}
	for name, ns := range sol.PhaseNanos {
		if name == "bind" {
			continue
		}
		var traced int64
		if name == "eval" {
			traced = tr.evalMissNs
		} else {
			traced = tr.phaseNs[name]
		}
		if traced != ns {
			fail("trace: phase %q sums to %d ns but the solution reports %d", name, traced, ns)
		}
	}
	for name, ns := range tr.phaseNs {
		if _, ok := sol.PhaseNanos[name]; !ok && ns != 0 {
			fail("solution: phase %q missing from phaseNanos but the trace spent %d ns in it", name, ns)
		}
	}
	checkPhaseHistograms(fail, snap, tr)
}

// checkPhaseHistograms pins the solve.phase.* histograms to the trace:
// each bracketed phase's histogram must hold exactly one observation
// per phase.end event, the eval histogram exactly one per eval.miss,
// and every sum (milliseconds) must match the traced nanoseconds up to
// float accumulation error.
func checkPhaseHistograms(fail func(string, ...any), snap snapshot, tr trace) {
	check := func(phase string, count, ns int64) {
		key := "solve.phase." + phase
		h, ok := snap.Histograms[key]
		if !ok {
			if count != 0 {
				fail("metrics: histogram %s missing but the trace has %d observations of it", key, count)
			}
			return
		}
		if h.Count != count {
			fail("metrics: %s count = %d but the trace has %d", key, h.Count, count)
		}
		wantMS := float64(ns) / 1e6
		if !closeEnough(h.Sum, wantMS) {
			fail("metrics: %s sum = %g ms but the trace sums to %g ms", key, h.Sum, wantMS)
		}
	}
	for phase, count := range tr.phaseEnds {
		check(phase, count, tr.phaseNs[phase])
	}
	check("eval", tr.events["eval.miss"], tr.evalMissNs)
}

// closeEnough compares a histogram's float64 millisecond sum against
// the exact nanosecond-derived value, tolerating the per-observation
// rounding the float accumulation introduces.
func closeEnough(got, want float64) bool {
	diff := math.Abs(got - want)
	return diff <= 1e-6 || diff <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

// checkSweep validates one traced grid-aware avedsweep run: the reuse
// totals on the sweep.point events (what -progress prints per cell)
// must agree with both the per-hit trace events and the registry
// counters the solver bumps.
func checkSweep(fail func(string, ...any), snap snapshot, tr trace) {
	events := tr.events
	points := events["sweep.point"]
	if points == 0 {
		fail("trace: no sweep.point events — the sweep did not run")
	}
	if got := snap.Counters["sweep.points"]; got != points {
		fail("metrics: sweep.points = %d but the trace has %d sweep.point events", got, points)
	}
	cross := []struct {
		name    string
		ev      string
		counter string
		points  int64
	}{
		{"warm replays", "warm.reuse", "core.warm_reuse", tr.pointWarm},
		{"frontier reuses", "frontier.reuse", "core.frontier_reuse", tr.pointFrontier},
		{"walk replays", "walk.reuse", "core.walk_reuse", tr.pointWalk},
	}
	for _, c := range cross {
		if got := events[c.ev]; got != c.points {
			fail("trace: %d %s events but the sweep.point events carry %d %s",
				got, c.ev, c.points, c.name)
		}
		if got := snap.Counters[c.counter]; got != c.points {
			fail("metrics: %s = %d but the sweep.point events carry %d %s",
				c.counter, got, c.points, c.name)
		}
	}
	// Every effort counter counts work the cells did, replays charging
	// only their reuse counters, so each equals its event count. Only
	// feasible cells flush counters to the registry.
	if n := events["search.error"]; n != 0 {
		fail("trace: %d search.error events — the effort rows need a sweep whose every cell is feasible", n)
	}
	for _, c := range []struct{ ev, counter string }{
		{"cand.gen", "core.candidates"},
		{"cand.prune", "core.cost_pruned"},
		{"bound.prune", "core.bound_pruned"},
		{"eval.miss", "core.evaluations"},
		{"eval.hit", "core.eval_cache_hits"},
	} {
		if got, want := events[c.ev], snap.Counters[c.counter]; got != want {
			fail("trace: %d %s events but metrics %s = %d", got, c.ev, c.counter, want)
		}
	}
	// Non-vacuity: a grid-aware budget chain must actually replay
	// earlier cells' evaluations, or the check proves nothing.
	if tr.pointWarm == 0 {
		fail("trace: the sweep never made a warm replay of an earlier cell's entry — grid-aware scheduling is off")
	}
	if tr.pointWalk == 0 {
		fail("trace: the sweep never replayed a tier walk — the solver's walk memo is off")
	}
	// The per-cell solvers share the registry, so the phase histograms
	// must aggregate exactly the phase.end / eval.miss spans the trace
	// recorded across all cells.
	checkPhaseHistograms(fail, snap, tr)
	if total(tr.phaseEnds) == 0 {
		fail("trace: no phase.end events — phase timing is off despite tracing")
	}
}

// lintProm validates a Prometheus text exposition (format 0.0.4) and
// returns the family count: every sample must belong to a family with
// HELP and TYPE lines and a legal metric name, every value must parse,
// and each histogram's buckets must be cumulative in non-decreasing le
// order, ending in an le="+Inf" bucket that equals the family _count.
func lintProm(fail func(string, ...any), path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check_metrics: %v\n", err)
		os.Exit(1)
	}
	type sample struct {
		name, labels, value string
		line                int
	}
	help := make(map[string]bool)
	typ := make(map[string]string)
	var samples []sample
	for i, raw := range strings.Split(string(data), "\n") {
		line := i + 1
		switch {
		case raw == "":
		case strings.HasPrefix(raw, "# HELP "):
			name, _, _ := strings.Cut(raw[len("# HELP "):], " ")
			checkPromName(fail, name, line)
			help[name] = true
		case strings.HasPrefix(raw, "# TYPE "):
			name, kind, _ := strings.Cut(raw[len("# TYPE "):], " ")
			checkPromName(fail, name, line)
			switch kind {
			case "counter", "gauge", "histogram":
			default:
				fail("prom:%d: unknown TYPE %q for %s", line, kind, name)
			}
			if _, dup := typ[name]; dup {
				fail("prom:%d: duplicate TYPE line for %s", line, name)
			}
			typ[name] = kind
		case strings.HasPrefix(raw, "#"):
			// Other comments are legal and ignored.
		default:
			s := sample{line: line}
			rest := raw
			if br := strings.IndexByte(raw, '{'); br >= 0 {
				end := strings.IndexByte(raw, '}')
				if end < br {
					fail("prom:%d: unterminated label set", line)
					continue
				}
				s.name, s.labels, rest = raw[:br], raw[br+1:end], raw[end+1:]
			} else if sp := strings.IndexByte(raw, ' '); sp >= 0 {
				s.name, rest = raw[:sp], raw[sp:]
			} else {
				fail("prom:%d: sample without a value", line)
				continue
			}
			s.value = strings.TrimSpace(rest)
			checkPromName(fail, s.name, line)
			if _, err := strconv.ParseFloat(s.value, 64); err != nil {
				fail("prom:%d: value %q does not parse: %v", line, s.value, err)
			}
			samples = append(samples, s)
		}
	}

	// Resolve each sample to its family: histogram series drop their
	// _bucket/_sum/_count suffix; everything else is its own family.
	famOf := func(n string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(n, suf); ok && typ[base] == "histogram" {
				return base
			}
		}
		return n
	}
	series := make(map[string][]sample)
	for _, s := range samples {
		fam := famOf(s.name)
		series[fam] = append(series[fam], s)
		if !help[fam] {
			fail("prom:%d: sample %s has no # HELP %s line", s.line, s.name, fam)
			help[fam] = true // report once per family
		}
		if typ[fam] == "" {
			fail("prom:%d: sample %s has no # TYPE %s line", s.line, s.name, fam)
			typ[fam] = "?"
		}
	}

	fams := make([]string, 0, len(typ))
	for name := range typ {
		fams = append(fams, name)
	}
	sort.Strings(fams)
	for _, name := range fams {
		ss := series[name]
		if len(ss) == 0 {
			fail("prom: family %s has TYPE but no samples", name)
			continue
		}
		if typ[name] != "histogram" {
			continue
		}
		// Histogram shape: cumulative buckets in non-decreasing le order,
		// closed by +Inf == _count, with exactly one _sum and _count.
		var lastLe, lastCum float64
		var infCum, count float64
		var sawInf, sawSum, sawCount bool
		first := true
		for _, s := range ss {
			v, _ := strconv.ParseFloat(s.value, 64)
			switch {
			case s.name == name+"_sum":
				sawSum = true
			case s.name == name+"_count":
				sawCount = true
				count = v
			case s.name == name+"_bucket":
				le, ok := strings.CutPrefix(s.labels, `le="`)
				le, ok2 := strings.CutSuffix(le, `"`)
				if !ok || !ok2 {
					fail("prom:%d: %s_bucket without an le label (got %q)", s.line, name, s.labels)
					continue
				}
				if sawInf {
					fail("prom:%d: %s_bucket after the +Inf bucket", s.line, name)
				}
				bound, err := strconv.ParseFloat(le, 64)
				if err != nil {
					fail("prom:%d: %s_bucket le=%q does not parse", s.line, name, le)
					continue
				}
				if !first && bound < lastLe {
					fail("prom:%d: %s buckets out of le order (%g after %g)", s.line, name, bound, lastLe)
				}
				if !first && v < lastCum {
					fail("prom:%d: %s buckets not cumulative (%g after %g)", s.line, name, v, lastCum)
				}
				lastLe, lastCum, first = bound, v, false
				if math.IsInf(bound, +1) {
					sawInf, infCum = true, v
				}
			default:
				fail("prom:%d: unexpected histogram series %s", s.line, s.name)
			}
		}
		switch {
		case !sawInf:
			fail("prom: histogram %s has no le=\"+Inf\" bucket", name)
		case !sawCount:
			fail("prom: histogram %s has no _count", name)
		case infCum != count:
			fail("prom: histogram %s +Inf bucket = %g but _count = %g", name, infCum, count)
		}
		if !sawSum {
			fail("prom: histogram %s has no _sum", name)
		}
	}
	if len(fams) == 0 {
		fail("prom: no metric families — empty exposition")
	}
	return len(fams)
}

// checkPromName enforces the metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]* the exposition format requires.
func checkPromName(fail func(string, ...any), name string, line int) {
	ok := name != ""
	for i := 0; ok && i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			ok = false
		}
	}
	if !ok {
		fail("prom:%d: illegal metric name %q", line, name)
	}
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "check_metrics: %s: %v\n", path, err)
		os.Exit(1)
	}
}

// readTrace counts trace events by type and accumulates the sweep.point
// reuse fields, failing on any line that is not a JSON object with an
// "ev" field.
func readTrace(path string) trace {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "check_metrics: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	tr := trace{
		events:    make(map[string]int64),
		phaseNs:   make(map[string]int64),
		phaseEnds: make(map[string]int64),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		var e struct {
			Ev            string `json:"ev"`
			Phase         string `json:"phase"`
			DurNs         int64  `json:"durns"`
			WarmReuse     int64  `json:"wreuse"`
			FrontierReuse int64  `json:"freuse"`
			WalkReuse     int64  `json:"walkreuse"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Ev == "" {
			fmt.Fprintf(os.Stderr, "check_metrics: %s:%d: bad trace line: %v\n", path, line, err)
			os.Exit(1)
		}
		tr.events[e.Ev]++
		switch e.Ev {
		case "sweep.point":
			tr.pointWarm += e.WarmReuse
			tr.pointFrontier += e.FrontierReuse
			tr.pointWalk += e.WalkReuse
		case "phase.end":
			if e.Phase == "" {
				fmt.Fprintf(os.Stderr, "check_metrics: %s:%d: phase.end without a phase\n", path, line)
				os.Exit(1)
			}
			tr.phaseNs[e.Phase] += e.DurNs
			tr.phaseEnds[e.Phase]++
		case "eval.miss":
			tr.evalMissNs += e.DurNs
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "check_metrics: %s: %v\n", path, err)
		os.Exit(1)
	}
	return tr
}

func total(events map[string]int64) int64 {
	var n int64
	for _, c := range events {
		n += c
	}
	return n
}
