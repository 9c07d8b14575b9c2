package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"aved/internal/core"
)

// Small configurations of the four workloads, so the tests run in
// seconds. Solves run on one worker: with several, a solve's effort
// counters depend on scheduling, and the tests compare them exactly.
var small = map[string]workload{
	"corpus-solve": corpusSolve{perFamily: 3, workers: 1},
	"sweep-grid":   sweepGrid{points: 4, offsets: 2, workers: 1},
	"service-mix":  serviceMix{rate: 100},
	"sim-certify":  simCertify{perFamily: 2},
}

func setup(t *testing.T, name string, seed int64) instance {
	t.Helper()
	inst, err := small[name].setup(seed)
	if err != nil {
		t.Fatalf("%s seed %d: set-up: %v", name, seed, err)
	}
	t.Cleanup(inst.close)
	return inst
}

// untimed drops the solve's phase timings, which only a traced solve
// records, leaving the effort counters.
func untimed(st core.Stats) core.Stats {
	st.PhaseNanos = nil
	return st
}

// TestTracingChangesNothing pins that the traced run's pass-through
// engine and metrics registry leave every answer and every effort
// counter — memo hits and solves included — as the untraced run has
// them.
func TestTracingChangesNothing(t *testing.T) {
	t.Run("corpus-solve", func(t *testing.T) {
		in := setup(t, "corpus-solve", 1).(*corpusInst)
		rc := newRunCtx(config{})
		for i := range in.cases {
			c := &in.cases[i]
			plain, err := in.solveOne(rc, c, false)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := in.solveOne(rc, c, true)
			if err != nil {
				t.Fatal(err)
			}
			if (plain == nil) != (traced == nil) {
				t.Fatalf("%s: untraced solution %v, traced %v", c.name, plain != nil, traced != nil)
			}
			if plain == nil {
				continue
			}
			if plain.Design.Label() != traced.Design.Label() || plain.Cost != traced.Cost ||
				plain.DowntimeMinutes != traced.DowntimeMinutes || plain.JobTime != traced.JobTime {
				t.Errorf("%s: untraced %s %v, traced %s %v", c.name,
					plain.Design.Label(), plain.Cost, traced.Design.Label(), traced.Cost)
			}
			if a, b := untimed(plain.Stats), untimed(traced.Stats); !reflect.DeepEqual(a, b) {
				t.Errorf("%s: untraced stats %+v, traced %+v", c.name, a, b)
			}
			if traced.Stats.ModeMemoSolves == 0 {
				t.Errorf("%s: traced solve reports no memo solves; MemoStats is not forwarded", c.name)
			}
		}
		if rc.failed > 0 {
			t.Errorf("%d wrong answers: %v", rc.failed, rc.failures)
		}
	})
	t.Run("sweep-grid", func(t *testing.T) {
		in := setup(t, "sweep-grid", 1).(*sweepInst)
		tl := newTally()
		for _, set := range in.sets {
			for _, g := range set.runs {
				var stats [2]core.Stats
				for i, traced := range []bool{false, true} {
					solver, err := core.NewSolver(in.inf, g.svc, tl.options(core.Options{Registry: in.reg, Workers: in.workers}, traced))
					if err != nil {
						t.Fatal(err)
					}
					// sweepOnce checks every cell against the reference.
					st, _, _, err := sweepOnce(set, g, solver)
					if err != nil {
						t.Fatalf("%s traced=%v: %v", g.name, traced, err)
					}
					stats[i] = st
				}
				if !reflect.DeepEqual(stats[0], stats[1]) {
					t.Errorf("%s: untraced stats %+v, traced %+v", g.name, stats[0], stats[1])
				}
				if stats[1].ModeMemoSolves == 0 {
					t.Errorf("%s: traced sweep reports no memo solves", g.name)
				}
			}
		}
	})
}

// traced runs a workload's traced pass briefly.
func traced(t *testing.T, name string) *result {
	t.Helper()
	res, err := measure(small[name], config{workload: name, seed: 1, seconds: 0.3, trace: true})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.correct() {
		t.Fatalf("%s: wrong answers: %v", name, res.rc.failures)
	}
	return res
}

// TestLedgerCloses pins the traced run's ledger: every traced operation
// has one, its layer times are non-negative and disjoint — they and
// other add up to the operation's wall time with other never negative —
// and other_share is reported.
func TestLedgerCloses(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res := traced(t, name)
			tl := res.rc.tally
			if tl.ops == 0 || len(tl.ledgers) != tl.ops {
				t.Fatalf("%d traced operations, %d ledgers", tl.ops, len(tl.ledgers))
			}
			for i, l := range tl.ledgers {
				if err := l.check(); err != nil {
					t.Fatalf("operation %d: %v", i, err)
				}
				sum := l.other()
				for _, p := range l.parts {
					sum += p.ns
				}
				if sum != l.wall {
					t.Fatalf("operation %d: layers and other sum to %d ns, wall time %d ns", i, sum, l.wall)
				}
			}
			m := res.perLayer()
			if got, want := sortedKeys(m), perLayerNames(); !reflect.DeepEqual(got, want) {
				t.Fatalf("per-layer metrics %v, want %v", got, want)
			}
			if o := m["other_share"].Value; o < 0 || o >= 0.5 {
				t.Errorf("other_share %v, want within [0, 0.5)", o)
			}
		})
	}
}

// inputs describes what a workload instance will run, to compare seeds.
func inputs(inst instance) string {
	var b strings.Builder
	switch in := inst.(type) {
	case *corpusInst:
		for _, c := range in.cases {
			b.WriteString(c.infSpec + c.svcSpec)
		}
	case *sweepInst:
		for _, s := range in.sets {
			fmt.Fprint(&b, s.loads, s.budgets)
		}
	case *serviceInst:
		for _, c := range in.cases {
			b.Write(c.body)
		}
	case *simInst:
		for _, d := range in.designs {
			fmt.Fprint(&b, d.name, d.tms)
		}
	default:
		panic(fmt.Sprintf("unknown instance %T", inst))
	}
	return b.String()
}

// TestSeedChangesInputsOnly pins that a second seed draws different
// inputs but reports the same metrics under the same names, and that
// every report carries the stamp a held-out-seed re-check needs.
func TestSeedChangesInputsOnly(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			if inputs(setup(t, name, 1)) == inputs(setup(t, name, 2)) {
				t.Fatal("seeds 1 and 2 draw the same inputs")
			}
			var names [2][]string
			for i, seed := range []int64{1, 2} {
				cfg := config{workload: name, seed: seed, seconds: 0.3}
				res, err := measure(small[name], cfg)
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.print(&out); err != nil {
					t.Fatal(err)
				}
				report, final := parseOutput(t, out.String())
				stamp := report["stamp"].(map[string]any)
				want := map[string]any{"seed": float64(seed), "nproc": float64(runtime.NumCPU()),
					"gomaxprocs": float64(runtime.GOMAXPROCS(0)), "go_version": runtime.Version(), "run_seconds": 0.3}
				if !reflect.DeepEqual(stamp, want) {
					t.Errorf("seed %d: stamp %v, want %v", seed, stamp, want)
				}
				if final["correct"] != true || final["failed"] != 0.0 {
					t.Errorf("seed %d: result %v", seed, final)
				}
				names[i] = sortedKeys(final["metrics"].(map[string]any))
			}
			if !reflect.DeepEqual(names[0], names[1]) || !reflect.DeepEqual(names[0], endToEndNames) {
				t.Errorf("metric names %v and %v, want %v", names[0], names[1], endToEndNames)
			}
		})
	}
}

var endToEndNames = []string{"alloc_kb_per_op", "op_p50_ms", "op_tail_ms", "ops_per_s", "peak_rss_mb", "setup_s"}

// parseOutput splits a run's standard output into its report line and
// its final result object.
func parseOutput(t *testing.T, out string) (report, final map[string]any) {
	t.Helper()
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "report ") {
		t.Fatalf("output %q lacks a report line and a result line", out)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[len(lines)-2], "report ")), &report); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	return report, final
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func perLayerNames() []string {
	var names []string
	for _, m := range perLayerMetrics {
		names = append(names, m.name)
	}
	sort.Strings(names)
	return names
}
