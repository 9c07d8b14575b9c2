// Command perfbench is the repository benchmark. It drives aved through
// the entry points its users call — corpus solves, requirement-grid
// sweeps, the /v1/solve service and Monte-Carlo certification — checks
// every answer against reference answers built during set-up, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics, or with --trace 1 the per-layer ledger.
//
//	bash perfbench/run.sh --workload corpus-solve --seed 1 --seconds 10 --trace 0
//
// README.md beside this file describes the workloads, the metrics and
// which layer metric should move which end-to-end number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRuns is how many times a run builds its workload from scratch;
// setup_s is the median of those builds' process CPU time.
const setupRuns = 3

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// A workload builds its inputs and reference answers from a seed and
// returns an instance ready to time.
type workload interface {
	setup(seed int64) (instance, error)
}

// An instance runs the timed phase of one workload into rc and releases
// whatever it started (listeners, goroutines) on close.
type instance interface {
	run(rc *runCtx) error
	close()
}

// workloads maps each --workload name to its full-size configuration.
var workloads = map[string]workload{
	"corpus-solve": corpusSolve{perFamily: 500},
	"sweep-grid":   sweepGrid{points: 16, offsets: 4},
	"service-mix":  serviceMix{rate: 250},
	"sim-certify":  simCertify{perFamily: 13},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = trace == 1
	res, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		for _, f := range res.rc.failures {
			fmt.Fprintln(stderr, "perfbench: wrong answer:", f)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measure sets the workload up setupRuns times, keeping the last
// instance, then runs its timed phase.
func measure(w workload, cfg config) (*result, error) {
	var (
		inst   instance
		setups []float64
	)
	if _, err := cpuClock(); err != nil {
		return nil, err
	}
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		start := cpuNow()
		next, err := w.setup(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, float64(cpuNow()-start)/1e9)
		inst = next
	}
	defer inst.close()
	runtime.GC()

	rc := newRunCtx(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := inst.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	runtime.ReadMemStats(&after)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return &result{
		cfg:        cfg,
		rc:         rc,
		setupS:     median(setups),
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		peakRSSMB:  rss,
	}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// result is one finished run.
type result struct {
	cfg        config
	rc         *runCtx
	setupS     float64
	allocBytes uint64
	gcCycles   uint32
	gcPauseMS  float64
	peakRSSMB  float64
}

func (r *result) correct() bool { return r.rc.failed == 0 && r.rc.attempted > 0 }

// metric is one named value with its unit, as the final line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics of an untraced run. Times
// are process CPU time (see cpuNow): ops_per_s is operations per
// CPU-second, the latencies are CPU milliseconds per operation, all
// from the run's quietest windows; allocation and peak RSS are the
// whole run's.
func (r *result) endToEnd() (map[string]metric, map[string]any, error) {
	cpu, quiet := r.rc.quietest()
	n := len(cpu)
	if n < 11 {
		return nil, nil, fmt.Errorf("only %d operations in the quietest windows; the tail needs at least 11", n)
	}
	var total time.Duration
	for _, d := range cpu {
		total += d
	}
	tail, tailPct, window := tailOf(cpu)
	m := map[string]metric{
		"setup_s":         {r.setupS, "s"},
		"ops_per_s":       {float64(n) / total.Seconds(), "1/s"},
		"op_p50_ms":       {ms(median(cpu)), "ms"},
		"op_tail_ms":      {ms(tail), "ms"},
		"alloc_kb_per_op": {float64(r.allocBytes) / 1024 / float64(r.rc.completed()), "KiB"},
		"peak_rss_mb":     {r.peakRSSMB, "MiB"},
	}
	extra := map[string]any{
		"op_tail_percentile": tailPct,
		"op_tail_window":     window,
		"op_samples":         n,
		"windows":            len(r.rc.windows),
		"quiet_windows":      quiet,
		"failed_share":       r.rc.failedShare(),
	}
	return m, extra, nil
}

// print writes the report line (stamp plus every figure) and, last, the
// result object.
func (r *result) print(w io.Writer) error {
	var (
		metrics map[string]metric
		extra   map[string]any
		err     error
	)
	if r.cfg.trace {
		metrics = r.perLayer()
	} else if metrics, extra, err = r.endToEnd(); err != nil {
		return err
	}
	report := map[string]any{
		"workload": r.cfg.workload,
		"trace":    r.cfg.trace,
		"stamp":    stamp(r.cfg),
		"metrics":  metrics,
		"extra":    extra,
		"notes":    r.rc.notes,
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", line)
	final, err := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.rc.attempted,
		"failed":    r.rc.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}

// stamp identifies the run: its inputs, its host and its length, so a
// figure can be re-checked on the same or a held-out seed.
func stamp(cfg config) map[string]any {
	return map[string]any{
		"seed":        cfg.seed,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"run_seconds": cfg.seconds,
	}
}
