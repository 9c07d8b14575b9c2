package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/obs"
)

// epoch anchors every timestamp the benchmark takes; now reads the
// monotonic clock as nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// cpuNow reads the process's CPU clock: the processor time all its
// threads have run, in nanoseconds. On a virtual machine whose kernel
// accounts steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING), this clock
// stands still while the hypervisor runs another guest on the vCPU,
// which the wall clock does not; the end-to-end times read it, so other
// tenants of a shared host do not move them.
func cpuNow() int64 {
	t, err := cpuClock()
	if err != nil {
		panic(err) // measure has read the clock once, so only a bug gets here
	}
	return t
}

func cpuClock() (int64, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("process CPU clock: %w", errno)
	}
	return ts.Nano(), nil
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runCtx collects one timed phase: every operation's CPU time and
// outcome, and in a traced run the per-layer tally.
type runCtx struct {
	seconds time.Duration
	trace   bool

	cpu []time.Duration // per right operation
	// windows cut cpu into stretches of the run that offer the same
	// inputs: a closed-loop pass, or five blocks of an open loop's mix.
	windows   []window
	attempted int
	failed    int
	failures  []string
	notes     map[string]any
	tally     *tally
}

func newRunCtx(cfg config) *runCtx {
	return &runCtx{
		seconds: time.Duration(cfg.seconds * float64(time.Second)),
		trace:   cfg.trace,
		notes:   map[string]any{},
		tally:   newTally(),
	}
}

// op records one operation: the process CPU time it took and, when
// wrong, why. Only right operations enter the end-to-end times.
func (rc *runCtx) op(cpu time.Duration, err error) {
	if err == nil {
		rc.cpu = append(rc.cpu, cpu)
	}
	rc.outcome(err)
}

// outcome records an operation whose time is no part of the end-to-end
// figures.
func (rc *runCtx) outcome(err error) {
	rc.attempted++
	if err != nil {
		rc.failed++
		if len(rc.failures) < 10 {
			rc.failures = append(rc.failures, err.Error())
		}
	}
}

func (rc *runCtx) completed() int { return rc.attempted - rc.failed }

// A window is the stretch cpu[lo:hi] of the run.
type window struct{ lo, hi int }

func (w window) rate(cpu []time.Duration) float64 {
	var busy time.Duration
	for _, d := range cpu[w.lo:w.hi] {
		busy += d
	}
	return float64(w.hi-w.lo) / busy.Seconds()
}

// endWindow closes the window that began at cpu[lo].
func (rc *runCtx) endWindow(lo int) {
	if len(rc.cpu) > lo {
		rc.windows = append(rc.windows, window{lo, len(rc.cpu)})
	}
}

// quietest returns the operation times of the run's fastest quarter of
// windows, widened to hold the 11 operations a tail needs, in run
// order. CPU time leaves out time stolen by the hypervisor but not a
// co-tenant slowing the shared core and its caches, which only ever
// slows a window; the fastest windows are the closest reading of the
// program itself, and a change that slows the program slows every
// window, these too.
func (rc *runCtx) quietest() (cpu []time.Duration, windows int) {
	ws := append([]window(nil), rc.windows...)
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].rate(rc.cpu) > ws[j].rate(rc.cpu) })
	k, n := 0, 0
	for k < len(ws) && (k < len(ws)/4 || n < 11) {
		n += ws[k].hi - ws[k].lo
		k++
	}
	ws = ws[:k]
	sort.Slice(ws, func(i, j int) bool { return ws[i].lo < ws[j].lo })
	for _, w := range ws {
		cpu = append(cpu, rc.cpu[w.lo:w.hi]...)
	}
	return cpu, k
}

func (rc *runCtx) failedShare() float64 {
	if rc.attempted == 0 {
		return 1
	}
	return float64(rc.failed) / float64(rc.attempted)
}

// closedLoop runs pass back to back until the phase's time is up and the
// tail has its 11 operations; a pass runs every input once, reports how
// many operations that was, and is one window of the run. A traced run
// alternates traced and untraced passes, so the same phase yields the
// per-layer tally and the tracing overhead.
func closedLoop(rc *runCtx, pass func(traced bool) (int, error)) error {
	start := time.Now()
	traced := rc.trace
	for time.Since(start) < rc.seconds || rc.attempted < 11 {
		t, lo := time.Now(), len(rc.cpu)
		n, err := pass(traced)
		if err != nil {
			return err
		}
		d := time.Since(t)
		rc.endWindow(lo)
		if rc.trace {
			rc.tally.passDone(traced, n, d)
			traced = !traced
		}
	}
	return nil
}

// median of a sorted-or-not sample (the mean of the middle pair for an
// even count).
func median[T float64 | time.Duration](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailWindow is the operation count of one tail window.
const tailWindow = 100

// tailOf reports an operation stream's tail time: lat, in the order the
// operations ran, is cut into windows of tailWindow operations (one
// window when there are fewer than two), each window's tail is its
// sample with exactly ten samples above it — the highest percentile the
// window supports with ten samples beyond it — and the result is the
// median of the windows' tails, so one burst of host noise moves one
// window, not the figure. It also returns that percentile and the
// window size. lat must hold at least 11 samples.
func tailOf(lat []time.Duration) (tail time.Duration, pct float64, window int) {
	window = len(lat)
	if window >= 2*tailWindow {
		window = tailWindow
	}
	var tails []time.Duration
	for lo := 0; lo+window <= len(lat); lo += window {
		w := append([]time.Duration(nil), lat[lo:lo+window]...)
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		tails = append(tails, w[window-11])
	}
	return median(tails), 100 * float64(window-10) / float64(window), window
}

// span is one timed call, in nanoseconds since epoch.
type span struct{ start, end int64 }

// spanLog collects the spans of calls made from several goroutines.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// take returns the spans logged since the last take.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// busy sums the spans' durations: the layer's time summed over every
// goroutine that called it.
func busy(spans []span) int64 {
	var t int64
	for _, s := range spans {
		t += s.end - s.start
	}
	return t
}

// covered is the wall time within [lo, hi] during which at least one
// span was open. Concurrent calls overlap, so this — not busy — is the
// share of an operation's wall clock a layer can claim in the ledger.
func covered(spans []span, lo, hi int64) int64 {
	cl := make([]span, 0, len(spans))
	for _, s := range spans {
		s.start, s.end = max(s.start, lo), min(s.end, hi)
		if s.end > s.start {
			cl = append(cl, s)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].start < cl[j].start })
	var total, curS, curE int64
	open := false
	for _, s := range cl {
		if open && s.start <= curE {
			curE = max(curE, s.end)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s.start, s.end, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// timedEngine is the traced run's pass-through availability engine. It
// times every call from outside and forwards the optional entry points
// the solver looks for — PriceTier (the search's lean pricing path),
// MemoStats (the per-solve memo counters) and InstrumentObs — so a
// solver sees the same engine with or without it. Like the Markov
// engine it wraps, it has no EvaluateCtx.
type timedEngine struct {
	inner avail.MarkovEngine
	log   *spanLog
}

func (e timedEngine) Evaluate(tms []avail.TierModel) (avail.Result, error) {
	s := now()
	r, err := e.inner.Evaluate(tms)
	e.log.add(span{s, now()})
	return r, err
}

func (e timedEngine) PriceTier(tm *avail.TierModel) (float64, error) {
	s := now()
	d, err := e.inner.PriceTier(tm)
	e.log.add(span{s, now()})
	return d, err
}

func (e timedEngine) MemoStats() (hits, solves uint64) { return e.inner.MemoStats() }

func (e timedEngine) InstrumentObs(reg *obs.Registry, tr obs.Tracer) { e.inner.InstrumentObs(reg, tr) }

// part is one layer's share of a traced operation's wall time.
type part struct {
	layer string
	ns    int64
}

// ledger splits one traced operation's wall time into disjoint layer
// times; whatever no layer claims is other.
type ledger struct {
	wall  int64
	parts []part
}

func (l ledger) other() int64 {
	o := l.wall
	for _, p := range l.parts {
		o -= p.ns
	}
	return o
}

// check reports a ledger whose layers are negative or overlap.
func (l ledger) check() error {
	for _, p := range l.parts {
		if p.ns < 0 {
			return fmt.Errorf("layer %s has negative time %d ns", p.layer, p.ns)
		}
	}
	if o := l.other(); o < 0 {
		return fmt.Errorf("layers sum to %d ns, more than the operation's %d ns wall time", l.wall-o, l.wall)
	}
	return nil
}

// tally accumulates a traced run's per-layer measurements.
type tally struct {
	ops     int                // traced operations
	sums    map[string]float64 // summed over traced operations, reported per operation
	fixed   map[string]float64 // reported as they are
	ledgers []ledger
	calls   []int64 // engine call durations, for avail.call_p50_us
	reg     *obs.Registry
	spans   spanLog
	// passes records operations and wall time of untraced [0] and
	// traced [1] passes, for the tracing overhead.
	passes [2]struct {
		ops int
		d   time.Duration
	}
}

func newTally() *tally {
	return &tally{sums: map[string]float64{}, fixed: map[string]float64{}, reg: obs.NewRegistry()}
}

func (t *tally) add(name string, v float64) { t.sums[name] += v }

func (t *tally) set(name string, v float64) { t.fixed[name] = v }

// engine wraps a fresh Markov engine so its calls land in the tally.
func (t *tally) engine() timedEngine {
	return timedEngine{inner: avail.NewMarkovEngine(), log: &t.spans}
}

// options returns opts, in a traced stretch with the tally's
// pass-through engine and metrics registry added.
func (t *tally) options(opts core.Options, traced bool) core.Options {
	if traced {
		opts.Engine, opts.Metrics = t.engine(), t.reg
	}
	return opts
}

// engineCalls folds one traced stretch's engine spans into the tally
// and returns the wall time they covered within [lo, hi].
func (t *tally) engineCalls(lo, hi int64) int64 {
	spans := t.spans.take()
	for _, s := range spans {
		t.calls = append(t.calls, s.end-s.start)
	}
	t.add("avail.calls", float64(len(spans)))
	t.add("avail.busy_us", float64(busy(spans))/1e3)
	wall := covered(spans, lo, hi)
	t.add("avail.wall_us", float64(wall)/1e3)
	return wall
}

// op closes one traced operation: its ledger, and each part's time
// under the part's own per-layer metric when it has one.
func (t *tally) op(l ledger) {
	t.ops++
	t.ledgers = append(t.ledgers, l)
}

func (t *tally) passDone(traced bool, ops int, d time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	t.passes[i].ops += ops
	t.passes[i].d += d
}

// histSum reads a registry histogram's running sum.
func (t *tally) histSum(name string) float64 {
	return t.reg.Snapshot().Histograms[name].Sum
}

// perLayerMetrics lists every per-layer metric a traced run prints, in
// BENCHMARK.json order. Times and counts are per traced operation
// unless README.md says otherwise; a layer a workload never calls reads
// 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"spec.parse_us", "us"},
	{"model.bind_us", "us"},
	{"core.new_solver_us", "us"},
	{"core.solve_us", "us"},
	{"core.self_us", "us"},
	{"core.candidates", "count"},
	{"core.evaluations", "count"},
	{"core.eval_cache_hits", "count"},
	{"core.eval_hit_ratio", "ratio"},
	{"core.bound_pruned", "count"},
	{"core.cost_pruned", "count"},
	{"core.frontier_reuse", "count"},
	{"core.warm_start_reuse", "count"},
	{"avail.calls", "count"},
	{"avail.busy_us", "us"},
	{"avail.wall_us", "us"},
	{"avail.call_p50_us", "us"},
	{"avail.memo_hits", "count"},
	{"avail.memo_solves", "count"},
	{"avail.memo_hit_ratio", "ratio"},
	{"markov.chain_solves", "count"},
	{"sweep.grid_ms.fig6-apptier", "ms"},
	{"sweep.grid_ms.fig6-ecommerce", "ms"},
	{"sweep.grid_ms.fig8-ecommerce", "ms"},
	{"sweep.cells", "count"},
	{"sweep.infeasible_cells", "count"},
	{"sweep.evals_per_cell", "count"},
	{"par.wait_ms", "ms"},
	{"par.run_ms", "ms"},
	{"sim.calls", "count"},
	{"sim.busy_ms", "ms"},
	{"sim.replications", "count"},
	{"sim.batches", "count"},
	{"sim.reps_per_s", "1/s"},
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"server.joined_share", "ratio"},
	{"server.status_4xx", "count"},
	{"server.status_429", "count"},
	{"server.status_5xx", "count"},
	{"max_rps", "1/s"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.max_outstanding", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"other_share", "ratio"},
	{"trace.ops_per_s_traced", "1/s"},
	{"trace.ops_per_s_untraced", "1/s"},
	{"trace.overhead_share", "ratio"},
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// perLayer computes the traced run's per-layer metrics.
func (r *result) perLayer() map[string]metric {
	t := r.rc.tally
	v := map[string]float64{}
	if t.ops > 0 {
		for k, s := range t.sums {
			v[k] = s / float64(t.ops)
		}
	}
	v["core.eval_hit_ratio"] = ratio(t.sums["core.eval_cache_hits"], t.sums["core.evaluations"])
	v["avail.memo_hit_ratio"] = ratio(t.sums["avail.memo_hits"], t.sums["avail.memo_solves"])
	v["markov.chain_solves"] = v["avail.memo_solves"]
	if cells := t.sums["sweep.cells"]; cells > 0 {
		v["sweep.evals_per_cell"] = t.sums["core.evaluations"] / cells
	}
	if t.ops > 0 {
		v["par.wait_ms"] = t.histSum("par.wait_ms") / float64(t.ops)
		v["par.run_ms"] = t.histSum("par.run_ms") / float64(t.ops)
	}
	if len(t.calls) > 0 {
		v["avail.call_p50_us"] = float64(median(durations(t.calls))) / 1e3
	}
	if busy := t.sums["sim.busy_ms"]; busy > 0 {
		v["sim.reps_per_s"] = t.sums["sim.replications"] / (busy / 1e3)
	}
	if ops := float64(r.rc.attempted); ops > 0 {
		v["runtime.gc_cycles"] = float64(r.gcCycles) / ops
		v["runtime.gc_pause_ms"] = r.gcPauseMS / ops
	}
	var wall, other int64
	for _, l := range t.ledgers {
		wall += l.wall
		other += l.other()
	}
	if wall > 0 {
		v["other_share"] = float64(other) / float64(wall)
	}
	rate := func(p int) float64 {
		if t.passes[p].d <= 0 {
			return 0
		}
		return float64(t.passes[p].ops) / t.passes[p].d.Seconds()
	}
	v["trace.ops_per_s_untraced"], v["trace.ops_per_s_traced"] = rate(0), rate(1)
	if u := rate(0); u > 0 {
		v["trace.overhead_share"] = 1 - rate(1)/u
	}
	for k, x := range t.fixed {
		v[k] = x
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		x := v[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[m.name] = metric{x, m.unit}
	}
	return out
}

func durations(ns []int64) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, x := range ns {
		out[i] = time.Duration(x)
	}
	return out
}
