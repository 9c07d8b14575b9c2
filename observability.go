package aved

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"aved/internal/core"
	"aved/internal/obs"
	"aved/internal/sweep"
)

// Observability types. A Solver carries them through Options: set
// Options.Tracer to stream typed search events and Options.Metrics to
// accumulate counters; ServeDebug exposes pprof, expvar and a /metrics
// JSON snapshot of a registry over HTTP. All of it defaults to off and
// costs nothing when off.
type (
	// Tracer consumes typed search-trace events.
	Tracer = obs.Tracer
	// TraceEvent is one trace record (flat across the event taxonomy).
	TraceEvent = obs.Event
	// Metrics is the concurrent metrics registry (counters, gauges,
	// log-bucketed histograms).
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time read of a registry.
	MetricsSnapshot = obs.Snapshot
	// TraceCollector accumulates events in memory.
	TraceCollector = obs.CollectTracer
	// TraceFunc adapts a function to the Tracer interface.
	TraceFunc = obs.FuncTracer
	// JSONLTracer streams events as JSON lines.
	JSONLTracer = obs.JSONLTracer
	// SweepTotals aggregates search effort across a sweep.
	SweepTotals = sweep.Totals
)

// Trace event types (TraceEvent.Ev values). See the internal obs
// package for the full taxonomy semantics.
const (
	EvSearchStart = obs.EvSearchStart
	EvSearchEnd   = obs.EvSearchEnd
	EvSearchError = obs.EvSearchError
	EvPhaseStart  = obs.EvPhaseStart
	EvPhaseEnd    = obs.EvPhaseEnd
	EvTierDone    = obs.EvTierDone
	EvCandGen     = obs.EvCandGen
	EvCandPrune   = obs.EvCandPrune
	EvBoundPrune  = obs.EvBoundPrune
	EvWarmReuse   = obs.EvWarmReuse
	// EvFrontierReuse is a whole tier frontier served from the solver's
	// walk and frontier memo (Solver.SolveChain), which every budget
	// chain on the solver shares, instead of rebuilt. It carries the
	// tier and the frontier key; the replay charges no other effort.
	EvFrontierReuse = obs.EvFrontierReuse
	// EvWalkReuse is a per-tier search replayed from the solver's walk
	// and frontier memo, recorded by this budget chain or an earlier
	// one, instead of walked. It carries the tier and the walk's key;
	// the replay charges no other effort.
	EvWalkReuse  = obs.EvWalkReuse
	EvEvalMiss   = obs.EvEvalMiss
	EvEvalHit    = obs.EvEvalHit
	EvIncumbent  = obs.EvIncumbent
	EvMemoHit    = obs.EvMemoHit
	EvMemoSolve  = obs.EvMemoSolve
	EvSimBatch   = obs.EvSimBatch
	EvSweepPoint = obs.EvSweepPoint
)

// PhaseNames lists the solver's timed phase names in display order —
// the keys Stats.PhaseNanos and the solve.phase.* histograms use.
func PhaseNames() []string { return core.PhaseNames() }

// WritePhaseTable renders a PhaseNanos breakdown (Stats.PhaseNanos,
// SweepTotals.PhaseNanos, possibly extended with caller-timed phases
// like "bind") as an aligned milliseconds table: "bind" first, then
// the solver's phases in display order, then anything else sorted.
// Entries overlap — "eval" accrues inside the bracketed phases — so
// the rows deliberately carry no total line.
func WritePhaseTable(w io.Writer, phaseNanos map[string]int64) {
	if len(phaseNanos) == 0 {
		fmt.Fprintln(w, "phase timings: none recorded (timing off)")
		return
	}
	order := append([]string{"bind"}, PhaseNames()...)
	known := make(map[string]bool, len(order))
	for _, n := range order {
		known[n] = true
	}
	var extra []string
	for n := range phaseNanos {
		if !known[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	fmt.Fprintln(w, "phase timings (overlapping: eval accrues inside the bracketed phases):")
	for _, n := range append(order, extra...) {
		if ns, ok := phaseNanos[n]; ok {
			fmt.Fprintf(w, "  %-12s %12.2f ms\n", n, obs.DurMS(ns))
		}
	}
}

// WriteMetricsHTTP serves a registry snapshot over HTTP with format
// negotiation: Prometheus text exposition for ?format=prom or an
// Accept header preferring text/plain, the JSON snapshot otherwise.
func WriteMetricsHTTP(w http.ResponseWriter, r *http.Request, reg *Metrics) {
	obs.WriteMetricsHTTP(w, r, reg)
}

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewJSONLFileTracer creates (truncating) a JSONL trace file. Close it
// to flush.
func NewJSONLFileTracer(path string) (*JSONLTracer, error) { return obs.NewJSONLFileTracer(path) }

// TeeTracers fans events to several tracers; nils are skipped and a
// nil Tracer comes back when nothing remains.
func TeeTracers(ts ...Tracer) Tracer { return obs.Tee(ts...) }

// ServeDebug starts (or reuses) the debug HTTP listener on addr,
// serving net/http/pprof, expvar and a /metrics JSON snapshot of reg.
// It reports the bound address, useful with ":0".
func ServeDebug(addr string, reg *Metrics) (string, error) {
	d, err := obs.EnsureServe(addr, reg)
	if err != nil {
		return "", err
	}
	return d.Addr(), nil
}

// InstrumentEngine attaches observability to an availability engine
// directly — the path for programs that evaluate models without a
// Solver (a Solver instruments its engine itself). It reports whether
// the engine supports instrumentation.
func InstrumentEngine(eng Engine, reg *Metrics, tr Tracer) bool {
	type instrumentable interface {
		InstrumentObs(*obs.Registry, obs.Tracer)
	}
	if i, ok := eng.(instrumentable); ok {
		i.InstrumentObs(reg, tr)
		return true
	}
	return false
}

// ObsSetup bundles the observability wiring shared by the CLIs: an
// optional JSONL trace file, an optional metrics JSON file written on
// Close, and an optional debug HTTP listener. Zero paths/addr are
// skipped; a fully-zero setup is inert.
type ObsSetup struct {
	// Tracer is the trace sink, nil when no trace was requested.
	Tracer Tracer
	// Metrics is non-nil whenever any observability output needs it.
	Metrics *Metrics

	metricsPath string
	jsonl       *JSONLTracer
}

// NewObsSetup opens the requested observability outputs: tracePath
// (JSONL trace file), metricsPath (metrics snapshot written on Close —
// Prometheus text when the path ends in .prom, JSON otherwise) and
// debugAddr (HTTP listener). Empty strings disable each.
func NewObsSetup(tracePath, metricsPath, debugAddr string) (*ObsSetup, error) {
	s := &ObsSetup{metricsPath: metricsPath}
	if tracePath != "" {
		jt, err := NewJSONLFileTracer(tracePath)
		if err != nil {
			return nil, err
		}
		s.jsonl = jt
		s.Tracer = jt
	}
	if metricsPath != "" || debugAddr != "" {
		s.Metrics = NewMetrics()
	}
	if debugAddr != "" {
		if _, err := ServeDebug(debugAddr, s.Metrics); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Apply threads the setup through solver options.
func (s *ObsSetup) Apply(o Options) Options {
	o.Tracer = TeeTracers(o.Tracer, s.Tracer)
	if o.Metrics == nil {
		o.Metrics = s.Metrics
	}
	return o
}

// Close flushes the trace file and writes the metrics snapshot.
func (s *ObsSetup) Close() error {
	var firstErr error
	if s.jsonl != nil {
		if err := s.jsonl.Close(); err != nil {
			firstErr = fmt.Errorf("aved: trace: %w", err)
		}
		s.jsonl = nil
	}
	if s.metricsPath != "" && s.Metrics != nil {
		f, err := os.Create(s.metricsPath)
		if err == nil {
			// A .prom path selects the Prometheus text exposition — the
			// format node_exporter's textfile collector ingests — JSON
			// otherwise.
			if strings.HasSuffix(s.metricsPath, ".prom") {
				err = s.Metrics.WritePrometheus(f)
			} else {
				err = s.Metrics.WriteJSON(f)
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("aved: metrics: %w", err)
		}
		s.metricsPath = ""
	}
	return firstErr
}
