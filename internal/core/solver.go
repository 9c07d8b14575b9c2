// Package core implements Aved's design-space search engine (§4.1 of
// the paper) — the primary contribution. The solver takes a bound
// infrastructure model, a resolved service model, a performance
// registry and service requirements, and searches resource types,
// active/spare counts, spare operational modes and availability-
// mechanism parameters for the minimum-cost design that satisfies the
// requirements, using cost-first pruning once a feasible design is
// known and the paper's termination rules.
package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/perf"
	"aved/internal/units"
)

// DefaultMaxRedundancy bounds how many resources beyond the
// performance minimum the per-tier search explores. The paper's search
// stops when extra resources can no longer pay for themselves; the cap
// is a safety net for degenerate inputs.
const DefaultMaxRedundancy = 12

// SearchMode selects the per-tier search strategy.
type SearchMode int

const (
	// SearchBnB is best-first branch-and-bound with admissible cost
	// bounds: within each resource total, candidates evaluate in
	// ascending-cost order and the tail dearer than the incumbent is
	// pruned without an engine evaluation; in the frontier phase, whole
	// size subtrees whose cheapest candidate exceeds the combination
	// upper bound are skipped. Results are bit-identical to
	// SearchExhaustive (Design, Cost, DowntimeMinutes); only the effort
	// counters differ. The default.
	SearchBnB SearchMode = iota
	// SearchExhaustive is the original enumeration order with §4.1
	// incumbent cost pruning only. Kept for the ablation benchmarks and
	// the bit-identity property tests.
	SearchExhaustive
)

// String renders the mode as its flag spelling.
func (m SearchMode) String() string {
	switch m {
	case SearchBnB:
		return "bnb"
	case SearchExhaustive:
		return "exhaustive"
	default:
		return fmt.Sprintf("SearchMode(%d)", int(m))
	}
}

// ParseSearchMode resolves a search-strategy name as the CLIs and the
// server accept it. The empty string is the default strategy.
func ParseSearchMode(name string) (SearchMode, error) {
	switch name {
	case "", "bnb":
		return SearchBnB, nil
	case "exhaustive":
		return SearchExhaustive, nil
	default:
		return SearchBnB, fmt.Errorf("unknown search strategy %q (want bnb or exhaustive)", name)
	}
}

// Options configure a Solver.
type Options struct {
	// Engine evaluates availability models. Defaults to the analytic
	// Markov engine.
	Engine avail.Engine
	// Registry resolves performance references. Required.
	Registry *perf.Registry
	// Search selects the per-tier search strategy. The zero value is
	// SearchBnB; both modes return bit-identical solutions.
	Search SearchMode
	// ExploreSpareWarmth makes the search enumerate per-component spare
	// operational modes (§4, dimension 4) as warmth levels: 0 (cold,
	// everything inactive) up to the resource's component count (hot).
	// Off by default, matching the §5.1 examples' all-inactive spares.
	ExploreSpareWarmth bool
	// MaxRedundancy caps extra resources (actives beyond the
	// performance minimum plus spares) per tier. Zero means
	// DefaultMaxRedundancy.
	MaxRedundancy int
	// FixedMechanisms pins mechanism parameters, e.g. fixing the
	// maintenance level to bronze as §5.2 does. Keyed by mechanism
	// name, then parameter name.
	FixedMechanisms map[string]map[string]model.ParamValue
	// Workers bounds the worker pool of sensitivity factors; every solve
	// and figure sweep runs on one goroutine, and Monte-Carlo
	// replications take their pool from the sim engine
	// (aved.EngineSpec.Workers). Zero means runtime.GOMAXPROCS(0); 1
	// forces sequential execution. The setting never changes results.
	Workers int
	// Timings enables per-phase wall-clock attribution on its own:
	// Solution.Stats.PhaseNanos reports where each solve's time went
	// (see Stats.PhaseNanos) without requiring a Tracer or Metrics.
	// Timing also switches on automatically whenever either of those is
	// set — a trace without durations or a registry without the
	// solve.phase.* histograms would be misleading. Off (and with both
	// sinks nil), the solver takes no clock readings beyond the
	// whole-solve one and the hot paths stay allocation-free.
	Timings bool
	// Tracer receives structured search events (candidate generation,
	// pruning, cache activity, phase timings). Nil — the default —
	// disables tracing entirely; the hot paths never construct an event.
	Tracer obs.Tracer
	// Metrics, when non-nil, collects search counters and solve-latency
	// histograms, and exposes engine counters at snapshot time. Nil
	// disables metrics collection.
	Metrics *obs.Registry
}

// tierPricer is implemented by engines that can price a single tier's
// annual downtime without assembling a full multi-tier Result
// (avail.MarkovEngine.PriceTier). The tier search only needs the
// downtime scalar, so routing cache misses through this entry point
// skips the Result/TierResult/Contributions construction of a full
// Evaluate. PriceTier is documented bit-identical to Evaluate — same
// downtime, same memo counters, same trace events — so using it never
// changes results or stats. Structural, like obsInstrumentable.
type tierPricer interface {
	PriceTier(*avail.TierModel) (float64, error)
}

func (o Options) withDefaults() Options {
	if o.Engine == nil {
		o.Engine = avail.NewMarkovEngine()
	}
	if o.MaxRedundancy == 0 {
		o.MaxRedundancy = DefaultMaxRedundancy
	}
	return o
}

// Stats counts search effort, mirroring the paper's argument that the
// space is too large to explore manually. It is the one effort record:
// sweeps sum it (Add), and the CLI's JSON report and the server's wire
// replies encode it under its JSON names, in field order.
type Stats struct {
	// CandidatesGenerated counts complete candidate designs visited.
	CandidatesGenerated int `json:"candidatesGenerated"`
	// CostPruned counts candidates rejected on cost alone, without an
	// availability evaluation (§4.1's fast path).
	CostPruned int `json:"costPruned"`
	// BoundPruned counts candidates rejected by an admissible
	// branch-and-bound bound without an availability evaluation: the
	// sorted within-total tail cut and skipped frontier size subtrees.
	// Zero under SearchExhaustive.
	BoundPruned int `json:"boundPruned"`
	// Evaluations counts availability-engine invocations.
	Evaluations int `json:"availabilityEvaluations"`
	// EvalCacheHits counts evaluations served from the fingerprint
	// cache instead of the engine.
	EvalCacheHits int `json:"evalCacheHits"`
	// WarmStartReuse counts eval-cache hits on entries computed by an
	// earlier solve on this solver — in practice a Fig. 6 or Fig. 8
	// grid cell replaying evaluations an earlier cell of the grid, in its
	// own load chain or an earlier one, already paid for, or a repeat
	// solve on one solver. Always a subset of EvalCacheHits; zero on a
	// solver's first solve, and so always zero on the server's
	// /v1/solve, which builds a fresh solver per request.
	WarmStartReuse int `json:"warmStartReuse,omitempty"`
	// FrontierReuse counts tier frontiers this solve served from the
	// solver's walk and frontier memo instead of building (a SolveChain
	// cell). The replay charges the evaluation requests of the build its
	// chain would hold with a memo of its own to EvalCacheHits, and that
	// build's candidates and pruning to the usual counters, so every
	// per-cell counter is exact at any worker count and the same whether
	// earlier loads ran on this solver or not. Zero on plain
	// SolveContext solves.
	FrontierReuse int `json:"frontierReuse,omitempty"`
	// WalkReuse counts per-tier searches (§4.1's tier walks, in phase 1
	// and the combination bound's waterfilling) this solve replayed from
	// the solver's walk and frontier memo instead of walking (a
	// SolveChain cell), whichever chain recorded the walk. Like a
	// frontier replay, the recorded walk's evaluation requests land in
	// EvalCacheHits and its candidates and pruning in the usual
	// counters, so per-cell counters stay exact at any worker count.
	// Zero on plain SolveContext solves.
	WalkReuse int `json:"walkReuse,omitempty"`
	// ModeMemoHits and ModeMemoSolves count Markov mode-chain memo
	// activity attributable to this solve (zero for engines without a
	// memo). They are engine-counter deltas: exact unless another
	// goroutine uses the same engine during the solve, as sensitivity
	// factors sharing an engine the caller passed do.
	ModeMemoHits   uint64 `json:"modeMemoHits,omitempty"`
	ModeMemoSolves uint64 `json:"modeMemoSolves,omitempty"`
	// SimReplications and SimBatches count Monte-Carlo work for this
	// solve (zero for analytic engines), with the same delta semantics.
	SimReplications uint64 `json:"simReplications,omitempty"`
	SimBatches      uint64 `json:"simBatches,omitempty"`
	// PhaseNanos attributes the solve's wall clock to the solver phases
	// (see PhaseNames), in integer nanoseconds. Bracketed phases
	// ("tier-search", "bound", "frontier", "combine", "job-search") are
	// whole-stage spans; "eval" is the cross-cutting engine-evaluation
	// time, also spent inside the bracketed stages, so the entries
	// overlap and do not sum to the solve's total. Nil unless timing is
	// on (Options.Timings, a Tracer, or Metrics) — keeping disabled-path
	// Stats allocation-free and comparable — and phases that never ran
	// are absent. Each entry equals the sum of the matching trace
	// durations exactly: phase.end DurNs for bracketed phases, eval.miss
	// DurNs for "eval".
	PhaseNanos map[string]int64 `json:"phaseNanos,omitempty"`
}

// Add folds o's effort into s: every counter summed, and PhaseNanos
// merged phase by phase into a map of s's own (never o's).
func (s *Stats) Add(o Stats) {
	s.CandidatesGenerated += o.CandidatesGenerated
	s.CostPruned += o.CostPruned
	s.BoundPruned += o.BoundPruned
	s.Evaluations += o.Evaluations
	s.EvalCacheHits += o.EvalCacheHits
	s.WarmStartReuse += o.WarmStartReuse
	s.FrontierReuse += o.FrontierReuse
	s.WalkReuse += o.WalkReuse
	s.ModeMemoHits += o.ModeMemoHits
	s.ModeMemoSolves += o.ModeMemoSolves
	s.SimReplications += o.SimReplications
	s.SimBatches += o.SimBatches
	for phase, ns := range o.PhaseNanos {
		if s.PhaseNanos == nil {
			s.PhaseNanos = make(map[string]int64, len(o.PhaseNanos))
		}
		s.PhaseNanos[phase] += ns
	}
}

// Solution is the search outcome for one requirement point.
type Solution struct {
	Design model.Design
	// Cost is the design's total annual cost.
	Cost units.Money
	// DowntimeMinutes is the design's expected annual downtime
	// (enterprise requirements).
	DowntimeMinutes float64
	// JobTime is the expected job completion time (job requirements).
	JobTime units.Duration
	// Stats records search effort.
	Stats Stats
}

// Solver searches the design space of one service over one
// infrastructure. The models are fixed for the solver's lifetime: a
// what-if over perturbed models builds a new solver. A Solver is not
// safe for concurrent use: its caches are plain maps, so work fanned
// across goroutines gives each goroutine its own solver.
type Solver struct {
	inf  *model.Infrastructure
	svc  *model.Service
	opts Options

	evalCache evalCache // availability evaluations by design fingerprint
	modeCache modeCache // resolved effective modes by mode fingerprint

	// gen numbers the solves this solver has run; each eval-cache entry
	// records the generation that stored it, so a later solve can tell
	// warm-start reuse (a hit on another solve's entry) apart from
	// within-solve sharing.
	gen uint64

	// ctxEng is the engine's context-aware entry point, resolved once at
	// construction (nil when the engine has none).
	ctxEng ctxEvaluator

	// pricer is the engine's lean single-tier pricing entry point,
	// resolved once at construction. Left nil when the engine is
	// context-aware: EvaluateCtx must keep observing cancellation, and
	// context-aware engines (the simulator) are exactly the ones whose
	// evaluations run long enough for that to matter.
	pricer tierPricer
	// priceModel is the tier model an evaluation miss hands pricer.
	// Kept on the solver, which one goroutine owns, so the model does
	// not escape to the heap on every miss through the interface call.
	priceModel avail.TierModel

	// timed reports that phase timing is on for this solver: set when
	// Options.Timings, Tracer, or Metrics is configured. Every timing
	// site guards on it, so the disabled path takes no clock readings
	// and allocates nothing.
	timed bool
	// phaseHists are the solve.phase.* histograms, resolved once at
	// construction (all nil without Metrics — spans then only feed
	// Stats.PhaseNanos and the trace).
	phaseHists [numPhases]*obs.Histogram

	// comboCache memoizes mechCombos per resource type: the combination
	// set (and its per-combo fingerprints) is a pure function of the
	// resource type, the infrastructure's mechanisms and the solver's
	// pins, so every option walk over one resource type — and there are
	// several per solve — shares a single enumeration.
	comboCache map[*model.ResourceType]*comboSet
	// optTables holds each resource option's load-independent walk
	// setup (see optionTable), built on the option's first walk.
	optTables map[*model.ResourceOption]*optionTable

	// memo is the walk and frontier memo every SolveChain call on this
	// solver shares (see tierMemo); empty until the first chain.
	memo tierMemo

	// combineHook, when set, sees every input the solves hand the
	// multi-tier combiner; tests set it to record what the combiner is
	// asked.
	combineHook func(frontiers [][]TierCandidate, budgetMinutes float64)
}

// NewSolver validates the inputs and builds a solver.
func NewSolver(inf *model.Infrastructure, svc *model.Service, opts Options) (*Solver, error) {
	if inf == nil {
		return nil, fmt.Errorf("core: nil infrastructure")
	}
	if svc == nil {
		return nil, fmt.Errorf("core: nil service")
	}
	for i := range svc.Tiers {
		for j := range svc.Tiers[i].Options {
			if svc.Tiers[i].Options[j].ResourceType() == nil {
				return nil, fmt.Errorf("core: service %q is not resolved against the infrastructure (tier %q)",
					svc.Name, svc.Tiers[i].Name)
			}
		}
	}
	if opts.Registry == nil {
		return nil, fmt.Errorf("core: options need a performance registry")
	}
	s := &Solver{inf: inf, svc: svc, opts: opts.withDefaults()}
	// Hand the observability sinks to engines that can use them. Engine
	// implementations make this idempotent, so solvers sharing an engine
	// (sensitivity sweeps) may each call it.
	if s.opts.Metrics != nil || s.opts.Tracer != nil {
		if eng, ok := s.opts.Engine.(obsInstrumentable); ok {
			eng.InstrumentObs(s.opts.Metrics, s.opts.Tracer)
		}
	}
	s.timed = s.opts.Timings || s.opts.Tracer != nil || s.opts.Metrics != nil
	if reg := s.opts.Metrics; reg != nil {
		for i := range s.phaseHists {
			s.phaseHists[i] = reg.Histogram("solve.phase." + phaseNames[i])
		}
	}
	if ce, ok := s.opts.Engine.(ctxEvaluator); ok {
		s.ctxEng = ce
	}
	if s.ctxEng == nil {
		if tp, ok := s.opts.Engine.(tierPricer); ok {
			s.pricer = tp
		}
	}
	return s, nil
}

// Tracer reports the solver's configured trace sink (nil when tracing
// is off), so sweeps driving the solver can emit into the same stream.
func (s *Solver) Tracer() obs.Tracer { return s.opts.Tracer }

// Metrics reports the solver's metrics registry (nil when metrics are
// off), so sweeps and CLIs share one snapshot surface.
func (s *Solver) Metrics() *obs.Registry { return s.opts.Metrics }

// Solve searches for the minimum-cost design meeting the requirements.
// Enterprise requirements need a throughput and downtime bound; job
// requirements need a completion-time bound and a service with a job
// size. It reports ErrInfeasible when no design can satisfy them. Use
// SolveContext for cancellation and deadlines.
func (s *Solver) Solve(req model.Requirements) (*Solution, error) {
	return s.SolveContext(context.Background(), req)
}

// SolveContext is Solve under a caller context: the search checks ctx
// once per generated batch of candidates (and the Monte-Carlo engine
// once per replication batch), so cancellation or deadline expiry
// aborts promptly with a CanceledError carrying the partial Stats and
// unwrapping to ctx's error. The search never depends on earlier solves on this solver,
// whose evaluations only replay from the cache.
func (s *Solver) SolveContext(ctx context.Context, req model.Requirements) (*Solution, error) {
	return s.solve(ctx, req, nil)
}

// SolveChain solves the enterprise requirement req at each downtime
// budget of budgets — req with MaxAnnualDowntime set to the budget —
// tightest budget first (equal budgets in index order), and calls visit
// after each cell with the budget's index and exactly what SolveContext
// returns for that requirement. A non-nil error from visit stops the
// chain, and SolveChain returns it. Every SolveChain call on the solver
// shares one memo, keyed by each tier's candidate space at the chain's
// load, so a sweep's later loads reuse an earlier load's work: the
// first cell needing a tier's combination frontier builds it at its own
// cost threshold and every later cell — of this chain or a later one —
// whose threshold the build covers replays its ≤-threshold prefix
// (Stats.FrontierReuse), and a tier walk whose budget lies in a
// recorded walk's budget interval replays that walk (Stats.WalkReuse;
// see tierWalk). Solutions are bit-identical to SolveContext's; the
// replays show only in the effort counters, where each replay's
// requests count as EvalCacheHits, and the candidates, pruning and
// requests each cell is charged do not depend on which chains ran
// before it.
func (s *Solver) SolveChain(ctx context.Context, req model.Requirements, budgets []units.Duration, visit func(i int, sol *Solution, err error) error) error {
	if req.Kind != model.ReqEnterprise {
		return fmt.Errorf("core: SolveChain needs an enterprise requirement, got kind %d", int(req.Kind))
	}
	ord := make([]int, len(budgets))
	for i := range ord {
		ord[i] = i
	}
	slices.SortStableFunc(ord, func(a, b int) int { return cmp.Compare(budgets[a], budgets[b]) })
	c := s.newChain()
	for _, i := range ord {
		cell := req
		cell.MaxAnnualDowntime = budgets[i]
		sol, err := s.solve(ctx, cell, c)
		if err := visit(i, sol, err); err != nil {
			return err
		}
	}
	return nil
}

// solve runs one solve, through chain c's memo when c is non-nil (job
// requirements ignore it).
func (s *Solver) solve(ctx context.Context, req model.Requirements, c *chain) (*Solution, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	so := s.beginSolve(req)
	var (
		sol *Solution
		err error
	)
	switch req.Kind {
	case model.ReqEnterprise:
		sol, err = s.solveEnterprise(ctx, req, c)
	case model.ReqJob:
		if !s.svc.HasJobSize {
			err = fmt.Errorf("core: job requirement needs a service with a jobsize, %q has none", s.svc.Name)
		} else {
			sol, err = s.solveJob(ctx, req)
		}
	default:
		err = fmt.Errorf("core: unknown requirement kind %d", int(req.Kind))
	}
	return s.endSolve(so, sol, err)
}

// InfeasibleError reports that no design in the space satisfies the
// requirements, with the closest miss for diagnosis and the search
// effort spent finding that out.
type InfeasibleError struct {
	Reason string
	// Stats is the search effort the solve spent, engine-counter deltas
	// included, counted as a Solution's Stats are.
	Stats Stats
}

func (e *InfeasibleError) Error() string {
	return "core: no feasible design: " + e.Reason
}

// curveFor resolves a resource option's performance model.
func (s *Solver) curveFor(opt *model.ResourceOption) (perf.Curve, error) {
	if opt.PerfIsScalar {
		return perf.ConstCurve(opt.PerfScalar), nil
	}
	return s.opts.Registry.Curve(opt.PerfRef)
}
