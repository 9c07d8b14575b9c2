// Package aved is an automated system design engine for availability —
// a reproduction of "Automated System Design for Availability"
// (Janakiraman, Santos, Turner; HP Labs, DSN 2004). Given an
// infrastructure model (components, failure modes, availability
// mechanisms, resource types), a service model (tiers and resource
// options with performance curves) and high-level service requirements
// (throughput and maximum annual downtime, or expected job completion
// time), Aved searches the design space for the minimum-cost design
// that satisfies the requirements.
//
// The package is a thin facade: it re-exports the stable surface of
// the internal packages (spec parsing and binding, the §4.1 search
// engine, the §4.2 availability engines, and the Fig. 6–8 sweeps) so
// applications need a single import.
//
//	inf, _ := aved.LoadInfrastructure(spec)     // Fig. 3 format
//	svc, _ := aved.LoadService(serviceSpec, inf) // Fig. 4/5 format
//	solver, _ := aved.NewSolver(inf, svc, aved.Options{Registry: reg})
//	sol, _ := solver.Solve(aved.Requirements{
//	    Kind:              aved.ReqEnterprise,
//	    Throughput:        1000,
//	    MaxAnnualDowntime: aved.Minutes(100),
//	})
//	fmt.Println(sol.Design.Label(), sol.Cost, sol.DowntimeMinutes)
package aved

import (
	"context"
	"fmt"
	"io"
	"os"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/export"
	"aved/internal/model"
	"aved/internal/perf"
	"aved/internal/report"
	"aved/internal/scenarios"
	"aved/internal/sensitivity"
	"aved/internal/sim"
	"aved/internal/sweep"
	"aved/internal/units"
)

// Core model types.
type (
	// Infrastructure is the bound infrastructure model (§3.1).
	Infrastructure = model.Infrastructure
	// Service is the bound service model (§3.2).
	Service = model.Service
	// Requirements are the user's high-level service requirements.
	Requirements = model.Requirements
	// Design is a complete resolution of every design choice.
	Design = model.Design
	// TierDesign is one tier's resolved design.
	TierDesign = model.TierDesign
	// ParamValue is a chosen mechanism-parameter setting.
	ParamValue = model.ParamValue
	// Duration is a time quantity using the spec suffixes (s, m, h, d).
	Duration = units.Duration
	// Money is an annualised cost.
	Money = units.Money
)

// Requirement kinds.
const (
	// ReqEnterprise asks for a throughput and a downtime bound.
	ReqEnterprise = model.ReqEnterprise
	// ReqJob asks for an expected job completion time.
	ReqJob = model.ReqJob
)

// Solver types.
type (
	// Solver searches the design space (§4.1).
	Solver = core.Solver
	// Options configure a Solver.
	Options = core.Options
	// Solution is a search outcome.
	Solution = core.Solution
	// Stats summarises the search effort behind one solve.
	Stats = core.Stats
	// InfeasibleError reports that no design satisfies the requirements.
	InfeasibleError = core.InfeasibleError
	// CanceledError reports a solve aborted by context cancellation or
	// deadline expiry (Solver.SolveContext), carrying the partial search
	// statistics. It unwraps to context.Canceled or DeadlineExceeded.
	CanceledError = core.CanceledError
	// SearchMode selects the tier-search strategy (Options.Search).
	SearchMode = core.SearchMode
)

// Search strategies.
const (
	// SearchBnB is the default best-first branch-and-bound search with
	// admissible bounds; bit-identical to exhaustive, far fewer
	// availability evaluations.
	SearchBnB = core.SearchBnB
	// SearchExhaustive is the full grid enumeration with cost pruning
	// only, kept as the reference oracle.
	SearchExhaustive = core.SearchExhaustive
)

// ParseSearchMode resolves a search-strategy name ("bnb", "exhaustive"
// or empty for the default) as the CLIs accept it.
func ParseSearchMode(name string) (SearchMode, error) { return core.ParseSearchMode(name) }

// Performance model types.
type (
	// Registry resolves performance references from service specs.
	Registry = perf.Registry
	// Curve maps active-resource counts to throughput.
	Curve = perf.Curve
)

// Availability evaluation types.
type (
	// Engine evaluates availability models (§4.2).
	Engine = avail.Engine
	// AvailabilityResult is a whole-design availability evaluation.
	AvailabilityResult = avail.Result
	// TierModel is the §4.2 availability model of one tier.
	TierModel = avail.TierModel
)

// Sweep types (the paper's evaluation artefacts).
type (
	// Fig6Result is the optimal-family map over the requirement plane.
	Fig6Result = sweep.Fig6Result
	// Fig7Point is one sample of the scientific-application sweep.
	Fig7Point = sweep.Fig7Point
	// Fig7Result collects the Fig. 7 job-time sweep.
	Fig7Result = sweep.Fig7Result
	// Fig8Curve is one availability cost-premium curve.
	Fig8Curve = sweep.Fig8Curve
	// Family identifies a design family as Fig. 6 labels them.
	Family = sweep.Family
)

// LoadInfrastructure parses and validates an infrastructure model in
// the Fig. 3 specification format.
func LoadInfrastructure(src string) (*Infrastructure, error) {
	return model.ParseInfrastructure(src)
}

// LoadInfrastructureFile reads an infrastructure model from disk.
func LoadInfrastructureFile(path string) (*Infrastructure, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aved: read infrastructure: %w", err)
	}
	return LoadInfrastructure(string(b))
}

// LoadService parses a service model in the Fig. 4/5 format and
// resolves it against the infrastructure.
func LoadService(src string, inf *Infrastructure) (*Service, error) {
	svc, err := model.ParseService(src)
	if err != nil {
		return nil, err
	}
	if err := svc.Resolve(inf); err != nil {
		return nil, err
	}
	return svc, nil
}

// LoadServiceFile reads a service model from disk and resolves it.
func LoadServiceFile(path string, inf *Infrastructure) (*Service, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aved: read service: %w", err)
	}
	return LoadService(string(b), inf)
}

// NewSolver builds a design-space solver.
func NewSolver(inf *Infrastructure, svc *Service, opts Options) (*Solver, error) {
	return core.NewSolver(inf, svc, opts)
}

// NewRegistry builds an empty performance registry. Register closed
// forms with RegisterCurve/RegisterOverhead, or set Dir for file-based
// perf tables.
func NewRegistry() *Registry { return perf.NewRegistry() }

// MarkovEngine builds the analytic availability engine (the paper's
// simplified Markov model). It is the solver default.
func MarkovEngine() Engine { return avail.NewMarkovEngine() }

// ExactEngine builds the exact-transient analytic engine: explicit
// (failed, activating) CTMC states solved densely, validating the
// default engine's per-event transient accounting.
func ExactEngine() Engine { return avail.NewExactEngine() }

// SimEngineAdaptive builds the simulation engine with adaptive-
// precision replication control: replications run in deterministic
// batches of batch (0 uses the engine default) and stop once the 95%
// confidence half-width of the downtime estimate falls under relErr
// times the running mean, with reps as the budget cap. relErr <= 0
// keeps the fixed budget. A given (seed, relErr, batch) stops at the
// same replication count — and produces bit-identical results — at any
// worker count.
func SimEngineAdaptive(seed int64, years float64, reps, workers int, relErr float64, batch int) (Engine, error) {
	e, err := sim.NewEngine(seed, years, reps)
	if err != nil {
		return nil, err
	}
	return e.WithWorkers(workers).WithPrecision(relErr, batch), nil
}

// EngineSpec selects an availability engine by name, with the
// Monte-Carlo settings the "sim" engine takes (see SimEngineAdaptive;
// the analytic engines ignore them). It is the one engine choice the
// command-line tools and the HTTP server make per run.
type EngineSpec struct {
	// Name is "markov" (or empty), "exact" or "sim".
	Name     string
	Seed     int64
	Years    float64
	Reps     int
	Workers  int
	RelErr   float64
	SimBatch int
}

// EngineNames lists the engine names NewEngine accepts, in the order
// the command-line tools run them all.
func EngineNames() []string { return []string{"markov", "exact", "sim"} }

// NewEngine builds the engine spec names. "markov" and the empty name
// return nil, which keeps a solver's default analytic engine.
func NewEngine(spec EngineSpec) (Engine, error) {
	switch spec.Name {
	case "", "markov":
		return nil, nil
	case "exact":
		return ExactEngine(), nil
	case "sim":
		return SimEngineAdaptive(spec.Seed, spec.Years, spec.Reps, spec.Workers, spec.RelErr, spec.SimBatch)
	}
	return nil, fmt.Errorf("unknown engine %q (want markov, exact or sim)", spec.Name)
}

// MissionDowntime reports a tier model's expected downtime in minutes
// per year over a finite mission starting all-up — the transient-aware
// counterpart of the engines' steady-state figure, matching what a
// finite-horizon simulation measures for a young system.
func MissionDowntime(tm *TierModel, years float64) (float64, error) {
	return avail.MissionDowntime(tm, years)
}

// EvaluateDesign runs a complete design through an availability engine.
func EvaluateDesign(d *Design, eng Engine) (AvailabilityResult, error) {
	tms, err := avail.BuildModels(d)
	if err != nil {
		return AvailabilityResult{}, err
	}
	return eng.Evaluate(tms)
}

// EvaluateModel evaluates standalone tier models through an engine
// under a context. Engines with a context-aware entry point (the
// Monte-Carlo engine, whose batches check ctx) get it; analytic engines
// evaluate synchronously — they are fast enough that a deadline can
// only matter to Monte-Carlo budgets.
func EvaluateModel(ctx context.Context, eng Engine, tms []TierModel) (AvailabilityResult, error) {
	type ctxEngine interface {
		EvaluateCtx(ctx context.Context, tms []avail.TierModel) (avail.Result, error)
	}
	if ce, ok := eng.(ctxEngine); ok {
		return ce.EvaluateCtx(ctx, tms)
	}
	return eng.Evaluate(tms)
}

// Minutes builds a Duration from a number of minutes.
func Minutes(m float64) Duration { return Duration(m * float64(units.Minute)) }

// Hours builds a Duration from a number of hours.
func Hours(h float64) Duration { return units.FromHours(h) }

// ParseDuration parses the spec notation ("30s", "2m", "38h", "650d").
func ParseDuration(s string) (Duration, error) { return units.ParseDuration(s) }

// EnumValue builds an enumerated mechanism-parameter value.
func EnumValue(s string) ParamValue { return model.EnumValue(s) }

// DurationValue builds a numeric mechanism-parameter value in hours.
func DurationValue(hours float64) ParamValue { return model.DurationValue(hours) }

// SweepFig6 regenerates the Fig. 6 requirement-plane sweep. The context
// cancels the whole sweep: in-flight solves abort at their next
// candidate and pending cells never start.
func SweepFig6(ctx context.Context, solver *Solver, loads, budgetsMinutes []float64) (*Fig6Result, error) {
	return sweep.Fig6(ctx, solver, loads, budgetsMinutes)
}

// SweepFig7 regenerates the Fig. 7 job-time sweep under the context.
func SweepFig7(ctx context.Context, solver *Solver, requirementHours []float64) (*Fig7Result, error) {
	return sweep.Fig7(ctx, solver, requirementHours)
}

// SweepFig8 regenerates the Fig. 8 cost-premium curves under the
// context.
func SweepFig8(ctx context.Context, solver *Solver, loads, budgetsMinutes []float64) ([]Fig8Curve, error) {
	return sweep.Fig8(ctx, solver, loads, budgetsMinutes)
}

// LogGrid builds a logarithmically spaced requirement grid.
func LogGrid(lo, hi float64, points int) ([]float64, error) { return sweep.LogGrid(lo, hi, points) }

// LinGrid builds a linearly spaced requirement grid.
func LinGrid(lo, hi float64, points int) ([]float64, error) { return sweep.LinGrid(lo, hi, points) }

// FamilyOf classifies a tier design into its Fig. 6 family.
func FamilyOf(td *TierDesign) Family { return sweep.FamilyOf(td) }

// Paper fixtures: the exact inputs of the paper's evaluation (§5).

// PaperInfrastructure binds the Fig. 3 infrastructure model.
func PaperInfrastructure() (*Infrastructure, error) { return scenarios.Infrastructure() }

// PaperRegistry builds a registry loaded with the Table 1 performance
// functions.
func PaperRegistry() *Registry { return scenarios.Registry() }

// PaperScenario binds the Fig. 3 infrastructure and one built-in
// service by name: "apptier" (§5.1), "ecommerce" (Fig. 4) or
// "scientific" (Fig. 5).
func PaperScenario(name string) (*Infrastructure, *Service, error) {
	var bind func(*Infrastructure) (*Service, error)
	switch name {
	case "apptier":
		bind = PaperApplicationTier
	case "ecommerce":
		bind = PaperEcommerce
	case "scientific":
		bind = PaperScientific
	default:
		return nil, nil, fmt.Errorf("unknown paper scenario %q (want apptier, ecommerce or scientific)", name)
	}
	inf, err := PaperInfrastructure()
	if err != nil {
		return nil, nil, err
	}
	svc, err := bind(inf)
	if err != nil {
		return nil, nil, err
	}
	return inf, svc, nil
}

// PaperEcommerce binds the Fig. 4 e-commerce service.
func PaperEcommerce(inf *Infrastructure) (*Service, error) { return scenarios.Ecommerce(inf) }

// PaperApplicationTier binds the §5.1 application-tier example.
func PaperApplicationTier(inf *Infrastructure) (*Service, error) {
	return scenarios.ApplicationTier(inf)
}

// PaperScientific binds the Fig. 5 scientific-application service.
func PaperScientific(inf *Infrastructure) (*Service, error) { return scenarios.Scientific(inf) }

// PaperInfrastructureSpec is the Fig. 3 specification text, exposed so
// applications can start from the paper's inputs and edit them.
const PaperInfrastructureSpec = scenarios.InfrastructureSpec

// PaperEcommerceSpec is the Fig. 4 specification text.
const PaperEcommerceSpec = scenarios.EcommerceSpec

// PaperScientificSpec is the Fig. 5 specification text.
const PaperScientificSpec = scenarios.ScientificSpec

// Bronze pins both maintenance contracts to the bronze level, the
// §5.2 configuration.
func Bronze() map[string]map[string]ParamValue {
	return map[string]map[string]ParamValue{
		"maintenanceA": {"level": model.EnumValue("bronze")},
		"maintenanceB": {"level": model.EnumValue("bronze")},
	}
}

// Sensitivity analysis (what-if over infrastructure parameters).
type (
	// SensitivityKnob perturbs an infrastructure copy by a factor.
	SensitivityKnob = sensitivity.Knob
	// SensitivityConfig drives a sensitivity sweep.
	SensitivityConfig = sensitivity.Config
	// SensitivityPoint is one perturbed-solve outcome.
	SensitivityPoint = sensitivity.Point
)

// ScaleMTBF builds a knob multiplying a component's MTBFs (all
// components when name is empty).
func ScaleMTBF(component string) SensitivityKnob { return sensitivity.ScaleMTBF(component) }

// ScaleCost builds a knob multiplying a component's prices (all
// components when name is empty).
func ScaleCost(component string) SensitivityKnob { return sensitivity.ScaleCost(component) }

// ScaleMechanismCost builds a knob multiplying a mechanism's cost
// table.
func ScaleMechanismCost(mechanism string) SensitivityKnob {
	return sensitivity.ScaleMechanismCost(mechanism)
}

// SensitivitySweep perturbs clones of the infrastructure with the knob
// at each factor and re-solves the fixed requirement. The context
// cancels the whole sweep.
func SensitivitySweep(ctx context.Context, base *Infrastructure, cfg SensitivityConfig, knob SensitivityKnob, factors []float64) ([]SensitivityPoint, error) {
	return sensitivity.Sweep(ctx, base, cfg, knob, factors)
}

// Availability-model exchange (the representations the paper feeds to
// external evaluation engines such as Avanto).

// WriteAvailabilityModel renders a design's §4.2 availability model in
// the structured text exchange format.
func WriteAvailabilityModel(w io.Writer, d *Design) error {
	tms, err := avail.BuildModels(d)
	if err != nil {
		return err
	}
	return export.WriteText(w, tms)
}

// WriteAvailabilityModelJSON renders a design's availability model as
// JSON.
func WriteAvailabilityModelJSON(w io.Writer, d *Design) error {
	tms, err := avail.BuildModels(d)
	if err != nil {
		return err
	}
	return export.WriteJSON(w, tms)
}

// ReadAvailabilityModel parses the text exchange format back into tier
// models ready for any Engine.
func ReadAvailabilityModel(r io.Reader) ([]TierModel, error) { return export.ParseText(r) }

// ReadAvailabilityModelJSON parses the JSON exchange format.
func ReadAvailabilityModelJSON(r io.Reader) ([]TierModel, error) { return export.ParseJSON(r) }

// DescribeModel writes an inventory of the model pair and an estimate
// of the design-space cardinality the search faces per tier.
func DescribeModel(w io.Writer, inf *Infrastructure, svc *Service, maxRedundancy int) error {
	if maxRedundancy == 0 {
		maxRedundancy = core.DefaultMaxRedundancy
	}
	return report.DescribeModel(w, inf, svc, maxRedundancy)
}

// WriteDesignReport renders a human-readable report of a design: cost
// broken down by component, mode and mechanism, and downtime broken
// down by failure mode. A nil engine defaults to the analytic Markov
// engine.
func WriteDesignReport(w io.Writer, d *Design, eng Engine) error {
	return report.Design(w, d, report.Options{Engine: eng})
}
