// Package avail implements Aved's availability model (§4.2 of the
// paper): per-tier parameters (n, m, s and per-failure-mode MTBF,
// repair time and failover time), an Engine interface over evaluation
// backends, and the analytic "simplified Markov model" engine built on
// package markov. A discrete-event simulation engine implementing the
// same interface lives in package sim, playing the role of the external
// availability evaluation engine (Avanto) the paper interfaces to.
package avail

import (
	"errors"
	"fmt"
	"math"

	"aved/internal/markov"
	"aved/internal/model"
	"aved/internal/units"
)

// MinutesPerYear is the number of minutes in the 8760-hour year the
// paper's downtime figures use.
const MinutesPerYear = 8760 * 60

// Mode is one failure mode's availability parameters, fully resolved
// for a particular design (items 4–6 of §4.2's model).
type Mode struct {
	Name string
	// MTBF is the mean time between failures of this mode per powered
	// resource.
	MTBF units.Duration
	// Repair is the full outage length when the failure is repaired in
	// place: detection + repair + dependent restarts.
	Repair units.Duration
	// Failover is the outage length when a spare absorbs the failure:
	// detection + reconfiguration + spare activation.
	Failover units.Duration
	// UsesFailover reports whether spares absorb this mode (§4.2: only
	// when repair takes longer than failover).
	UsesFailover bool
	// SparePowered reports whether idle spares run this mode's
	// component in active mode, making them failure-prone for it (a
	// warm or hot spare).
	SparePowered bool
}

// TierModel is the §4.2 availability model of one tier.
type TierModel struct {
	Name string
	// N is the number of active resources (item 1).
	N int
	// M is the minimum number of active resources for the tier to be up
	// (item 2).
	M int
	// S is the number of spare resources (item 3).
	S int
	// Modes are the tier's failure modes across all components. Spare
	// warmth is carried per mode via Mode.SparePowered.
	Modes []Mode
}

// Validate checks the model's structural invariants.
func (tm *TierModel) Validate() error {
	if tm.N < 1 {
		return fmt.Errorf("tier %q: need at least one active resource, got %d", tm.Name, tm.N)
	}
	if tm.M < 1 || tm.M > tm.N {
		return fmt.Errorf("tier %q: minimum actives %d outside [1, %d]", tm.Name, tm.M, tm.N)
	}
	if tm.S < 0 {
		return fmt.Errorf("tier %q: negative spare count %d", tm.Name, tm.S)
	}
	if tm.N > math.MaxInt32-tm.S {
		return fmt.Errorf("tier %q: %d actives and %d spares exceed %d resources", tm.Name, tm.N, tm.S, math.MaxInt32)
	}
	if len(tm.Modes) == 0 {
		return fmt.Errorf("tier %q: no failure modes", tm.Name)
	}
	for _, m := range tm.Modes {
		if m.MTBF <= 0 {
			return fmt.Errorf("tier %q mode %q: MTBF must be positive", tm.Name, m.Name)
		}
		if m.Repair < 0 || m.Failover < 0 {
			return fmt.Errorf("tier %q mode %q: negative outage length", tm.Name, m.Name)
		}
	}
	return nil
}

// ModeContribution explains one failure mode's share of a tier's
// downtime.
type ModeContribution struct {
	Name string
	// SteadyMinutes is annual downtime from exhausting redundancy
	// (fewer than M actives while failures are being repaired).
	SteadyMinutes float64
	// TransientMinutes is annual downtime from failover transients.
	TransientMinutes float64
	// EventsPerYear is the expected number of failures of this mode
	// across the tier's powered resources.
	EventsPerYear float64
}

// Minutes reports the mode's total annual downtime contribution.
func (mc ModeContribution) Minutes() float64 {
	return mc.SteadyMinutes + mc.TransientMinutes
}

// TierResult is one tier's availability evaluation.
type TierResult struct {
	Name string
	// Availability is the steady-state fraction of time the tier
	// satisfies its minimum active-resource requirement.
	Availability float64
	// DowntimeMinutes is the tier's expected annual downtime.
	DowntimeMinutes float64
	// Contributions break the downtime down per failure mode
	// (analytic engine only; simulation reports aggregate figures).
	Contributions []ModeContribution
}

// Result is a whole-design availability evaluation. Tiers compose in
// series: the design is up only when every tier is up (§4.2).
type Result struct {
	// Availability is the product of tier availabilities.
	Availability float64
	// DowntimeMinutes is the design's expected annual downtime.
	DowntimeMinutes float64
	Tiers           []TierResult
}

// Engine evaluates availability models. Implementations: MarkovEngine
// (this package) and sim.Engine (discrete-event simulation).
type Engine interface {
	// Evaluate reports the expected availability of the design whose
	// tiers are modelled by tms.
	Evaluate(tms []TierModel) (Result, error)
}

// MarkovEngine is the paper's "simplified Markov model": independent
// per-failure-mode birth–death chains with per-event transient
// accounting, composed in series across modes and tiers.
//
// Engines built with NewMarkovEngine carry a mode-chain memo: a solved
// chain depends only on (n, m, effective spares, λ, μ, failover,
// SparePowered), which recurs across mechanism combos, warmth levels
// and tiers, so repeated sub-model work vanishes. The memo sits below
// the engine boundary — results are bit-identical with or without it,
// and callers' evaluation counts are unchanged. The zero value
// MarkovEngine{} evaluates without a memo.
//
// Three entry points share one pricing core: Evaluate builds the full
// Result, PriceTier one tier's downtime and PriceDesign the whole
// design's, the last two without a Result. Each loads the memo's sinks
// once and takes the memo lock once per tier; all three produce the
// same downtime, memo counters, trace events and errors.
type MarkovEngine struct {
	memo *modeMemo
}

var _ Engine = MarkovEngine{}

// errNoTiers is Evaluate's and PriceDesign's error for an empty design.
var errNoTiers = errors.New("avail: no tiers to evaluate")

// NewMarkovEngine builds the analytic engine with a fresh mode-chain
// memo.
func NewMarkovEngine() MarkovEngine { return MarkovEngine{memo: newModeMemo()} }

// MemoStats reports the engine's mode-chain memo counters: cache hits
// and birth–death chains actually solved. A zero engine (no memo)
// reports zeros.
func (e MarkovEngine) MemoStats() (hits, solves uint64) {
	if e.memo == nil {
		return 0, 0
	}
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	return e.memo.hits, e.memo.solves
}

// sinks reports the memo's observability outputs, nil when the engine
// has no memo or is not instrumented.
func (e MarkovEngine) sinks() *memoSinks {
	if e.memo == nil {
		return nil
	}
	return e.memo.sinks.Load()
}

// Evaluate implements Engine.
func (e MarkovEngine) Evaluate(tms []TierModel) (Result, error) {
	if len(tms) == 0 {
		return Result{}, errNoTiers
	}
	sinks := e.sinks()
	res := Result{Availability: 1, Tiers: make([]TierResult, 0, len(tms))}
	for i := range tms {
		tm := &tms[i]
		if err := tm.Validate(); err != nil {
			return Result{}, err
		}
		tr := TierResult{Name: tm.Name, Contributions: make([]ModeContribution, 0, len(tm.Modes))}
		var err error
		tr.Availability, err = e.priceModes(tm, sinks, &tr)
		if err != nil {
			return Result{}, err
		}
		tr.DowntimeMinutes = (1 - tr.Availability) * MinutesPerYear
		res.Tiers = append(res.Tiers, tr)
		res.Availability *= tr.Availability
	}
	res.DowntimeMinutes = (1 - res.Availability) * MinutesPerYear
	return res, nil
}

// PriceDesign reports the whole design's expected annual downtime
// without assembling a Result — the lean entry point for a search that
// needs only the figure. It is bit-identical to
// Evaluate(tms).DowntimeMinutes: each tier is validated and its mode
// availabilities multiply in the same order, then the tiers multiply
// in order. Memo counters, trace events and errors are Evaluate's.
func (e MarkovEngine) PriceDesign(tms []TierModel) (float64, error) {
	if len(tms) == 0 {
		return 0, errNoTiers
	}
	sinks := e.sinks()
	availability := 1.0
	for i := range tms {
		tm := &tms[i]
		if err := tm.Validate(); err != nil {
			return 0, err
		}
		a, err := e.priceModes(tm, sinks, nil)
		if err != nil {
			return 0, err
		}
		availability *= a
	}
	return (1 - availability) * MinutesPerYear, nil
}

// PriceTier reports one tier's expected annual downtime without
// assembling a Result or its per-mode contributions — the lean entry
// point the solver's search hot path uses. It is bit-identical to
// Evaluate([]TierModel{*tm}).DowntimeMinutes: the mode availabilities
// multiply in the same order, and the series composition over a single
// tier multiplies by 1, which is exact. Memo counters and trace events
// are the same as the full evaluation's.
func (e MarkovEngine) PriceTier(tm *TierModel) (float64, error) {
	if err := tm.Validate(); err != nil {
		return 0, err
	}
	availability, err := e.priceModes(tm, e.sinks(), nil)
	if err != nil {
		return 0, err
	}
	return (1 - availability) * MinutesPerYear, nil
}

// modeKeyFor builds the memo key of one mode in one tier. Spares only
// participate for modes that fail over (§4.2 considers failover only
// when repair exceeds failover time), so the key carries the effective
// spare count. The tier must be valid: Validate bounds the counts to
// int32.
func modeKeyFor(tm *TierModel, mode *Mode) modeKey {
	var spares int32
	if mode.UsesFailover {
		spares = int32(tm.S)
	}
	return modeKey{
		mtbf:         mode.MTBF,
		repair:       mode.Repair,
		failover:     mode.Failover,
		n:            int32(tm.N),
		m:            int32(tm.M),
		spares:       spares,
		usesFailover: mode.UsesFailover,
		sparePowered: mode.SparePowered,
	}
}

// priceModes resolves every failure mode of the validated tier tm and
// reports the tier's availability — the product of mode availabilities
// in mode order. With a memo, the modes resolve under one hold of its
// lock and each lookup is reported to sinks (nil when the engine is
// not instrumented) with the lock dropped, since the sinks run the
// caller's tracer; without one, every chain is solved directly. When
// out is non-nil the per-mode contributions are appended to it.
func (e MarkovEngine) priceModes(tm *TierModel, sinks *memoSinks, out *TierResult) (float64, error) {
	mm := e.memo
	if mm != nil {
		mm.mu.Lock()
		defer mm.mu.Unlock()
	}
	availability := 1.0
	for i := range tm.Modes {
		mode := &tm.Modes[i]
		k := modeKeyFor(tm, mode)
		var (
			v   modeVal
			hit bool
			err error
		)
		if mm != nil {
			v, hit, err = mm.getOrSolveLocked(k)
		} else {
			v, err = solveModeChain(k)
		}
		if err != nil {
			return 0, fmt.Errorf("tier %q mode %q: %w", tm.Name, mode.Name, err)
		}
		if sinks != nil {
			mm.observeUnlocked(sinks, tm, k, hit)
		}
		if out != nil {
			out.Contributions = append(out.Contributions, modeContribution(mode.Name, v))
		}
		availability *= v.avail
	}
	return availability, nil
}

func modeContribution(name string, v modeVal) ModeContribution {
	return ModeContribution{
		Name:             name,
		SteadyMinutes:    v.steadyMinutes,
		TransientMinutes: v.transientMinutes,
		EventsPerYear:    v.eventsPerYear,
	}
}

// solveModeChain builds and solves the birth–death chain for one memo
// key. It is a pure function of the key — the guarantee that makes the
// memo transparent — and draws its rate and distribution slices from a
// pooled scratch, so a solve allocates nothing once the pool is warm.
func solveModeChain(k modeKey) (modeVal, error) {
	if v, ok := modeValClosed(k); ok {
		return v, nil
	}
	total := int(k.n) + int(k.spares)
	sc := chainScratchPool.Get().(*chainScratch)
	defer chainScratchPool.Put(sc)
	birth, death, pi := sc.slices(total)
	fillModeRates(k, birth, death)
	if err := markov.BirthDeathSteadyStateInto(pi, birth, death); err != nil {
		return modeVal{}, err
	}
	return finishModeVal(k, birth, pi), nil
}

// modeValClosed reports the closed-form value of keys that need no
// chain: instantaneous repair never accumulates failed resources and
// never causes downtime (the event rate is still reported for
// visibility).
func modeValClosed(k modeKey) (modeVal, bool) {
	if k.repair > 0 {
		return modeVal{}, false
	}
	lambda := 1 / k.mtbf.Hours() // failures per powered resource-hour
	total := int(k.n) + int(k.spares)
	return modeVal{
		eventsPerYear: float64(poweredAt(int(k.n), 0, total, k.sparePowered)) * lambda * 8760,
		avail:         1,
	}, true
}

// fillModeRates writes the key's birth–death chain rates into the
// len(total) rate slices: state j has j failed resources, failures
// arrive from every powered resource, repairs run in parallel.
func fillModeRates(k modeKey, birth, death []float64) {
	lambda := 1 / k.mtbf.Hours()
	mu := 1 / k.repair.Hours()
	total := len(birth)
	for j := 0; j < total; j++ {
		birth[j] = float64(poweredAt(int(k.n), j, total, k.sparePowered)) * lambda
		death[j] = float64(j+1) * mu
	}
}

// finishModeVal reduces a solved chain to the mode's figures. birth is
// the rate slice fillModeRates produced; pi its stationary
// distribution (len(birth)+1 states).
func finishModeVal(k modeKey, birth, pi []float64) modeVal {
	var (
		v             modeVal
		steadyDown    float64 // probability mass with fewer than M actives
		transientFrac float64 // fraction of time inside failover transients
		eventsPerHour float64
	)
	lambda := 1 / k.mtbf.Hours()
	total := len(birth)
	n, m := int(k.n), int(k.m)
	failoverHours := k.failover.Hours()
	for j := 0; j <= total; j++ {
		actives := activeAt(n, j, total)
		if actives < m {
			steadyDown += pi[j]
		}
		if j < total {
			eventsPerHour += pi[j] * birth[j]
		}
		// A failure striking an active resource while an idle spare
		// stands by momentarily drops the active count below M for the
		// failover duration; the chain itself shows no downtime because
		// the spare absorbs the failure.
		if k.usesFailover && j < total && failoverHours > 0 {
			idleSpares := total - j - actives
			if idleSpares > 0 && actives == m {
				activeFailureRate := float64(actives) * lambda
				transientFrac += pi[j] * activeFailureRate * failoverHours
			}
		}
	}
	v.eventsPerYear = eventsPerHour * 8760
	v.steadyMinutes = steadyDown * MinutesPerYear
	v.transientMinutes = transientFrac * MinutesPerYear
	v.avail = 1 - steadyDown - transientFrac
	if v.avail < 0 {
		v.avail = 0
	}
	return v
}

// activeAt reports the number of active resources when j of total are
// failed: operational resources fill active slots first.
func activeAt(n, j, total int) int {
	operational := total - j
	if operational < n {
		return operational
	}
	return n
}

// poweredAt reports the number of resources failure-prone for a mode
// in state j of a tier with n actives: the actives, plus idle spares
// when the mode's component is powered on spares.
func poweredAt(n, j, total int, sparePowered bool) int {
	if sparePowered {
		return total - j
	}
	return activeAt(n, j, total)
}

// BuildTierModes resolves a tier design's effective failure modes into
// the engine Mode representation. The result depends on the design's
// resource type, mechanism settings, spare warmth and spare existence —
// not on the exact resource counts — which is what lets callers cache
// one resolution across every (active, spare) split of a combination.
func BuildTierModes(td *model.TierDesign) ([]Mode, error) {
	ems, err := td.EffectiveModes()
	if err != nil {
		return nil, err
	}
	modes := make([]Mode, 0, len(ems))
	for _, em := range ems {
		name := em.Qual
		if name == "" {
			name = em.Component + "/" + em.Mode
		}
		modes = append(modes, Mode{
			Name:         name,
			MTBF:         em.MTBF,
			Repair:       em.RepairTime,
			Failover:     em.FailoverTime,
			UsesFailover: em.UsesFailover,
			SparePowered: em.SparePowered,
		})
	}
	return modes, nil
}

// BuildTierModel derives the §4.2 availability model from a tier
// design: m from the design's MinActive, per-mode repair and failover
// times from the resolved effective failure modes.
func BuildTierModel(td *model.TierDesign) (TierModel, error) {
	modes, err := BuildTierModes(td)
	if err != nil {
		return TierModel{}, err
	}
	return TierModel{
		Name:  td.TierName,
		N:     td.NActive,
		M:     td.MinActive,
		S:     td.NSpare,
		Modes: modes,
	}, nil
}

// BuildModels derives availability models for every tier of a design.
func BuildModels(d *model.Design) ([]TierModel, error) {
	out := make([]TierModel, 0, len(d.Tiers))
	for i := range d.Tiers {
		tm, err := BuildTierModel(&d.Tiers[i])
		if err != nil {
			return nil, err
		}
		out = append(out, tm)
	}
	return out, nil
}
