// Package sim implements a discrete-event Monte-Carlo availability
// simulator behind the same avail.Engine interface as the analytic
// Markov engine. It plays the role of the external availability
// evaluation engine (Avanto) that the paper's Aved interfaces to, and
// cross-validates the analytic model: the simulator evaluates a tier
// with all failure modes interleaved on a shared resource pool, with no
// per-mode decomposition.
//
// The simulator is built to sit inside the design-space search loop,
// where it is invoked once per candidate design: replications draw from
// an inline xoshiro256++ generator (rng.go), reuse pooled per-worker
// arenas and a typed event heap so the steady state allocates nothing,
// and an adaptive-precision controller (WithPrecision) stops
// replicating as soon as the confidence interval is tight enough for
// the search, instead of always burning the full budget.
//
// The package also provides SimulateRestart, a Monte-Carlo estimate of
// the restart law behind the paper's Eq. 1 (mean time to execute a loss
// window of useful work under failures), used to validate package
// jobtime.
package sim

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"aved/internal/avail"
	"aved/internal/obs"
	"aved/internal/par"
)

// DefaultBatch is the replication batch size the adaptive-precision
// controller uses when none is configured: replications run in
// deterministic batches of this size and the stopping rule is consulted
// between batches.
const DefaultBatch = 32

// Engine is a Monte-Carlo availability engine. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	seed    int64
	years   float64
	reps    int
	workers int // 0 means GOMAXPROCS
	// relErr, when positive, enables adaptive-precision replication:
	// stop as soon as the 95% CI half-width falls under relErr times
	// the running mean, capped by the reps budget.
	relErr float64
	batch  int // adaptive batch size; 0 means DefaultBatch
	// Lifetime work counters (see RepStats) and the optional observability
	// sinks (see InstrumentObs). Maintained per batch, not per replication, so
	// the accounting stays invisible in replication throughput.
	nreps    atomic.Uint64
	nbatches atomic.Uint64
	sinks    atomic.Pointer[simSinks]
}

var _ avail.Engine = (*Engine)(nil)

// NewEngine builds a simulation engine running up to reps independent
// replications of years simulated years each, seeded deterministically.
// Replications run across a worker pool (GOMAXPROCS workers by default;
// see WithWorkers); each replication derives its own PRNG stream from
// (seed, replication index), so results are bit-identical at any
// parallelism. By default all reps replications run; WithPrecision
// makes reps a cap instead of a fixed budget.
func NewEngine(seed int64, years float64, reps int) (*Engine, error) {
	if years <= 0 {
		return nil, fmt.Errorf("sim: years must be positive, got %v", years)
	}
	if reps < 1 {
		return nil, fmt.Errorf("sim: need at least one replication, got %d", reps)
	}
	return &Engine{seed: seed, years: years, reps: reps}, nil
}

// WithWorkers sets the replication worker-pool size (0 restores the
// GOMAXPROCS default, 1 forces sequential execution) and returns the
// engine. The worker count never changes results, only wall-clock time.
func (e *Engine) WithWorkers(n int) *Engine {
	e.workers = n
	return e
}

// WithPrecision enables adaptive-precision replication and returns the
// engine: replications run in deterministic batches of batch (0 means
// DefaultBatch) and stop once the 95% confidence half-width falls under
// relErr times the running mean downtime, or once the reps budget is
// exhausted, whichever comes first. relErr <= 0 restores the fixed
// budget. The stopping rule folds batch statistics in replication-index
// order, so a given (seed, relErr, batch) stops at the same replication
// count at any worker count.
func (e *Engine) WithPrecision(relErr float64, batch int) *Engine {
	if relErr < 0 {
		relErr = 0
	}
	if batch < 0 {
		batch = 0
	}
	e.relErr = relErr
	e.batch = batch
	return e
}

// repSeed derives replication r's PRNG seed from the base seed with a
// SplitMix64 finalizer, so a replication's random stream depends only on
// (seed, r) — not on how many replications precede it or which worker
// runs it. This is what makes the Monte-Carlo paths deterministic under
// parallelism and keeps replication r's estimate stable as reps grows.
func repSeed(seed int64, r int) int64 {
	x := uint64(seed) + (uint64(r)+1)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64(x ^ (x >> 31))
}

// Stats summarises replication-level downtime estimates.
type Stats struct {
	MeanMinutes float64 // mean annual downtime across replications
	HalfWidth95 float64 // 95% confidence half-width of the mean (Student-t)
	// Replications is how many replications the estimate used: the full
	// budget under fixed replication, possibly fewer under WithPrecision.
	Replications int
}

// Evaluate implements avail.Engine. Tiers are independent in the model,
// so each simulates separately; tier availabilities compose in series
// exactly as in the analytic engine.
func (e *Engine) Evaluate(tms []avail.TierModel) (avail.Result, error) {
	res, _, err := e.EvaluateStatsCtx(context.Background(), tms)
	return res, err
}

// EvaluateCtx is Evaluate under a caller context: replication batches
// check ctx between batches (and each batch's worker pool once per
// replication claim), so a cancelled evaluation stops after at most one
// in-flight batch instead of burning the remaining budget. It is the
// entry point core.Solver uses when it holds a cancellable context.
func (e *Engine) EvaluateCtx(ctx context.Context, tms []avail.TierModel) (avail.Result, error) {
	res, _, err := e.EvaluateStatsCtx(ctx, tms)
	return res, err
}

// EvaluateStats is Evaluate with the per-tier replication statistics
// alongside the composed result, exposing how the adaptive controller
// spent its budget.
//
// Under WithPrecision a multi-tier evaluation targets the precision of
// the design-level downtime, not each tier's own mean: tiers whose
// downtime barely moves the composed figure would otherwise demand
// enormous replication counts to pin their tiny means to the same
// relative error. Batches are allocated greedily to whichever tier
// currently has the widest confidence interval (simulateDesignAdaptive)
// until the composed estimate meets the target.
func (e *Engine) EvaluateStats(tms []avail.TierModel) (avail.Result, []Stats, error) {
	return e.EvaluateStatsCtx(context.Background(), tms)
}

// EvaluateStatsCtx is EvaluateStats under a caller context; see
// EvaluateCtx for the cancellation granularity.
func (e *Engine) EvaluateStatsCtx(ctx context.Context, tms []avail.TierModel) (avail.Result, []Stats, error) {
	if len(tms) == 0 {
		return avail.Result{}, nil, fmt.Errorf("sim: no tiers to evaluate")
	}
	var (
		sts []Stats
		err error
	)
	if e.relErr > 0 && len(tms) > 1 {
		sts, err = e.simulateDesignAdaptive(ctx, tms)
	} else {
		sts = make([]Stats, len(tms))
		for i := range tms {
			if sts[i], err = e.SimulateTierCtx(ctx, &tms[i]); err != nil {
				break
			}
		}
	}
	if err != nil {
		return avail.Result{}, nil, err
	}
	res := avail.Result{Availability: 1}
	for i := range tms {
		downFrac := sts[i].MeanMinutes / avail.MinutesPerYear
		tr := avail.TierResult{
			Name:            tms[i].Name,
			Availability:    1 - downFrac,
			DowntimeMinutes: sts[i].MeanMinutes,
		}
		res.Tiers = append(res.Tiers, tr)
		res.Availability *= tr.Availability
	}
	res.DowntimeMinutes = (1 - res.Availability) * avail.MinutesPerYear
	return res, sts, nil
}

// simulateDesignAdaptive spreads the replication budget across tiers to
// pin the design-level downtime. Tier estimates are independent and the
// composed downtime is (to first order) their sum, so the combined 95%
// half-width is the root-sum-square of the tier half-widths; after a
// seed batch per tier, each round runs one more batch on the tier with
// the widest interval (lowest index on ties) until the combined
// half-width falls under relErr times the combined mean or every tier
// exhausts its reps budget. All decisions depend only on batch
// statistics folded in replication order, so the allocation — and the
// estimate — is bit-identical at any worker count.
func (e *Engine) simulateDesignAdaptive(ctx context.Context, tms []avail.TierModel) ([]Stats, error) {
	for i := range tms {
		if err := tms[i].Validate(); err != nil {
			return nil, err
		}
	}
	batch := e.batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	if batch > e.reps {
		batch = e.reps
	}
	done := ctx.Done()
	ws := make([]welford, len(tms))
	buf := make([]float64, batch)
	for i := range tms {
		if err := e.runBatch(ctx, &tms[i], &ws[i], batch, buf); err != nil {
			return nil, err
		}
	}
	for {
		// The allocation loop re-checks ctx every round: a round runs one
		// batch, so this is the same between-batch granularity as
		// SimulateTierCtx and the whole evaluation stops mid-budget.
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		var mean, hw2 float64
		for i := range ws {
			st := ws[i].stats()
			mean += st.MeanMinutes
			hw2 += st.HalfWidth95 * st.HalfWidth95
		}
		if math.Sqrt(hw2) <= e.relErr*mean {
			break
		}
		pick := -1
		var worst float64
		for i := range ws {
			if ws[i].n >= e.reps {
				continue
			}
			if hw := ws[i].stats().HalfWidth95; pick < 0 || hw > worst {
				pick, worst = i, hw
			}
		}
		if pick < 0 {
			break // every tier at its budget cap
		}
		k := batch
		if left := e.reps - ws[pick].n; left < k {
			k = left
		}
		if err := e.runBatch(ctx, &tms[pick], &ws[pick], k, buf); err != nil {
			return nil, err
		}
	}
	sts := make([]Stats, len(ws))
	for i := range ws {
		sts[i] = ws[i].stats()
	}
	return sts, nil
}

// arenaPool recycles tierSim arenas across replications. sync.Pool
// keeps a per-P free list, so under par.ForEach each worker effectively
// owns a private arena and a steady-state replication allocates
// nothing: the event queue, resource-state and scratch slices all
// retain their capacity from earlier replications.
var arenaPool = sync.Pool{New: func() any { return new(tierSim) }}

// SimulateTier estimates one tier's annual downtime distribution.
//
// Replications run in deterministic batches: each batch fans across the
// worker pool writing samples by index, then the samples fold into
// streaming (Welford) statistics in replication order. Under
// WithPrecision the stopping rule runs between batches on those
// statistics alone, so the replication count at which it stops — and
// therefore the estimate — is bit-identical at any worker count.
func (e *Engine) SimulateTier(tm *avail.TierModel) (Stats, error) {
	return e.SimulateTierCtx(context.Background(), tm)
}

// SimulateTierCtx is SimulateTier under a caller context. Cancellation
// is honoured mid-budget: the batch loop checks ctx between batches and
// the in-flight batch's worker pool checks it per replication claim, so
// an expired deadline stops the simulation without draining the
// remaining replications. The partial statistics are discarded — a
// cancelled estimate never folds into caches or results.
func (e *Engine) SimulateTierCtx(ctx context.Context, tm *avail.TierModel) (Stats, error) {
	if err := tm.Validate(); err != nil {
		return Stats{}, err
	}
	batch := e.batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	if e.relErr <= 0 || batch > e.reps {
		// Fixed budget (or a budget under one batch): a single pass.
		batch = e.reps
	}
	var w welford
	buf := make([]float64, batch)
	for w.n < e.reps {
		k := batch
		if left := e.reps - w.n; left < k {
			k = left
		}
		if err := e.runBatch(ctx, tm, &w, k, buf); err != nil {
			return Stats{}, err
		}
		if e.relErr > 0 && w.n >= 2 {
			if st := w.stats(); st.HalfWidth95 <= e.relErr*st.MeanMinutes {
				return st, nil
			}
		}
	}
	return w.stats(), nil
}

// runBatch fans replications [w.n, w.n+k) of tm across the worker pool
// on pooled arenas, writing samples by index into buf, then folds them
// into w in replication order — the one fold order that keeps the
// accumulated statistics independent of scheduling. On any error —
// including cancellation mid-batch — it returns before folding, so w
// never absorbs a partially executed batch's zero-valued samples.
func (e *Engine) runBatch(ctx context.Context, tm *avail.TierModel, w *welford, k int, buf []float64) error {
	base := w.n
	err := par.ForEachCtx(ctx, e.workers, k, func(i int) error {
		s := arenaPool.Get().(*tierSim)
		rg := newRNG(repSeed(e.seed, base+i))
		down, err := simulateOnce(tm, &rg, e.years, s)
		arenaPool.Put(s)
		if err != nil {
			return err
		}
		buf[i] = down / e.years // minutes per year
		return nil
	})
	if err != nil {
		return err
	}
	for _, x := range buf[:k] {
		w.add(x)
	}
	e.nreps.Add(uint64(k))
	e.nbatches.Add(1)
	if s := e.sinks.Load(); s != nil {
		if s.reps != nil {
			s.reps.Add(int64(k))
			s.batches.Inc()
		}
		if s.tr != nil {
			// Post-fold statistics depend only on the replication-order
			// fold, so the emitted batch events are identical at any
			// worker count.
			st := w.stats()
			s.tr.Emit(obs.Event{Ev: obs.EvSimBatch, Tier: tm.Name,
				Reps: st.Replications, Mean: st.MeanMinutes, HW95: st.HalfWidth95})
		}
	}
	return nil
}

// summarise is the naive two-pass reference estimator over a complete
// samples slice. The engine streams through welford instead (one pass,
// no samples slice); this form is kept as the oracle the streaming
// statistics are tested against.
func summarise(samples []float64) Stats {
	n := float64(len(samples))
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / n
	st := Stats{MeanMinutes: mean, Replications: len(samples)}
	if len(samples) < 2 {
		return st
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	stderr := math.Sqrt(ss/(n-1)) / math.Sqrt(n)
	st.HalfWidth95 = tCrit95(len(samples)-1) * stderr
	return st
}

// resourceState is a resource's position in its lifecycle.
type resourceState int

const (
	stateActive resourceState = iota + 1
	stateIdleSpare
	stateRepairing
	stateActivating // spare starting up during a failover window
)

// eventKind identifies heap-scheduled simulation events. Failures are
// not among them: the next failure across the whole tier is a single
// scalar deadline (see tierSim.nextFailAt), so only repair completions
// and spare activations ever enter the queue.
type eventKind int

const (
	evRepairDone eventKind = iota + 1
	evActivationDone
)

type event struct {
	at   float64 // hours
	seq  uint64  // tie-break for deterministic ordering
	kind eventKind
	res  int
}

// tierSim is the mutable simulation state for one tier replication. It
// doubles as a reusable arena: reset reslices every buffer in place, so
// after the first replication warms the capacities, further
// replications on the same arena allocate nothing.
//
// Failure sampling is aggregated: failure modes are exponential, so the
// superposition of every pending per-resource failure clock is itself
// exponential at the summed rate, and memorylessness lets the simulator
// redraw one tier-wide next-failure deadline after every state change
// instead of keeping a clock per resource in the event queue. The
// victim resource falls out of the same uniform draw that picked the
// class. This halves-and-more the heap traffic — the queue holds only
// in-flight repairs and activations — and is statistically identical to
// competing per-resource exponentials.
type tierSim struct {
	tm         *avail.TierModel
	rng        rng // by value: keeps the caller's generator off the heap
	queue      []event
	seq        uint64
	state      []resourceState
	active     int
	idleSpares int
	nextFailAt float64 // tier-wide next-failure deadline (+Inf when nothing can fail)
	// activeRate is the total failure rate of a serving resource;
	// spareRate covers only the modes whose components run powered on
	// idle spares (warm/hot spares).
	activeRate float64
	spareRate  float64
	// invActiveRate/invSpareRate turn victim selection and deadline
	// sampling divisions into multiplies (0 when the rate itself is 0).
	invActiveRate float64
	invSpareRate  float64
	spareModes    []int     // indices into tm.Modes with SparePowered
	modeRates     []float64 // per-mode failure rates (1/MTBF hours)
	// repairHours/failoverHours cache the per-mode Duration→hours
	// conversions so the event handlers stay arithmetic-only.
	repairHours   []float64
	failoverHours []float64
	usesFailover  []bool
}

// reset points the arena at a tier model and replication stream and
// restores the empty initial state, reusing every buffer's capacity.
func (s *tierSim) reset(tm *avail.TierModel, rg *rng) {
	total := tm.N + tm.S
	s.tm = tm
	s.rng = *rg
	s.queue = s.queue[:0]
	s.seq = 0
	s.active = 0
	s.idleSpares = 0
	s.activeRate = 0
	s.spareRate = 0
	s.invActiveRate = 0
	s.invSpareRate = 0
	s.spareModes = s.spareModes[:0]
	s.modeRates = s.modeRates[:0]
	s.repairHours = s.repairHours[:0]
	s.failoverHours = s.failoverHours[:0]
	s.usesFailover = s.usesFailover[:0]
	if cap(s.state) < total {
		s.state = make([]resourceState, total)
	} else {
		s.state = s.state[:total]
	}
	for mi := range tm.Modes {
		rate := 1 / tm.Modes[mi].MTBF.Hours()
		s.modeRates = append(s.modeRates, rate)
		s.repairHours = append(s.repairHours, tm.Modes[mi].Repair.Hours())
		s.failoverHours = append(s.failoverHours, tm.Modes[mi].Failover.Hours())
		s.usesFailover = append(s.usesFailover, tm.Modes[mi].UsesFailover)
		s.activeRate += rate
		if tm.Modes[mi].SparePowered {
			s.spareRate += rate
			s.spareModes = append(s.spareModes, mi)
		}
	}
	if s.activeRate > 0 {
		s.invActiveRate = 1 / s.activeRate
	}
	if s.spareRate > 0 {
		s.invSpareRate = 1 / s.spareRate
	}
}

// simulateOnce runs one replication on the given arena and reports
// downtime minutes. The arena may be freshly zero-valued or reused from
// an earlier replication; in the steady state (warm arena) the
// replication performs zero heap allocations.
func simulateOnce(tm *avail.TierModel, rg *rng, years float64, s *tierSim) (float64, error) {
	s.reset(tm, rg)
	// Copy the advanced generator state back out on every return, so the
	// caller's stream position stays meaningful (and rg itself never
	// escapes to the heap — the arena works on its own copy).
	defer func() { *rg = s.rng }()
	for i := 0; i < tm.N+tm.S; i++ {
		if i < tm.N {
			s.state[i] = stateActive
			s.active++
		} else {
			s.state[i] = stateIdleSpare
			s.idleSpares++
		}
	}
	s.drawNextFailure(0)
	horizon := years * 8760
	var (
		now       float64
		downSince float64
		downHours float64
	)
	m := tm.M
	for {
		// The next event is the earlier of the heap front (in-flight
		// repairs and activations) and the tier-wide failure deadline;
		// the heap wins ties so recovery completes before a
		// same-instant failure strikes.
		var (
			at      float64
			failure bool
		)
		if len(s.queue) > 0 && s.queue[0].at <= s.nextFailAt {
			at = s.queue[0].at
		} else if !math.IsInf(s.nextFailAt, 1) {
			at, failure = s.nextFailAt, true
		} else {
			break
		}
		if at > horizon {
			break
		}
		now = at
		before := s.active < m
		if failure {
			s.onFailure(now)
		} else {
			ev := heapPop(&s.queue)
			switch ev.kind {
			case evRepairDone:
				s.onRepairDone(ev.res)
			case evActivationDone:
				s.onActivationDone(ev.res)
			default:
				return 0, fmt.Errorf("sim: unknown event kind %d", int(ev.kind))
			}
		}
		// Any handler may change who can fail; the exponential's
		// memorylessness makes an unconditional redraw of the aggregate
		// deadline exact.
		s.drawNextFailure(now)
		after := s.active < m
		if !before && after {
			downSince = now
		}
		if before && !after {
			downHours += now - downSince
		}
	}
	if s.active < tm.M {
		downHours += horizon - downSince
	}
	return downHours * 60, nil
}

// drawNextFailure samples the tier-wide next-failure deadline from the
// superposed failure clocks: active resources fail under every mode,
// idle spares only under the spare-powered modes.
func (s *tierSim) drawNextFailure(now float64) {
	rate := float64(s.active)*s.activeRate + float64(s.idleSpares)*s.spareRate
	if rate <= 0 {
		s.nextFailAt = math.Inf(1)
		return
	}
	s.nextFailAt = now + s.rng.Exp()/rate
}

// pushEvent stamps the insertion sequence and queues the event.
func (s *tierSim) pushEvent(at float64, kind eventKind, res int) {
	s.seq++
	heapPush(&s.queue, event{at: at, seq: s.seq, kind: kind, res: res})
}

// pickMode chooses which failure mode struck, proportional to rates,
// drawing from the spare-powered subset for idle spares. It returns the
// mode index so handlers read the cached per-mode tables.
func (s *tierSim) pickMode(serving bool) int {
	if serving {
		x := s.rng.Float64() * s.activeRate
		var acc float64
		for i := range s.modeRates {
			acc += s.modeRates[i]
			if x <= acc {
				return i
			}
		}
		return len(s.modeRates) - 1
	}
	x := s.rng.Float64() * s.spareRate
	var acc float64
	for _, mi := range s.spareModes {
		acc += s.modeRates[mi]
		if x <= acc {
			return mi
		}
	}
	return s.spareModes[len(s.spareModes)-1]
}

// onFailure resolves the aggregate failure deadline into a concrete
// victim: the class (serving vs idle spare) falls out of one uniform
// draw proportional to each class's total rate, and the victim within
// the class out of the same draw's remainder — uniform, since class
// members carry identical rates. Activating and repairing resources
// never fail (an activating spare has no serving load yet; a repairing
// one is already down), matching the per-resource-clock formulation
// where neither holds a pending failure clock.
func (s *tierSim) onFailure(now float64) {
	activeMass := float64(s.active) * s.activeRate
	total := activeMass + float64(s.idleSpares)*s.spareRate
	x := s.rng.Float64() * total
	serving := x < activeMass
	var res int
	if serving {
		k := int(x * s.invActiveRate) // uniform in [0, active)
		if k >= s.active {
			k = s.active - 1
		}
		res = s.nthInState(stateActive, k)
	} else {
		k := int((x - activeMass) * s.invSpareRate) // uniform in [0, idleSpares)
		if k >= s.idleSpares {
			k = s.idleSpares - 1
		}
		res = s.nthInState(stateIdleSpare, k)
	}
	mi := s.pickMode(serving)
	if serving {
		s.active--
	} else {
		s.idleSpares--
	}
	s.state[res] = stateRepairing
	if s.repairHours[mi] <= 0 {
		// Instantaneous repair: the resource resumes immediately.
		s.finishRepair(res)
		return
	}
	// Repair and activation durations sample exponentially with the
	// modelled means, matching §4.2's distributional assumptions (the
	// steady state is insensitive to the choice, but finite-horizon
	// comparisons against the analytic engines are not).
	repair := s.rng.Exp() * s.repairHours[mi]
	s.pushEvent(now+repair, evRepairDone, res)
	// Failover: an idle spare starts taking over the failed active's
	// place when the mode warrants it.
	if serving && s.usesFailover[mi] {
		if sp := s.findIdleSpare(); sp >= 0 {
			s.idleSpares--
			s.state[sp] = stateActivating
			activation := 0.0
			if s.failoverHours[mi] > 0 {
				activation = s.rng.Exp() * s.failoverHours[mi]
			}
			s.pushEvent(now+activation, evActivationDone, sp)
		}
	}
}

// nthInState returns the index of the k-th resource (in index order)
// currently in the given state.
func (s *tierSim) nthInState(st resourceState, k int) int {
	for i, cur := range s.state {
		if cur == st {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return len(s.state) - 1 // unreachable when counts are consistent
}

func (s *tierSim) onRepairDone(res int) {
	s.finishRepair(res)
}

// finishRepair returns a repaired resource to service: it rejoins as
// active if the tier is short of actives, otherwise as an idle spare.
func (s *tierSim) finishRepair(res int) {
	if s.active < s.tm.N {
		s.state[res] = stateActive
		s.active++
		return
	}
	s.state[res] = stateIdleSpare
	s.idleSpares++
}

func (s *tierSim) onActivationDone(res int) {
	if s.active < s.tm.N {
		s.state[res] = stateActive
		s.active++
		return
	}
	// The slot was refilled while this spare was starting; stand down.
	s.state[res] = stateIdleSpare
	s.idleSpares++
}

func (s *tierSim) findIdleSpare() int {
	for i, st := range s.state {
		if st == stateIdleSpare {
			return i
		}
	}
	return -1
}

// SimulateRestart estimates the mean time (hours) to execute lwHours of
// useful work when failures arrive as a Poisson process with the given
// MTBF and each failure restarts the current loss window — the restart
// law behind the paper's Eq. 1. Failure handling time is excluded, as
// in the analytic formula. Each replication draws from its own
// deterministically derived stream (see repSeed), so replication r's
// sample is independent of reps and of the worker count. Replications
// fan across the GOMAXPROCS-wide pool; see SimulateRestartWorkers for
// an explicit worker count.
func SimulateRestart(seed int64, mtbfHours, lwHours float64, reps int) (float64, error) {
	return SimulateRestartWorkers(seed, mtbfHours, lwHours, reps, 0)
}

// SimulateRestartWorkers is SimulateRestart with an explicit
// replication worker-pool size (0 uses GOMAXPROCS, 1 runs
// sequentially). The worker count never changes the estimate.
func SimulateRestartWorkers(seed int64, mtbfHours, lwHours float64, reps, workers int) (float64, error) {
	if mtbfHours <= 0 || lwHours <= 0 {
		return 0, fmt.Errorf("sim: restart law needs positive mtbf and loss window, got %v and %v", mtbfHours, lwHours)
	}
	if reps < 1 {
		return 0, fmt.Errorf("sim: need at least one replication, got %d", reps)
	}
	samples := make([]float64, reps)
	if err := par.ForEach(workers, reps, func(r int) error {
		rg := newRNG(repSeed(seed, r))
		samples[r] = restartOnce(&rg, mtbfHours, lwHours)
		return nil
	}); err != nil {
		return 0, err
	}
	var total float64
	for _, s := range samples {
		total += s
	}
	return total / float64(reps), nil
}

// restartOnce walks one replication of the restart law: elapsed time
// accumulates until an inter-failure gap finally covers the loss window.
func restartOnce(rg *rng, mtbfHours, lwHours float64) float64 {
	var elapsed float64
	for {
		x := rg.Exp() * mtbfHours
		if x >= lwHours {
			return elapsed + lwHours
		}
		elapsed += x
	}
}
