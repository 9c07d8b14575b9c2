package avail

import (
	"sync"
	"sync/atomic"

	"aved/internal/units"
)

// modeKey is everything one failure mode's birth–death solve depends
// on. It deliberately omits the mode name and the raw spare count: the
// name is presentation only, and spares enter the chain solely when the
// mode fails over, so the key carries the effective spare count. Two
// modes agreeing on this key — across mechanism combos, warmth levels
// and even tiers — have bit-identical contributions and share one
// solved chain. The counts are int32 and follow the durations, which
// packs the key into 40 bytes (Validate bounds a tier's resources to
// fit): the memo map hashes and stores every key it sees.
type modeKey struct {
	mtbf         units.Duration
	repair       units.Duration
	failover     units.Duration
	n, m, spares int32
	usesFailover bool
	sparePowered bool
}

// modeVal is one solved chain's reduced result. Reattaching the mode
// name reconstitutes the full ModeContribution.
type modeVal struct {
	steadyMinutes    float64
	transientMinutes float64
	eventsPerYear    float64
	avail            float64
}

// modeMemo is a memo of solved birth–death chains shared by every
// evaluation an engine instance runs. It sits below the engine
// boundary: callers see identical Results and identical evaluation
// counts whether entries hit or miss.
//
// One engine call locks mu once per tier and resolves all of the
// tier's modes under it, so a lookup costs a map probe, not a lock
// round trip (an instrumented engine drops the lock around each call
// into its sinks); hits, solves and m are guarded by mu. Holding the lock
// across a solve makes each key solve exactly once per memo lifetime —
// concurrent misses of one key cannot both solve — which keeps the
// hit/solve counters (and the memo trace events) deterministic at any
// worker count: solves = distinct keys, hits = requests − solves.
// Chain solves are microsecond-scale closed forms, so one lock for the
// whole memo serializes little.
type modeMemo struct {
	// sinks is set when the engine is instrumented. It lives on the
	// memo — the engine's only shared mutable state — because
	// MarkovEngine is a value type: storing here makes instrumentation
	// visible through every copy of the engine.
	sinks atomic.Pointer[memoSinks]

	mu     sync.Mutex
	hits   uint64
	solves uint64
	m      map[modeKey]modeVal // made on first insert; reads on nil are safe
}

// newModeMemo builds an empty memo.
func newModeMemo() *modeMemo {
	return &modeMemo{}
}

// getOrSolveLocked returns k's solved chain, solving and storing it on
// first use. The caller holds mu. hit reports whether the value was
// replayed.
func (mm *modeMemo) getOrSolveLocked(k modeKey) (v modeVal, hit bool, err error) {
	if v, ok := mm.m[k]; ok {
		mm.hits++
		return v, true, nil
	}
	v, err = solveModeChain(k)
	if err != nil {
		return modeVal{}, false, err
	}
	if mm.m == nil {
		mm.m = map[modeKey]modeVal{}
	}
	mm.m[k] = v
	mm.solves++
	return v, false, nil
}

// observeUnlocked reports one lookup to the sinks with mu released:
// the sinks run the caller's tracer. mu is held again on return, even
// if the tracer panics, so the caller's deferred unlock stays paired.
func (mm *modeMemo) observeUnlocked(s *memoSinks, tm *TierModel, k modeKey, hit bool) {
	mm.mu.Unlock()
	defer mm.mu.Lock()
	s.observe(tm, k, hit)
}

// chainScratch holds the rate and distribution slices one birth–death
// solve needs, pooled so memo misses allocate nothing once the pool is
// warm. Every element the solver reads is overwritten first, so reuse
// cannot leak state between solves.
type chainScratch struct {
	birth, death, pi []float64
}

var chainScratchPool = sync.Pool{New: func() any { return new(chainScratch) }}

// slices returns rate slices of length total and a distribution slice
// of length total+1, growing the backing arrays only when a larger
// chain than any before appears. Growth rounds the capacity up to the
// next power of two: a corpus-scale stream of slowly growing chains
// reallocates O(log n) times instead of once per new maximum.
func (s *chainScratch) slices(total int) (birth, death, pi []float64) {
	if cap(s.birth) < total {
		n := nextPow2(total)
		s.birth = make([]float64, n)
		s.death = make([]float64, n)
	}
	if cap(s.pi) < total+1 {
		s.pi = make([]float64, nextPow2(total+1))
	}
	return s.birth[:total], s.death[:total], s.pi[: total+1 : total+1]
}

// nextPow2 rounds n up to a power of two.
func nextPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}
