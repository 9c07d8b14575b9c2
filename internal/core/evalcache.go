package core

import (
	"sync"

	"aved/internal/avail"
)

// evalCache is a singleflight-style cache of availability evaluations
// keyed by packed fingerprint. A solve runs on one goroutine, but sweep
// load chains share one solver across goroutines, so concurrent
// requests for the same key share one engine evaluation: the first
// requester computes, the rest block on the flight's once and read the
// settled result. Errors settle the flight too — engine errors here
// are deterministic model errors, so retrying could not succeed. The
// one exception is context cancellation, which says nothing about the
// model: evalTier forgets such flights so later solves re-evaluate (see
// forget).
type evalCache struct {
	mu sync.Mutex
	m  map[fp128]*evalFlight
	// slab is the flight allocator: flights are carved out of block
	// allocations instead of one heap object per miss. Blocks are never
	// reclaimed individually — flights live as long as the cache — so
	// carving is safe, and misses cost 1/flightSlabLen allocations.
	slab []evalFlight
}

type evalFlight struct {
	once  sync.Once
	entry evalEntry
	err   error
	// gen is the solve generation that created the flight (see
	// Solver.gen): a hit from a later generation is warm-start reuse.
	gen uint64
}

// flightSlabLen is the flight block size: small enough that a tiny
// solve wastes little, large enough to amortize the per-miss
// allocation to noise.
const flightSlabLen = 64

// newEvalCache builds an empty cache. The map initializes lazily on
// first insert — reads on a nil map are safe — so construction itself
// allocates only the cache; solvers are built once per model pair,
// sometimes per request.
func newEvalCache() *evalCache {
	return &evalCache{}
}

// flight returns the singleflight slot for a key, creating it if
// absent — carved off the slab under the same lock — and stamping a
// new flight with the requesting solve's generation. The lookup itself
// is allocation-free.
func (c *evalCache) flight(key fp128, gen uint64) *evalFlight {
	c.mu.Lock()
	f, ok := c.m[key]
	if !ok {
		if len(c.slab) == 0 {
			c.slab = make([]evalFlight, flightSlabLen)
		}
		f = &c.slab[0]
		c.slab = c.slab[1:]
		f.gen = gen
		if c.m == nil {
			c.m = map[fp128]*evalFlight{}
		}
		c.m[key] = f
	}
	c.mu.Unlock()
	return f
}

// forget removes a settled flight so the next request re-runs the
// evaluation. The identity check makes it idempotent when every waiter
// on a cancelled flight calls it, and a no-op when a fresh flight has
// already replaced f under the key.
func (c *evalCache) forget(key fp128, f *evalFlight) {
	c.mu.Lock()
	if c.m[key] == f {
		delete(c.m, key)
	}
	c.mu.Unlock()
}

// modeCache caches resolved effective-mode slices by mode fingerprint,
// so candidate enumeration stops re-resolving mechanism references per
// (active, spare) split: every design sharing (option, relevant combo
// settings, warmth, has-spares) reuses one []avail.Mode. Slices are
// shared read-only — engines never mutate Modes — and the first stored
// slice wins so concurrent resolvers (solves of sweep chains sharing
// the solver) converge on one canonical value.
type modeCache struct {
	mu sync.Mutex
	m  map[fp128][]avail.Mode
}

// newModeCache builds an empty cache; the map initializes lazily on
// first put, like newEvalCache's.
func newModeCache() *modeCache {
	return &modeCache{}
}

func (c *modeCache) get(key fp128) ([]avail.Mode, bool) {
	c.mu.Lock()
	modes, ok := c.m[key]
	c.mu.Unlock()
	return modes, ok
}

// put stores modes under key and returns the canonical slice — the one
// already present if another goroutine got there first.
func (c *modeCache) put(key fp128, modes []avail.Mode) []avail.Mode {
	c.mu.Lock()
	if prev, ok := c.m[key]; ok {
		modes = prev
	} else {
		if c.m == nil {
			c.m = map[fp128][]avail.Mode{}
		}
		c.m[key] = modes
	}
	c.mu.Unlock()
	return modes
}

// searchStats accumulates one solve's effort while it is in flight;
// snapshot converts it for the Solution. A solve runs on one goroutine,
// so the counters are plain integers. With the singleflight cache,
// Evaluations counts actual engine invocations — a fingerprint a
// concurrent solve on the same solver is already evaluating counts on
// that solve, not this one.
type searchStats struct {
	candidates    int
	pruned        int
	evals         int
	cacheHits     int
	boundPruned   int
	warmReuse     int
	frontierReuse int
	walkReuse     int
	// gen is this solve's generation (Solver.gen at solve start).
	gen uint64
	// phaseNs accumulates wall-clock nanoseconds per solver phase (see
	// phaseID); written only when the solver is timed, so an untimed
	// solve's snapshot sees all zeros and reports a nil PhaseNanos.
	phaseNs [numPhases]int64
	// pools, when non-nil, collect the (cost, downtime) pairs the tier
	// walks evaluate, one pool per tier in service order — raw material
	// for the combination upper bound, gathered free of extra engine
	// work (see combineBounds).
	pools [][]costDown
}

func (st *searchStats) snapshot() Stats {
	s := Stats{
		CandidatesGenerated: st.candidates,
		CostPruned:          st.pruned,
		Evaluations:         st.evals,
		EvalCacheHits:       st.cacheHits,
		BoundPruned:         st.boundPruned,
		WarmStartReuse:      st.warmReuse,
		FrontierReuse:       st.frontierReuse,
		WalkReuse:           st.walkReuse,
	}
	// The map materializes only when some phase recorded time — an
	// untimed solve keeps PhaseNanos nil, so disabled-path Stats stay
	// allocation-free and bitwise comparable.
	var pn map[string]int64
	for i, ns := range st.phaseNs {
		if ns != 0 {
			if pn == nil {
				pn = make(map[string]int64, numPhases)
			}
			pn[phaseNames[i]] = ns
		}
	}
	s.PhaseNanos = pn
	return s
}
