package server

import "math"

// The request fingerprint keys the server's singleflight table and
// response cache, in the same packed-128-bit style as the solver's
// candidate fingerprints: FNV-1a string folding plus SplitMix64
// avalanche mixing across two salted lanes. It covers every field that
// changes the solve outcome — specs, requirement, search and engine
// knobs — and deliberately excludes the delivery knobs (TimeoutMS,
// NoCache): a request retried with a longer deadline must join the
// flight its first attempt started, and hit the cache its first attempt
// filled. Workers is excluded for the same reason: every parallel path
// is bit-identical to its sequential order, so the worker count never
// changes the answer.

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211

	saltLane   uint64 = 0x6a09e667f3bcc909
	saltGolden uint64 = 0x9e3779b97f4a7c15
)

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func (f reqFP) mixUint(v uint64) reqFP {
	return reqFP{
		hi: mix64(f.hi ^ mix64(v+saltGolden)),
		lo: mix64(f.lo ^ mix64(v+saltLane)),
	}
}

func (f reqFP) mixString(s string) reqFP {
	// Fold the length first so adjacent fields cannot alias by sliding
	// bytes across the boundary.
	return f.mixUint(uint64(len(s))).mixUint(hashString(fnvOffset64, s))
}

func (f reqFP) mixFloat(v float64) reqFP {
	return f.mixUint(math.Float64bits(v))
}

func (f reqFP) mixBool(v bool) reqFP {
	if v {
		return f.mixUint(1)
	}
	return f.mixUint(0)
}

// fingerprint derives the request's cache key.
func (r *SolveRequest) fingerprint() reqFP {
	fp := reqFP{hi: fnvOffset64, lo: mix64(fnvOffset64)}
	fp = fp.mixString(r.Paper)
	fp = fp.mixString(r.InfraSpec)
	fp = fp.mixString(r.ServiceSpec)
	fp = fp.mixFloat(r.Load)
	fp = fp.mixString(r.MaxDowntime)
	fp = fp.mixString(r.MaxJobTime)
	fp = fp.mixBool(r.Bronze)
	fp = fp.mixBool(r.WarmSpares)
	// Normalized so "" and "bnb" share a cache line. The design is
	// identical across modes, but the effort counters in a cached
	// response must match the mode the request asked for. validate()
	// rejects unknown modes before any fingerprinting.
	mode, _ := r.searchMode()
	fp = fp.mixUint(uint64(mode))
	// The engine enters resolved, so requests naming one engine two
	// ways share a key: "" and "markov" are one engine, zero Seed,
	// Years and Reps take the defaults spec applies, and the sim knobs
	// count only for the sim engine, since the analytic engines ignore
	// them.
	eng := r.spec(0)
	if eng.Name == "" {
		eng.Name = "markov"
	}
	fp = fp.mixString(eng.Name)
	if eng.Name != "sim" {
		return fp
	}
	fp = fp.mixUint(uint64(eng.Seed))
	fp = fp.mixFloat(eng.Years)
	fp = fp.mixUint(uint64(eng.Reps))
	fp = fp.mixFloat(eng.RelErr)
	return fp.mixUint(uint64(eng.SimBatch))
}
