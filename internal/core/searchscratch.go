package core

import (
	"sync"

	"aved/internal/avail"
	"aved/internal/model"
)

// searchScratch pools the per-call buffers of the option walks:
// searchOption's per-size batch and evaluation order, optionFrontier's
// accumulation buffers plus its two alternating size batches, and the
// design a walk builds for the candidate it prices. One walk owns one
// scratch for its whole run — walks on different goroutines draw
// different instances — so a warm solver's searches reuse grown buffers
// instead of reallocating them per option.
type searchScratch struct {
	buf     []candRec
	order   []int
	skipped []candRec
	all     []candRec
	a, b    sizeBatch
	td      model.TierDesign
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// solveScratch holds what one solve fills and drops: its effort record,
// the per-tier bound pools, a walk's pool segment and the spare buffer
// the pools merge through, the tier frontier's option accumulation,
// the frontier row and its projection onto the combiner's pairs, the
// phase-1 and waterfilling candidate rows, and the final evaluation's
// tier models. A Solver owns one, because one goroutine owns the solver
// (the evaluation miss's priceModel relies on the same). Each solve
// resets what it uses at its start, and nothing a solve returns or
// records — a Solution, an InfeasibleError or CanceledError, a memo
// entry's pairs or points — aliases it, so a later solve may overwrite
// all of it. Unlike searchScratch it is not pooled: a fresh solver's
// first solve grows it once, and its later solves reuse it.
type solveScratch struct {
	stats searchStats
	// pools back stats.pools, one per tier; a merge swaps a tier's pool
	// with spare. seg is the pairs of the tier walk in flight.
	pools      [][]costDown
	seg, spare []costDown
	all        []TierCandidate
	frontiers  [][]TierCandidate
	pairs      [][]costDown
	perTier    []*TierCandidate
	cur        []*TierCandidate
	certified  []bool
	pinned     []bool
	tms        []avail.TierModel
}

// begin resets the effort record for a solve of generation gen and
// returns it.
func (sc *solveScratch) begin(gen uint64) *searchStats {
	sc.stats = searchStats{gen: gen}
	return &sc.stats
}

// resetPools empties n per-tier bound pools, keeping their buffers.
func (sc *solveScratch) resetPools(n int) [][]costDown {
	sc.pools = sized(sc.pools, n)
	for i := range sc.pools {
		sc.pools[i] = sc.pools[i][:0]
	}
	return sc.pools
}

// sized returns s resliced to n elements, reusing its backing array
// when it holds n; the elements keep what they held, so the caller
// overwrites or truncates each.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// insertSortByCost sorts order — initially ascending indices into buf —
// by ascending buf[i].cost. Insertion sort is stable, so equal costs
// keep their initial (enumeration-index) order: exactly the
// (cost, index) order searchOption's branch-and-bound cut relies on.
// It replaces sort.Slice because per-size batches are small (the
// splits × warmth × combos of one total) and sort.Slice allocates its
// reflection-based swapper on every call.
func insertSortByCost(order []int, buf []candRec) {
	for k := 1; k < len(order); k++ {
		i := order[k]
		c := buf[i].cost
		j := k - 1
		for j >= 0 && buf[order[j]].cost > c {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = i
	}
}
