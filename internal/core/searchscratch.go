package core

import (
	"sync"

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
