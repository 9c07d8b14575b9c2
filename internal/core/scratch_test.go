package core

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/units"
)

// TestMergePairsMatchesReduce pins the merge that keeps a bound pool
// reduced: merging randomly drawn reduced segments into a pool one by
// one, through the alternating buffers mergePool uses, must equal
// reducePairs over the segments' concatenation (and over the raw pairs
// they were reduced from) bit for bit. Costs and downtimes come from
// small grids, so segments share costs, repeat whole pairs and meet
// equal downtimes at different costs; some segments are empty.
func TestMergePairsMatchesReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ties, dups int
	for trial := 0; trial < 2000; trial++ {
		var pool, spare, segs, raw []costDown
		for k := 0; k < 1+rng.Intn(6); k++ {
			seg := make([]costDown, rng.Intn(9))
			for i := range seg {
				seg[i] = costDown{units.Money(rng.Intn(12)) * 12.5, float64(rng.Intn(10)) / 4}
			}
			raw = append(raw, seg...)
			seg = reducePairs(seg)
			segs = append(segs, seg...)
			out := mergePairs(spare[:0], pool, seg)
			spare, pool = pool[:0], out
		}
		seen := map[costDown]int{}
		for _, p := range segs {
			seen[p]++
		}
		for p, n := range seen {
			if n > 1 {
				dups++
			}
			if _, ok := seen[costDown{p.cost + 12.5, p.down}]; ok {
				ties++
			}
		}
		if want := reducePairs(slices.Clone(segs)); !samePairs(pool, want) {
			t.Fatalf("trial %d: merged pool %v, reduction of the segments %v", trial, pool, want)
		}
		if want := reducePairs(raw); !samePairs(pool, want) {
			t.Fatalf("trial %d: merged pool %v, reduction of the raw pairs %v", trial, pool, want)
		}
	}
	if ties == 0 || dups == 0 {
		t.Fatalf("draws made %d equal-downtime pairs and %d duplicates — the property test is vacuous", ties, dups)
	}
}

// cancelAfter is a tracer that cancels a context at its n-th event
// once armed, so a solve stops partway with effort to report.
type cancelAfter struct {
	n, seen int
	cancel  context.CancelFunc
}

func (c *cancelAfter) Emit(obs.Event) {
	if c.cancel == nil {
		return
	}
	if c.seen++; c.seen == c.n {
		c.cancel()
	}
}

// copySolution deep-copies a Solution down to the model objects its
// designs point at, which are the solver's inputs and never change.
func copySolution(sol *Solution) *Solution {
	out := *sol
	out.Design.Tiers = slices.Clone(sol.Design.Tiers)
	for i := range out.Design.Tiers {
		td := &out.Design.Tiers[i]
		td.Mechanisms = slices.Clone(td.Mechanisms)
		for j := range td.Mechanisms {
			td.Mechanisms[j].Values = maps.Clone(td.Mechanisms[j].Values)
		}
	}
	out.Stats = copyStats(sol.Stats)
	return &out
}

func copyStats(s Stats) Stats {
	s.PhaseNanos = maps.Clone(s.PhaseNanos)
	return s
}

// TestSolveResultsDoNotAliasScratch pins that what a solve returns
// owns its memory: on one timed solver, a phase-2 e-commerce Solution,
// an infeasible solve's InfeasibleError.Stats and a canceled solve's
// CanceledError.Stats each still equal a deep copy taken when they came
// back after further solves and a SolveChain on the same solver have
// reused its solve scratch.
func TestSolveResultsDoNotAliasScratch(t *testing.T) {
	tr := &cancelAfter{n: 200}
	s := ecommerceAllocSolver(t, Options{Timings: true, Tracer: tr})
	ctx := context.Background()

	sol, err := s.SolveContext(ctx, allocSolveReq)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.BoundPruned == 0 || sol.Stats.PhaseNanos["combine"] == 0 {
		t.Fatalf("solve %+v did not combine under the bounds — the test is vacuous", sol.Stats)
	}
	solCopy := copySolution(sol)

	_, err = s.SolveContext(ctx, enterpriseReq(2000, 0.001))
	var infErr *InfeasibleError
	if !errors.As(err, &infErr) {
		t.Fatalf("tight budget: got %v, want an InfeasibleError", err)
	}
	infCopy := copyStats(infErr.Stats)

	cctx, cancel := context.WithCancel(ctx)
	tr.cancel = cancel
	_, err = s.SolveContext(cctx, enterpriseReq(3000, 30))
	tr.cancel = nil
	cancel()
	var canErr *CanceledError
	if !errors.As(err, &canErr) {
		t.Fatalf("canceled solve: got %v, want a CanceledError", err)
	}
	if canErr.Stats.CandidatesGenerated == 0 {
		t.Fatal("canceled solve reports no effort — the test is vacuous")
	}
	canCopy := copyStats(canErr.Stats)

	for _, req := range []model.Requirements{allocSolveReq, enterpriseReq(800, 10), enterpriseReq(2000, 0.001), enterpriseReq(3000, 30)} {
		var again *InfeasibleError
		if _, err := s.SolveContext(ctx, req); err != nil && !errors.As(err, &again) {
			t.Fatal(err)
		}
	}
	budgets := []units.Duration{units.Minute, 10 * units.Minute, 60 * units.Minute, 1000 * units.Minute}
	if err := s.SolveChain(ctx, model.Requirements{Kind: model.ReqEnterprise, Throughput: 2000}, budgets,
		func(int, *Solution, error) error { return nil }); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(sol, solCopy) {
		t.Errorf("phase-2 Solution changed under later solves:\n got %+v\nwant %+v", sol, solCopy)
	}
	if !reflect.DeepEqual(infErr.Stats, infCopy) {
		t.Errorf("InfeasibleError.Stats changed under later solves: got %+v, want %+v", infErr.Stats, infCopy)
	}
	if !reflect.DeepEqual(canErr.Stats, canCopy) {
		t.Errorf("CanceledError.Stats changed under later solves: got %+v, want %+v", canErr.Stats, canCopy)
	}
}
