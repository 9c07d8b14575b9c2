package core

import (
	"context"
	"math"
	"testing"

	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// benchCandidates builds a realistic unsorted candidate pool of the
// size a tier frontier merge sees.
func benchCandidates(n int) []TierCandidate {
	out := make([]TierCandidate, n)
	cost, down := 1000.0, 5000.0
	for i := range out {
		out[i] = TierCandidate{Cost: units.Money(cost), DowntimeMinutes: down}
		// Interleave dominated and non-dominated points.
		if i%3 == 0 {
			cost *= 1.07
			down *= 0.83
		} else {
			cost *= 1.02
			down *= 1.05
		}
	}
	return out
}

// BenchmarkParetoReduce tracks the frontier-merge cost: the reduce
// sorts and compacts in place, so it allocates nothing.
func BenchmarkParetoReduce(b *testing.B) {
	src := benchCandidates(512)
	work := make([]TierCandidate, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, src)
		if out := paretoReduce(work); len(out) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// benchEvalDesigns builds the warmed-cache working set for
// BenchmarkEvalTier: distinct (size, maintenance level) designs of the
// application tier.
func benchEvalDesigns(tb testing.TB, s *Solver) []model.TierDesign {
	tb.Helper()
	var designs []model.TierDesign
	for n := 2; n <= 9; n++ {
		for _, lv := range []string{"bronze", "silver", "gold"} {
			designs = append(designs, model.TierDesign{
				TierName:  "application",
				Option:    &s.svc.Tiers[0].Options[0],
				NActive:   n,
				NSpare:    1,
				NMinPerf:  n,
				MinActive: n,
				Mechanisms: []model.MechSetting{{
					Mechanism: s.inf.Mechanisms["maintenanceA"],
					Values:    map[string]model.ParamValue{"level": model.EnumValue(lv)},
				}},
			})
		}
	}
	return designs
}

// BenchmarkEvalTier is the hot-path acceptance benchmark: a warmed
// cached evaluation keyed by the packed fingerprint versus the same
// lookup keyed by the legacy string key (relevance map + sorted labels
// + concatenation per call, as on the old hot path). The packed variant
// must allocate at least 5× less; in fact it allocates nothing.
func BenchmarkEvalTier(b *testing.B) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		b.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry()})
	if err != nil {
		b.Fatal(err)
	}
	designs := benchEvalDesigns(b, s)
	var stats searchStats
	for i := range designs {
		if _, err := s.evalTier(context.Background(), &designs[i], fingerprintOf(&designs[i]), &stats); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("packed-fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			td := &designs[i%len(designs)]
			if _, err := s.evalTier(context.Background(), td, fingerprintOf(td), &stats); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The baseline replays the retired keying scheme against an
	// equivalently warmed map, isolating the cost the rekey removed.
	b.Run("string-key-baseline", func(b *testing.B) {
		warmed := make(map[string]evalEntry, len(designs))
		for i := range designs {
			ev, err := s.evalTier(context.Background(), &designs[i], fingerprintOf(&designs[i]), &stats)
			if err != nil {
				b.Fatal(err)
			}
			warmed[legacyAvailKey(&designs[i])] = ev
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := warmed[legacyAvailKey(&designs[i%len(designs)])]; !ok {
				b.Fatal("baseline cache miss")
			}
		}
	})
}

// BenchmarkTierFrontier measures one tier's full Pareto-frontier build
// (the phase-2 unit of work), with allocation reporting for the
// candidate-buffer reuse.
func BenchmarkTierFrontier(b *testing.B) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh solver per iteration measures the uncached build.
		svc, err := scenarios.ApplicationTier(inf)
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry()})
		if err != nil {
			b.Fatal(err)
		}
		var stats searchStats
		f, err := s.tierFrontier(context.Background(), &s.svc.Tiers[0], tierLoad{full: 1000, degraded: 1000}, math.Inf(1), &stats)
		if err != nil {
			b.Fatal(err)
		}
		if len(f) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
