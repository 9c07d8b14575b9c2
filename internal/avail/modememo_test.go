package avail

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"aved/internal/units"
)

// TestMemoTransparency is the memoization correctness property: a
// shared memoizing engine — including on its second pass, when every
// chain is a memo hit — returns Results bit-identical to a memo-less
// MarkovEngine{} across random tier models. DeepEqual compares the
// float64s exactly, so any rounding difference introduced by the memo
// or the scratch reuse fails the test.
func TestMemoTransparency(t *testing.T) {
	memoized := NewMarkovEngine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tms := make([]TierModel, 1+rng.Intn(3))
		for i := range tms {
			tms[i] = randomTier(rng)
		}
		want, err := MarkovEngine{}.Evaluate(tms)
		if err != nil {
			return false
		}
		cold, err := memoized.Evaluate(tms)
		if err != nil {
			return false
		}
		warm, err := memoized.Evaluate(tms) // all memo hits
		if err != nil {
			return false
		}
		return reflect.DeepEqual(want, cold) && reflect.DeepEqual(want, warm)
	}
	if err := quick.Check(f, quickCfg(7, 300)); err != nil {
		t.Error(err)
	}
	hits, solves := memoized.MemoStats()
	if hits == 0 || solves == 0 {
		t.Errorf("memo never exercised: hits=%d solves=%d", hits, solves)
	}
}

// TestMemoStatsCountHitsAndSolves pins the counter semantics: the first
// pass over a model solves every chain, the second hits every one.
func TestMemoStatsCountHitsAndSolves(t *testing.T) {
	e := NewMarkovEngine()
	tm := TierModel{Name: "t", N: 3, M: 2, S: 1, Modes: []Mode{
		{Name: "hw", MTBF: 3000 * units.Hour, Repair: 8 * units.Hour, Failover: units.Hour, UsesFailover: true},
		{Name: "sw", MTBF: 500 * units.Hour, Repair: units.Hour},
	}}
	if _, err := e.Evaluate([]TierModel{tm}); err != nil {
		t.Fatal(err)
	}
	hits, solves := e.MemoStats()
	if hits != 0 || solves != uint64(len(tm.Modes)) {
		t.Fatalf("after cold pass: hits=%d solves=%d, want 0 and %d", hits, solves, len(tm.Modes))
	}
	if _, err := e.Evaluate([]TierModel{tm}); err != nil {
		t.Fatal(err)
	}
	hits, solves = e.MemoStats()
	if hits != uint64(len(tm.Modes)) || solves != uint64(len(tm.Modes)) {
		t.Fatalf("after warm pass: hits=%d solves=%d, want %d and %d",
			hits, solves, len(tm.Modes), len(tm.Modes))
	}
}

// TestZeroValueEngineHasNoMemo: the MarkovEngine{} zero value (used
// throughout the tests and as a fallback) evaluates without a memo and
// reports zero stats.
func TestZeroValueEngineHasNoMemo(t *testing.T) {
	e := MarkovEngine{}
	tm := TierModel{Name: "t", N: 2, M: 1, Modes: []Mode{{Name: "m", MTBF: 1000 * units.Hour, Repair: 4 * units.Hour}}}
	for i := 0; i < 2; i++ {
		if _, err := e.Evaluate([]TierModel{tm}); err != nil {
			t.Fatal(err)
		}
	}
	if hits, solves := e.MemoStats(); hits != 0 || solves != 0 {
		t.Errorf("zero-value engine reported memo stats %d/%d", hits, solves)
	}
}

// TestResolveModeHitAllocFree is the allocation regression for the
// per-mode memo path: once a chain is memoized, re-resolving its mode
// must not allocate.
func TestResolveModeHitAllocFree(t *testing.T) {
	e := NewMarkovEngine()
	tm := TierModel{Name: "t", N: 4, M: 3, S: 1, Modes: []Mode{
		{Name: "hw", MTBF: 3000 * units.Hour, Repair: 8 * units.Hour, Failover: units.Hour, UsesFailover: true},
	}}
	k := modeKeyFor(&tm, &tm.Modes[0])
	if _, err := e.resolveMode(&tm, k); err != nil { // warm the memo
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.resolveMode(&tm, k); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("memoized resolveMode allocates %.1f objects per run, want 0", allocs)
	}
}

// TestPriceTierHitAllocFree is the allocation regression for the
// search hot path: a warm memo-carrying engine prices a tier without
// allocating.
func TestPriceTierHitAllocFree(t *testing.T) {
	e := NewMarkovEngine()
	tm := TierModel{Name: "t", N: 4, M: 3, S: 1, Modes: []Mode{
		{Name: "hw", MTBF: 3000 * units.Hour, Repair: 8 * units.Hour, Failover: units.Hour, UsesFailover: true},
		{Name: "sw", MTBF: 500 * units.Hour, Repair: units.Hour},
		{Name: "op", MTBF: 8760 * units.Hour, Repair: 0},
	}}
	if _, err := e.PriceTier(&tm); err != nil { // warm the memo and the scratch pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.PriceTier(&tm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm PriceTier allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkResolveMode measures one mode resolution cold (memo-less
// zero value, solving the chain each time) and warm (memo hit).
func BenchmarkResolveMode(b *testing.B) {
	tm := TierModel{Name: "t", N: 6, M: 5, S: 1, Modes: []Mode{
		{Name: "hw", MTBF: 650 * 24 * units.Hour, Repair: 38 * units.Hour,
			Failover: units.Hour / 10, UsesFailover: true},
	}}
	k := modeKeyFor(&tm, &tm.Modes[0])
	b.Run("cold", func(b *testing.B) {
		e := MarkovEngine{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.resolveMode(&tm, k); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		e := NewMarkovEngine()
		if _, err := e.resolveMode(&tm, k); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.resolveMode(&tm, k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestSolveModeChainPureOfKey: two designs that reduce to the same
// modeKey — e.g. a spare-less tier and one whose spares are ignored by
// a non-failover mode — share one solve.
func TestSolveModeChainPureOfKey(t *testing.T) {
	e := NewMarkovEngine()
	noSpares := TierModel{Name: "a", N: 3, M: 2, S: 0, Modes: []Mode{
		{Name: "sw", MTBF: 500 * units.Hour, Repair: 2 * units.Hour},
	}}
	ignoredSpares := TierModel{Name: "b", N: 3, M: 2, S: 2, Modes: []Mode{
		{Name: "sw", MTBF: 500 * units.Hour, Repair: 2 * units.Hour}, // UsesFailover false: spares inert
	}}
	if _, err := e.Evaluate([]TierModel{noSpares}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate([]TierModel{ignoredSpares}); err != nil {
		t.Fatal(err)
	}
	hits, solves := e.MemoStats()
	if hits != 1 || solves != 1 {
		t.Errorf("effective-spares keying: hits=%d solves=%d, want 1 and 1", hits, solves)
	}
}

// randomTierWithEdges extends randomTier's range with the shapes the
// memo keys specially: instantaneous repair (closed form, no chain),
// powered spares, and duplicate modes (one key requested twice by one
// tier).
func randomTierWithEdges(rng *rand.Rand) TierModel {
	tm := randomTier(rng)
	for i := range tm.Modes {
		switch rng.Intn(6) {
		case 0:
			tm.Modes[i].Repair = 0 // closed-form key
		case 1:
			tm.Modes[i].SparePowered = true
		}
	}
	if len(tm.Modes) > 1 && rng.Intn(3) == 0 {
		tm.Modes[1] = tm.Modes[0] // duplicate key inside one tier
	}
	return tm
}

// TestPriceTierMatchesEvaluate pins the lean pricing entry point: with
// and without a memo, PriceTier equals the single-tier Evaluate's
// DowntimeMinutes bitwise.
func TestPriceTierMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	engines := map[string]MarkovEngine{
		"zero": {},
		"memo": NewMarkovEngine(),
	}
	for round := 0; round < 100; round++ {
		tm := randomTierWithEdges(rng)
		for name, e := range engines {
			res, err := e.Evaluate([]TierModel{tm})
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			dt, err := e.PriceTier(&tm)
			if err != nil {
				t.Fatalf("round %d %s: PriceTier: %v", round, name, err)
			}
			if math.Float64bits(dt) != math.Float64bits(res.Tiers[0].DowntimeMinutes) {
				t.Fatalf("round %d %s: PriceTier %v != Evaluate %v", round, name, dt, res.Tiers[0].DowntimeMinutes)
			}
		}
	}
}

// TestMemoConcurrentSolveOnce hammers one engine's memo from many
// goroutines — sensitivity factors share an engine the caller
// passes — and checks the
// determinism invariant getOrSolve promises: each key solves exactly
// once, so solves = distinct keys and hits = requests − solves. Under
// the race detector it also checks the memo's lock discipline.
func TestMemoConcurrentSolveOnce(t *testing.T) {
	e := NewMarkovEngine()
	rng := rand.New(rand.NewSource(99))
	tms := make([]TierModel, 24)
	for i := range tms {
		tms[i] = randomTierWithEdges(rng)
	}
	const workers = 8
	const rounds = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tm := tms[(w+r)%len(tms)]
				if _, err := e.Evaluate([]TierModel{tm}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	distinct := map[modeKey]bool{}
	requests := uint64(0)
	for i := range tms {
		for j := range tms[i].Modes {
			distinct[modeKeyFor(&tms[i], &tms[i].Modes[j])] = true
		}
	}
	for w := 0; w < workers; w++ {
		for r := 0; r < rounds; r++ {
			requests += uint64(len(tms[(w+r)%len(tms)].Modes))
		}
	}
	hits, solves := e.MemoStats()
	if solves != uint64(len(distinct)) || hits != requests-solves {
		t.Fatalf("memo counters hits=%d solves=%d, want solves=%d hits=%d",
			hits, solves, len(distinct), requests-uint64(len(distinct)))
	}
}

// TestChainScratchPow2Growth is the regression for the exact-size
// regrowth bug: feeding slowly growing chain lengths must reallocate
// O(log n) times, not once per new maximum.
func TestChainScratchPow2Growth(t *testing.T) {
	var sc chainScratch
	reallocs := 0
	var lastCap int
	for total := 1; total <= 256; total++ {
		birth, death, pi := sc.slices(total)
		if len(birth) != total || len(death) != total || len(pi) != total+1 {
			t.Fatalf("total=%d: lengths %d/%d/%d", total, len(birth), len(death), len(pi))
		}
		if cap(sc.birth) != lastCap {
			reallocs++
			lastCap = cap(sc.birth)
			if c := cap(sc.birth); c&(c-1) != 0 {
				t.Fatalf("total=%d: capacity %d not a power of two", total, c)
			}
		}
	}
	if reallocs > 9 { // 1,2,4,...,256
		t.Fatalf("%d reallocations over 256 growing chains, want O(log n)", reallocs)
	}
}
