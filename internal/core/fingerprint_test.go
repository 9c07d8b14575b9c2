package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/scenarios"
)

// legacyAvailKey is the string fingerprint the packed fp128 replaced,
// kept here as the reference semantics: two designs must share a packed
// fingerprint exactly when they share this key.
func legacyAvailKey(td *model.TierDesign) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|n%d|m%d|s%d|w%d",
		td.TierName, td.Resource().Name, td.NActive, td.MinActive, td.NSpare, td.SpareWarm)
	relevant := map[string]bool{}
	for _, rc := range td.Resource().Components {
		for _, f := range rc.Component.Failures {
			if f.MTTRRef != "" {
				relevant[f.MTTRRef] = true
			}
			if f.MTBFRef != "" {
				relevant[f.MTBFRef] = true
			}
		}
	}
	labels := make([]string, 0, len(td.Mechanisms))
	for _, ms := range td.Mechanisms {
		if ms.Mechanism != nil && relevant[ms.Mechanism.Name] {
			labels = append(labels, ms.Label())
		}
	}
	sort.Strings(labels)
	sb.WriteByte('|')
	sb.WriteString(strings.Join(labels, ","))
	return sb.String()
}

// collectScenarioDesigns walks every option of every tier of the
// paper's services through the real search enumeration across several
// sizes, with spare warmth explored, collecting each
// candidate's design and the fingerprints the walks price it under:
// the tabled mode fingerprint and the availability fingerprint built
// from it when the candidate is priced.
func collectScenarioDesigns(t *testing.T) ([]model.TierDesign, []candFP) {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	var (
		designs []model.TierDesign
		fps     []candFP
		spares  int
	)
	for _, build := range []func(*model.Infrastructure) (*model.Service, error){
		scenarios.ApplicationTier, scenarios.Ecommerce, scenarios.Scientific,
	} {
		svc, err := build(inf)
		if err != nil {
			t.Fatal(err)
		}
		// Explore warmth so fingerprints cover the warmth dimension too.
		s, err := NewSolver(inf, svc, Options{Registry: scenarios.Registry(), ExploreSpareWarmth: true})
		if err != nil {
			t.Fatal(err)
		}
		for ti := range svc.Tiers {
			tier := &svc.Tiers[ti]
			for oi := range tier.Options {
				o, ok, err := s.newOptionSearch(tier, &tier.Options[oi], tierLoad{full: 900, degraded: 900})
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					continue
				}
				for extra := 0; extra <= 3; extra++ {
					total := o.nMinPerf + extra
					if o.maxTotal > 0 && total > o.maxTotal {
						break
					}
					for _, r := range o.candidates(nil, total) {
						designs = append(designs, o.design(&r))
						fps = append(fps, o.fps(&r))
						if r.nSpare > 0 && r.warm > 0 {
							spares++
						}
					}
				}
			}
		}
	}
	if len(designs) < 100 || spares == 0 {
		t.Fatalf("scenario enumeration too small: %d designs, %d with warm spares", len(designs), spares)
	}
	return designs, fps
}

// TestFingerprintMatchesStringKey pins the packed fingerprint to the
// string key's equivalence classes over the scenario suite: same legacy
// key ⇔ same fp128, so the cache shares and splits evaluations exactly
// as before the rekey.
func TestFingerprintMatchesStringKey(t *testing.T) {
	designs, fps := collectScenarioDesigns(t)
	byKey := map[string]fp128{}
	byFP := map[fp128]string{}
	for i := range designs {
		key := legacyAvailKey(&designs[i])
		fp := fps[i].avail
		if prev, ok := byKey[key]; ok && prev != fp {
			t.Fatalf("one string key %q mapped to two fingerprints %x and %x", key, prev, fp)
		}
		byKey[key] = fp
		if prev, ok := byFP[fp]; ok && prev != key {
			t.Fatalf("fingerprint collision: %x covers both %q and %q", fp, prev, key)
		}
		byFP[fp] = key
	}
	if len(byKey) != len(byFP) {
		t.Fatalf("%d string keys but %d fingerprints", len(byKey), len(byFP))
	}
}

// TestModeFingerprintInjective is the collision test for the second
// cache level: designs whose resolved effective modes differ must never
// share a mode fingerprint, or the mode cache would silently hand one
// design another design's failure modes.
func TestModeFingerprintInjective(t *testing.T) {
	designs, fps := collectScenarioDesigns(t)
	seen := map[fp128]string{}
	for i := range designs {
		td := &designs[i]
		ems, err := td.EffectiveModes()
		if err != nil {
			t.Fatal(err)
		}
		// The tier name scopes the cache like the legacy key did.
		canon := fmt.Sprintf("%s|%v", td.TierName, ems)
		if prev, ok := seen[fps[i].mode]; ok {
			if prev != canon {
				t.Fatalf("mode fingerprint collision: %x covers different effective modes\n%s\nvs\n%s",
					fps[i].mode, prev, canon)
			}
			continue
		}
		seen[fps[i].mode] = canon
	}
}

// TestFingerprintPrecomputedAgrees pins the two constructions of the
// fingerprint to each other: the hot path reads the mode fingerprint
// from the option's table and extends it to the availability
// fingerprint only for a priced candidate, fingerprintOf computes both
// from scratch, and they must agree on every candidate — spare-less and
// spared, at every warmth — or the caches would split.
func TestFingerprintPrecomputedAgrees(t *testing.T) {
	designs, fps := collectScenarioDesigns(t)
	for i := range designs {
		if got := fingerprintOf(&designs[i]); got != fps[i] {
			t.Fatalf("design %d (%s): precomputed fingerprint %x != from-scratch %x",
				i, designs[i].Label(), fps[i], got)
		}
	}
}

// TestFingerprintOrderIndependent: mechanism order and map iteration
// order must not leak into the fingerprint (the string key sorted
// labels for the same guarantee).
func TestFingerprintOrderIndependent(t *testing.T) {
	s := appTierSolver(t, Options{})
	mech := s.inf.Mechanisms["maintenanceA"]
	checkpoint := s.inf.Mechanisms["checkpoint"]
	base := model.TierDesign{
		TierName:  "application",
		Option:    &s.svc.Tiers[0].Options[0],
		NActive:   4,
		NSpare:    1,
		NMinPerf:  4,
		MinActive: 4,
		Mechanisms: []model.MechSetting{
			{Mechanism: mech, Values: map[string]model.ParamValue{"level": model.EnumValue("gold")}},
			{Mechanism: checkpoint, Values: map[string]model.ParamValue{
				"storage_location":    model.EnumValue("peer"),
				"checkpoint_interval": model.DurationValue(2),
			}},
		},
	}
	swapped := base
	swapped.Mechanisms = []model.MechSetting{base.Mechanisms[1], base.Mechanisms[0]}
	if fingerprintOf(&base) != fingerprintOf(&swapped) {
		t.Error("mechanism order changed the fingerprint")
	}
	for i := 0; i < 50; i++ { // map iteration order varies per run
		if fingerprintOf(&base) != fingerprintOf(&swapped) {
			t.Fatal("fingerprint unstable across map iteration orders")
		}
	}
}

// TestFingerprintSensitive: every fingerprinted dimension must move the
// key — counts, warmth, and MTTR-relevant settings — while
// availability-neutral settings (checkpoint interval) must not.
func TestFingerprintSensitive(t *testing.T) {
	s := appTierSolver(t, Options{})
	mech := s.inf.Mechanisms["maintenanceA"]
	mk := func(n, spare, minActive, warm int, level string) model.TierDesign {
		return model.TierDesign{
			TierName:  "application",
			Option:    &s.svc.Tiers[0].Options[0],
			NActive:   n,
			NSpare:    spare,
			NMinPerf:  n,
			MinActive: minActive,
			SpareWarm: warm,
			Mechanisms: []model.MechSetting{{
				Mechanism: mech,
				Values:    map[string]model.ParamValue{"level": model.EnumValue(level)},
			}},
		}
	}
	base := mk(4, 1, 4, 0, "gold")
	variants := []model.TierDesign{
		mk(5, 1, 4, 0, "gold"),   // nActive
		mk(4, 2, 4, 0, "gold"),   // nSpare
		mk(4, 1, 3, 0, "gold"),   // minActive
		mk(4, 1, 4, 1, "gold"),   // warmth
		mk(4, 1, 4, 0, "bronze"), // relevant setting
	}
	bfp := fingerprintOf(&base)
	for i := range variants {
		if fingerprintOf(&variants[i]).avail == bfp.avail {
			t.Errorf("variant %d did not change the availability fingerprint", i)
		}
	}
}

// TestFingerprintAllocFree is the allocation regression for the
// fingerprint hot path: computing a design's packed fingerprint from
// scratch must not allocate at all (the search paths do strictly less
// work, assembling it from precomputed parts).
func TestFingerprintAllocFree(t *testing.T) {
	s := appTierSolver(t, Options{})
	td := model.TierDesign{
		TierName:  "application",
		Option:    &s.svc.Tiers[0].Options[0],
		NActive:   6,
		NSpare:    1,
		NMinPerf:  6,
		MinActive: 6,
		Mechanisms: []model.MechSetting{{
			Mechanism: s.inf.Mechanisms["maintenanceA"],
			Values:    map[string]model.ParamValue{"level": model.EnumValue("silver")},
		}},
	}
	var sink candFP
	allocs := testing.AllocsPerRun(200, func() {
		sink = fingerprintOf(&td)
	})
	if allocs != 0 {
		t.Errorf("fingerprintOf allocates %.1f objects per run, want 0", allocs)
	}
	_ = sink
}

// TestMemoizedEngineBitIdenticalAcrossScenarios runs the whole scenario
// suite with the memoizing engine (the default) and with a fresh
// memo-less MarkovEngine{} per solve, asserting bit-identical solutions
// — the cache-transparency property at the solver level.
func TestMemoizedEngineBitIdenticalAcrossScenarios(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name  string
		build func(*model.Infrastructure) (*model.Service, error)
		req   model.Requirements
	}
	runs := []run{
		{"apptier", scenarios.ApplicationTier, enterpriseReq(1000, 100)},
		{"ecommerce", scenarios.Ecommerce, enterpriseReq(2000, 60)},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			solve := func(opts Options) *Solution {
				svc, err := r.build(inf)
				if err != nil {
					t.Fatal(err)
				}
				opts.Registry = scenarios.Registry()
				s, err := NewSolver(inf, svc, opts)
				if err != nil {
					t.Fatal(err)
				}
				sol, err := s.Solve(r.req)
				if err != nil {
					t.Fatal(err)
				}
				return sol
			}
			memoized := solve(Options{}) // default: NewMarkovEngine with memo
			plain := solve(Options{Engine: avail.MarkovEngine{}})
			// The memo-activity stats describe the memo itself, so they
			// differ by design; everything else must be bit-identical.
			if memoized.Stats.ModeMemoSolves == 0 {
				t.Error("memoized solve reports no mode-chain solves")
			}
			if plain.Stats.ModeMemoHits != 0 || plain.Stats.ModeMemoSolves != 0 {
				t.Errorf("memo-less solve reports memo activity: %+v", plain.Stats)
			}
			mStats, pStats := memoized.Stats, plain.Stats
			mStats.ModeMemoHits, mStats.ModeMemoSolves = 0, 0
			pStats.ModeMemoHits, pStats.ModeMemoSolves = 0, 0
			if memoized.Design.Label() != plain.Design.Label() ||
				memoized.Cost != plain.Cost ||
				memoized.DowntimeMinutes != plain.DowntimeMinutes ||
				!reflect.DeepEqual(mStats, pStats) {
				t.Errorf("memoized solve diverged from memo-less solve:\n%+v\nvs\n%+v", memoized, plain)
			}
		})
	}
}
