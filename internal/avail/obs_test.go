package avail

import (
	"testing"

	"aved/internal/obs"
	"aved/internal/units"
)

func obsTierModel() TierModel {
	return TierModel{
		Name: "app",
		N:    3,
		M:    2,
		S:    1,
		Modes: []Mode{{
			Name:         "hw/fail",
			MTBF:         90 * units.Day,
			Repair:       8 * units.Hour,
			Failover:     5 * units.Minute,
			UsesFailover: true,
		}},
	}
}

// TestMarkovInstrumentObs: an instrumented engine surfaces its memo
// counters through the registry and emits one memo event per mode
// evaluation — a solve on the cold memo, a hit on the warm one.
func TestMarkovInstrumentObs(t *testing.T) {
	e := NewMarkovEngine()
	reg := obs.NewRegistry()
	var tr obs.CollectTracer
	e.InstrumentObs(reg, &tr)
	tm := obsTierModel()
	if _, err := e.Evaluate([]TierModel{tm}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Evaluate([]TierModel{tm}); err != nil {
		t.Fatal(err)
	}
	var solves, hits int
	for _, ev := range tr.Events() {
		switch ev.Ev {
		case obs.EvMemoSolve:
			solves++
		case obs.EvMemoHit:
			hits++
		default:
			t.Errorf("unexpected event %q from the engine", ev.Ev)
		}
	}
	if solves != 1 || hits != 1 {
		t.Errorf("memo events: %d solves, %d hits; want 1 and 1", solves, hits)
	}
	mh, ms := e.MemoStats()
	snap := reg.Snapshot()
	if snap.Counters["avail.memo.hits"] != int64(mh) || snap.Counters["avail.memo.solves"] != int64(ms) {
		t.Errorf("registry counters %v disagree with MemoStats (%d, %d)", snap.Counters, mh, ms)
	}
}

// TestMarkovInstrumentObsMemoless: instrumenting the zero-value engine
// is a harmless no-op — nothing to count, nothing to emit.
func TestMarkovInstrumentObsMemoless(t *testing.T) {
	var e MarkovEngine
	var tr obs.CollectTracer
	e.InstrumentObs(obs.NewRegistry(), &tr)
	if _, err := e.Evaluate([]TierModel{obsTierModel()}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("memo-less engine emitted %d events", tr.Len())
	}
}

// TestMarkovResultsUnchangedByInstrumentation pins engine transparency:
// instrumentation must not perturb the numbers.
func TestMarkovResultsUnchangedByInstrumentation(t *testing.T) {
	tm := obsTierModel()
	plain := NewMarkovEngine()
	base, err := plain.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	traced := NewMarkovEngine()
	var tr obs.CollectTracer
	traced.InstrumentObs(obs.NewRegistry(), &tr)
	got, err := traced.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	if base.DowntimeMinutes != got.DowntimeMinutes || base.Availability != got.Availability {
		t.Errorf("instrumented result diverged: %v vs %v", got, base)
	}
}

// TestMarkovInstrumentObsSharedRegistry: engines sharing one registry
// add up — each counts into the registry's own counters — and
// re-instrumenting an engine with the same registry counts its work
// once.
func TestMarkovInstrumentObsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := NewMarkovEngine(), NewMarkovEngine()
	a.InstrumentObs(reg, nil)
	a.InstrumentObs(reg, nil)
	b.InstrumentObs(reg, nil)
	tm := obsTierModel()
	for _, e := range []MarkovEngine{a, a, b, b, b} {
		if _, err := e.Evaluate([]TierModel{tm}); err != nil {
			t.Fatal(err)
		}
	}
	ah, as := a.MemoStats()
	bh, bs := b.MemoStats()
	snap := reg.Snapshot()
	if got, want := snap.Counters["avail.memo.hits"], int64(ah+bh); got != want || want != 3 {
		t.Errorf("avail.memo.hits = %d, want %d (engines %d + %d)", got, want, ah, bh)
	}
	if got, want := snap.Counters["avail.memo.solves"], int64(as+bs); got != want || want != 2 {
		t.Errorf("avail.memo.solves = %d, want %d (engines %d + %d)", got, want, as, bs)
	}
}
