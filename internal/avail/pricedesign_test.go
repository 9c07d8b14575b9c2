package avail_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"aved/internal/avail"
	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/scenarios"
	"aved/internal/units"
)

// winnerModels returns the tier models of solved designs: the Fig 4
// e-commerce service (three tiers) across a few requirement points,
// and the winners of a small seeded corpus of all four families.
func winnerModels(t *testing.T) [][]avail.TierModel {
	t.Helper()
	var out [][]avail.TierModel
	add := func(sol *core.Solution, err error) {
		t.Helper()
		var inf *core.InfeasibleError
		if errors.As(err, &inf) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		tms, err := avail.BuildModels(&sol.Design)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tms)
	}
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Ecommerce(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{Registry: scenarios.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{400, 2000, 3200} {
		for _, minutes := range []float64{5, 60, 1000} {
			add(s.Solve(model.Requirements{Kind: model.ReqEnterprise, Throughput: load,
				MaxAnnualDowntime: units.Duration(minutes * float64(units.Minute))}))
		}
	}
	corpus, err := scenarios.GenCorpus(scenarios.CorpusConfig{Seed: 1, PerFamily: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range corpus {
		s, err := core.NewSolver(sc.Inf, sc.Svc, core.Options{Registry: sc.Registry})
		if err != nil {
			t.Fatal(err)
		}
		add(s.Solve(sc.Req))
	}
	multi := 0
	for _, tms := range out {
		if len(tms) > 1 {
			multi++
		}
	}
	if multi < 3 {
		t.Fatalf("only %d of %d winners are multi-tier", multi, len(out))
	}
	t.Logf("%d solved designs, %d multi-tier", len(out), multi)
	return out
}

// instrumented is a memo-carrying engine with its own trace sink.
type instrumented struct {
	e  avail.MarkovEngine
	tr *obs.CollectTracer
}

func newInstrumented() instrumented {
	in := instrumented{e: avail.NewMarkovEngine(), tr: &obs.CollectTracer{}}
	in.e.InstrumentObs(nil, in.tr)
	return in
}

// TestPriceDesignMatchesEvaluate pins the lean whole-design price:
// with and without a memo, on solved designs, PriceDesign equals
// Evaluate's DowntimeMinutes bit for bit, and two engines fed the same
// calls, one through each entry point, end with equal memo counters
// and equal memo trace events — on the cold pass and the warm one. A
// bad model fails both with the same error text and the same memo
// work done before the fault.
func TestPriceDesignMatchesEvaluate(t *testing.T) {
	designs := winnerModels(t)
	ev, pd := newInstrumented(), newInstrumented()
	for pass := 0; pass < 2; pass++ {
		for i, tms := range designs {
			res, err := ev.e.Evaluate(tms)
			if err != nil {
				t.Fatalf("pass %d design %d: Evaluate: %v", pass, i, err)
			}
			down, err := pd.e.PriceDesign(tms)
			if err != nil {
				t.Fatalf("pass %d design %d: PriceDesign: %v", pass, i, err)
			}
			if math.Float64bits(down) != math.Float64bits(res.DowntimeMinutes) {
				t.Fatalf("pass %d design %d: PriceDesign %v != Evaluate %v", pass, i, down, res.DowntimeMinutes)
			}
			zero, err := avail.MarkovEngine{}.PriceDesign(tms)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(zero) != math.Float64bits(res.DowntimeMinutes) {
				t.Fatalf("pass %d design %d: memo-less PriceDesign %v != Evaluate %v", pass, i, zero, res.DowntimeMinutes)
			}
		}
		eh, es := ev.e.MemoStats()
		ph, ps := pd.e.MemoStats()
		if eh != ph || es != ps {
			t.Fatalf("pass %d: memo counters Evaluate %d/%d, PriceDesign %d/%d", pass, eh, es, ph, ps)
		}
		if pass == 1 && es == 0 {
			t.Fatal("memo never solved a chain")
		}
	}
	if !reflect.DeepEqual(ev.tr.Events(), pd.tr.Events()) {
		t.Fatalf("memo events differ: Evaluate %d, PriceDesign %d", ev.tr.Len(), pd.tr.Len())
	}

	// Faults: an empty design, and a valid tier followed by an invalid
	// one, which both entry points price up to the fault.
	good := designs[0][0]
	good.Modes = append([]avail.Mode{{Name: "fresh", MTBF: 12345 * units.Hour, Repair: 7 * units.Hour}}, good.Modes...)
	badM := good
	badM.Name, badM.M = "bad", good.N+1
	badMode := good
	badMode.Name = "badmode"
	badMode.Modes = []avail.Mode{{Name: "zero-mtbf", Repair: units.Hour}}
	for _, tms := range [][]avail.TierModel{nil, {good, badM}, {good, badMode}} {
		_, eerr := ev.e.Evaluate(tms)
		_, perr := pd.e.PriceDesign(tms)
		if eerr == nil || perr == nil || eerr.Error() != perr.Error() {
			t.Fatalf("bad model: Evaluate error %v, PriceDesign error %v", eerr, perr)
		}
	}
	eh, es := ev.e.MemoStats()
	ph, ps := pd.e.MemoStats()
	if eh != ph || es != ps {
		t.Fatalf("after faults: memo counters Evaluate %d/%d, PriceDesign %d/%d", eh, es, ph, ps)
	}
	if !reflect.DeepEqual(ev.tr.Events(), pd.tr.Events()) {
		t.Fatal("memo events differ after faults")
	}
}
