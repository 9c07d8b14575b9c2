package avail

import (
	"math"
	"strings"
	"testing"

	"aved/internal/units"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// relClose reports whether a and b agree within rel relative tolerance.
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func singleMode(n, m, s int, mtbf, repair, failover units.Duration, usesFO bool) TierModel {
	return TierModel{
		Name: "t",
		N:    n,
		M:    m,
		S:    s,
		Modes: []Mode{{
			Name:         "hw/hard",
			MTBF:         mtbf,
			Repair:       repair,
			Failover:     failover,
			UsesFailover: usesFO,
		}},
	}
}

func TestSingleResourceNoRedundancy(t *testing.T) {
	// One resource, no spares: availability = mtbf/(mtbf+repair) for a
	// two-state chain.
	mtbf := 650 * units.Day
	repair := 38 * units.Hour
	tm := singleMode(1, 1, 0, mtbf, repair, 0, false)
	res, err := MarkovEngine{}.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	lambda := 1 / mtbf.Hours()
	mu := 1 / repair.Hours()
	wantAvail := mu / (lambda + mu)
	if !almostEqual(res.Availability, wantAvail, 1e-12) {
		t.Errorf("availability = %v, want %v", res.Availability, wantAvail)
	}
	wantDown := (1 - wantAvail) * MinutesPerYear
	if !relClose(res.DowntimeMinutes, wantDown, 1e-9) {
		t.Errorf("downtime = %v, want %v", res.DowntimeMinutes, wantDown)
	}
	// First-order check: downtime ≈ failures/year × repair minutes.
	approx := (8760 / mtbf.Hours()) * repair.Minutes()
	if !relClose(res.DowntimeMinutes, approx, 0.01) {
		t.Errorf("downtime = %v, first-order estimate %v", res.DowntimeMinutes, approx)
	}
}

func TestNoRedundancyScalesWithN(t *testing.T) {
	// With m = n and no spares, downtime grows roughly linearly in n —
	// the "downtime increases with load" shape of Fig. 6.
	mtbf := 60 * units.Day
	repair := 4 * units.Minute
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		tm := singleMode(n, n, 0, mtbf, repair, 0, false)
		res, err := MarkovEngine{}.Evaluate([]TierModel{tm})
		if err != nil {
			t.Fatal(err)
		}
		if res.DowntimeMinutes <= prev {
			t.Errorf("downtime at n=%d (%v) did not grow beyond %v", n, res.DowntimeMinutes, prev)
		}
		// First-order: n × events/yr × repair.
		approx := float64(n) * (8760 / mtbf.Hours()) * repair.Minutes()
		if !relClose(res.DowntimeMinutes, approx, 0.02) {
			t.Errorf("n=%d: downtime %v, first-order %v", n, res.DowntimeMinutes, approx)
		}
		prev = res.DowntimeMinutes
	}
}

func TestHeadroomCutsDowntime(t *testing.T) {
	// One extra active machine turns first-order downtime into a
	// second-order overlap probability: orders of magnitude less.
	mtbf := 650 * units.Day
	repair := 38 * units.Hour
	noExtra := singleMode(2, 2, 0, mtbf, repair, 0, false)
	extra := singleMode(3, 2, 0, mtbf, repair, 0, false)
	r0, err := MarkovEngine{}.Evaluate([]TierModel{noExtra})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := MarkovEngine{}.Evaluate([]TierModel{extra})
	if err != nil {
		t.Fatal(err)
	}
	if r1.DowntimeMinutes >= r0.DowntimeMinutes/50 {
		t.Errorf("extra active machine: downtime %v vs %v — want ≥50x reduction",
			r1.DowntimeMinutes, r0.DowntimeMinutes)
	}
}

func TestSpareFailoverDowntime(t *testing.T) {
	// With an inactive spare absorbing hard failures, downtime should be
	// dominated by failover transients: events/yr × failover length.
	mtbf := 650 * units.Day
	repair := 38 * units.Hour
	failover := units.Duration(6*units.Minute + 30*units.Second)
	tm := singleMode(2, 2, 1, mtbf, repair, failover, true)
	res, err := MarkovEngine{}.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	eventsPerYear := 2 * 8760 / mtbf.Hours()
	approx := eventsPerYear * failover.Minutes()
	// Steady-state overlap adds a little on top of the transient term.
	if res.DowntimeMinutes < approx {
		t.Errorf("downtime %v below transient floor %v", res.DowntimeMinutes, approx)
	}
	if res.DowntimeMinutes > approx*2 {
		t.Errorf("downtime %v far above transient estimate %v", res.DowntimeMinutes, approx)
	}
	// And it must beat repair-in-place by a wide margin.
	noSpare := singleMode(2, 2, 0, mtbf, repair, 0, false)
	r0, err := MarkovEngine{}.Evaluate([]TierModel{noSpare})
	if err != nil {
		t.Fatal(err)
	}
	if res.DowntimeMinutes >= r0.DowntimeMinutes/10 {
		t.Errorf("spare should cut downtime ≥10x: %v vs %v", res.DowntimeMinutes, r0.DowntimeMinutes)
	}
}

func TestSpareWithoutFailoverIsInert(t *testing.T) {
	// A mode whose repair beats failover ignores spares entirely.
	mtbf := 60 * units.Day
	repair := 4 * units.Minute
	withSpare := singleMode(2, 2, 1, mtbf, repair, 6*units.Minute, false)
	without := singleMode(2, 2, 0, mtbf, repair, 0, false)
	r1, err := MarkovEngine{}.Evaluate([]TierModel{withSpare})
	if err != nil {
		t.Fatal(err)
	}
	r0, err := MarkovEngine{}.Evaluate([]TierModel{without})
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(r1.DowntimeMinutes, r0.DowntimeMinutes, 1e-12) {
		t.Errorf("inert spare changed downtime: %v vs %v", r1.DowntimeMinutes, r0.DowntimeMinutes)
	}
}

func TestActiveSparesFailToo(t *testing.T) {
	// Warm spares have shorter activation but are powered and
	// failure-prone, so the failure event rate rises.
	mtbf := 100 * units.Day
	repair := 10 * units.Hour
	inactive := singleMode(2, 2, 1, mtbf, repair, 5*units.Minute, true)
	active := inactive
	active.Modes = append([]Mode(nil), inactive.Modes...)
	active.Modes[0].SparePowered = true
	ri, err := MarkovEngine{}.Evaluate([]TierModel{inactive})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := MarkovEngine{}.Evaluate([]TierModel{active})
	if err != nil {
		t.Fatal(err)
	}
	ei := ri.Tiers[0].Contributions[0].EventsPerYear
	ea := ra.Tiers[0].Contributions[0].EventsPerYear
	if ea <= ei {
		t.Errorf("active spares should raise the event rate: %v vs %v", ea, ei)
	}
}

func TestSeriesComposition(t *testing.T) {
	// Two identical single-resource tiers in series: availability is the
	// square of one tier's.
	mtbf := 60 * units.Day
	repair := 2 * units.Hour
	tm := singleMode(1, 1, 0, mtbf, repair, 0, false)
	one, err := MarkovEngine{}.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	two, err := MarkovEngine{}.Evaluate([]TierModel{tm, tm})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(two.Availability, one.Availability*one.Availability, 1e-12) {
		t.Errorf("series availability = %v, want %v", two.Availability, one.Availability*one.Availability)
	}
	if len(two.Tiers) != 2 {
		t.Errorf("tier results = %d, want 2", len(two.Tiers))
	}
}

func TestMultiModeComposition(t *testing.T) {
	// Two modes on one tier: availabilities multiply (independence).
	m1 := Mode{Name: "a", MTBF: 100 * units.Day, Repair: 1 * units.Hour}
	m2 := Mode{Name: "b", MTBF: 50 * units.Day, Repair: 30 * units.Minute}
	tm := TierModel{Name: "t", N: 1, M: 1, Modes: []Mode{m1, m2}}
	res, err := MarkovEngine{}.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	a1 := availOf(t, m1)
	a2 := availOf(t, m2)
	if !almostEqual(res.Availability, a1*a2, 1e-12) {
		t.Errorf("multi-mode availability = %v, want %v", res.Availability, a1*a2)
	}
	if len(res.Tiers[0].Contributions) != 2 {
		t.Errorf("contributions = %d, want 2", len(res.Tiers[0].Contributions))
	}
}

func availOf(t *testing.T, m Mode) float64 {
	t.Helper()
	res, err := MarkovEngine{}.Evaluate([]TierModel{{Name: "x", N: 1, M: 1, Modes: []Mode{m}}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Availability
}

func TestZeroRepairModeIsHarmless(t *testing.T) {
	tm := TierModel{Name: "t", N: 1, M: 1, Modes: []Mode{{Name: "glitch", MTBF: 10 * units.Day}}}
	res, err := MarkovEngine{}.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability != 1 {
		t.Errorf("zero-repair mode availability = %v, want 1", res.Availability)
	}
	if got := res.Tiers[0].Contributions[0].EventsPerYear; !relClose(got, 8760/(10*24.0), 1e-9) {
		t.Errorf("events/yr = %v, want %v", got, 8760/(10*24.0))
	}
}

func TestValidation(t *testing.T) {
	base := singleMode(1, 1, 0, 10*units.Day, units.Hour, 0, false)
	cases := []struct {
		name   string
		mutate func(*TierModel)
	}{
		{"zero actives", func(tm *TierModel) { tm.N = 0 }},
		{"m above n", func(tm *TierModel) { tm.M = 2 }},
		{"m zero", func(tm *TierModel) { tm.M = 0 }},
		{"negative spares", func(tm *TierModel) { tm.S = -1 }},
		{"no modes", func(tm *TierModel) { tm.Modes = nil }},
		{"zero mtbf", func(tm *TierModel) { tm.Modes[0].MTBF = 0 }},
		{"negative repair", func(tm *TierModel) { tm.Modes[0].Repair = -units.Hour }},
		// 2^32 + 1 actives: the memo key's int32 count would wrap to 1.
		{"actives beyond int32", func(tm *TierModel) { tm.N = math.MaxInt32; tm.N = 2*tm.N + 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tm := base
			tm.Modes = append([]Mode(nil), base.Modes...)
			tc.mutate(&tm)
			if _, err := (MarkovEngine{}).Evaluate([]TierModel{tm}); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if _, err := (MarkovEngine{}).Evaluate(nil); err == nil {
		t.Error("empty evaluation should fail")
	}
}

func TestContributionAccounting(t *testing.T) {
	tm := singleMode(2, 2, 1, 650*units.Day, 38*units.Hour, 5*units.Minute, true)
	res, err := MarkovEngine{}.Evaluate([]TierModel{tm})
	if err != nil {
		t.Fatal(err)
	}
	mc := res.Tiers[0].Contributions[0]
	if mc.TransientMinutes <= 0 {
		t.Error("failover mode should accumulate transient downtime")
	}
	if mc.SteadyMinutes <= 0 {
		t.Error("overlapping repairs should accumulate steady downtime")
	}
	if !strings.Contains(mc.Name, "hard") {
		t.Errorf("contribution name = %q", mc.Name)
	}
	if !relClose(mc.Minutes(), mc.SteadyMinutes+mc.TransientMinutes, 1e-12) {
		t.Error("Minutes() should sum components")
	}
	// Per-tier downtime tracks contributions to first order (product vs
	// sum differences are second-order here).
	sum := 0.0
	for _, c := range res.Tiers[0].Contributions {
		sum += c.Minutes()
	}
	if !relClose(res.Tiers[0].DowntimeMinutes, sum, 0.01) {
		t.Errorf("tier downtime %v vs contribution sum %v", res.Tiers[0].DowntimeMinutes, sum)
	}
}
