package jobtime

import (
	"math"
	"testing"
	"testing/quick"

	"aved/internal/avail"
	"aved/internal/sim"
	"aved/internal/units"
)

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func TestPFail(t *testing.T) {
	// lw = mtbf: P = 1 - e^{-1}.
	p, err := PFail(10*units.Hour, 10*units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(p, 1-math.Exp(-1), 1e-12) {
		t.Errorf("PFail = %v, want %v", p, 1-math.Exp(-1))
	}
	if _, err := PFail(0, units.Hour); err == nil {
		t.Error("zero loss window should fail")
	}
	if _, err := PFail(units.Hour, 0); err == nil {
		t.Error("zero mtbf should fail")
	}
}

func TestTLwMatchesPaperForm(t *testing.T) {
	// Eq. 1: T_lw = mtbf·P/(1−P) must equal mtbf·(e^{lw/mtbf}−1).
	cases := []struct{ lwH, mtbfH float64 }{
		{1, 100}, {10, 100}, {100, 100}, {200, 100}, {0.01, 1},
	}
	for _, c := range cases {
		lw := units.FromHours(c.lwH)
		mtbf := units.FromHours(c.mtbfH)
		p, err := PFail(lw, mtbf)
		if err != nil {
			t.Fatal(err)
		}
		viaP := c.mtbfH * p / (1 - p)
		got, err := TLw(lw, mtbf)
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(got.Hours(), viaP, 1e-9) {
			t.Errorf("TLw(%v,%v) = %v, via P form %v", c.lwH, c.mtbfH, got.Hours(), viaP)
		}
	}
}

func TestRestartExpansionLimits(t *testing.T) {
	// lw << mtbf: expansion → 1.
	e, err := RestartExpansion(units.FromHours(0.001), units.FromHours(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(e, 1, 1e-5) {
		t.Errorf("tiny window expansion = %v, want ≈ 1", e)
	}
	// lw = mtbf: expansion = e − 1 ≈ 1.718.
	e, err = RestartExpansion(units.Hour, units.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(e, math.E-1, 1e-9) {
		t.Errorf("lw = mtbf expansion = %v, want e−1", e)
	}
}

func TestRestartExpansionMonotoneProperty(t *testing.T) {
	// Expansion grows with the loss window and shrinks with MTBF.
	f := func(a, b uint8) bool {
		lw1 := float64(a%50) + 1
		lw2 := lw1 + float64(b%50) + 1
		mtbf := units.FromHours(40)
		e1, err1 := RestartExpansion(units.FromHours(lw1), mtbf)
		e2, err2 := RestartExpansion(units.FromHours(lw2), mtbf)
		if err1 != nil || err2 != nil {
			return false
		}
		return e2 > e1 && e1 >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRestartExpansionMatchesSimulation(t *testing.T) {
	// Monte-Carlo cross-check of Eq. 1 via the restart-law simulator.
	mtbf, lw := 80.0, 30.0
	want, err := TLw(units.FromHours(lw), units.FromHours(mtbf))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.SimulateRestart(23, mtbf, lw, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(got, want.Hours(), 0.02) {
		t.Errorf("simulated T_lw = %v, Eq. 1 = %v", got, want.Hours())
	}
}

func TestSystemMTBF(t *testing.T) {
	modes := []avail.Mode{
		{Name: "hw", MTBF: units.FromHours(1000)},
		{Name: "sw", MTBF: units.FromHours(500)},
	}
	// Rate per resource = 1/1000 + 1/500 = 0.003; 10 resources → 0.03.
	got, err := SystemMTBF(modes, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(got.Hours(), 1/0.03, 1e-9) {
		t.Errorf("SystemMTBF = %v h, want %v", got.Hours(), 1/0.03)
	}
	if _, err := SystemMTBF(modes, 0); err == nil {
		t.Error("zero resources should fail")
	}
	if _, err := SystemMTBF(nil, 1); err == nil {
		t.Error("no modes should fail")
	}
}

func TestExpectedComposition(t *testing.T) {
	// 10000 units at 100 units/hour = 100 h of compute; overhead 1.25 →
	// 125 h; negligible failures and full availability keep it there.
	p := Params{
		JobSize:        10000,
		PerfPerHour:    100,
		OverheadFactor: 1.25,
		LossWindow:     units.FromHours(1),
		SystemMTBF:     units.FromHours(1e6),
		Availability:   1,
	}
	got, err := Expected(p)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(got.Hours(), 125, 1e-6) {
		t.Errorf("Expected = %v h, want 125", got.Hours())
	}
	// Halving availability doubles wall time.
	p.Availability = 0.5
	got, err = Expected(p)
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(got.Hours(), 250, 1e-6) {
		t.Errorf("Expected at A=0.5 = %v h, want 250", got.Hours())
	}
}

func TestExpectedNoCheckpointing(t *testing.T) {
	// Without a loss window the whole job restarts on failure: with
	// compute = mtbf the expansion is e−1.
	p := Params{
		JobSize:        100,
		PerfPerHour:    1,
		OverheadFactor: 1,
		SystemMTBF:     units.FromHours(100),
		Availability:   1,
	}
	got, err := Expected(p)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * (math.E - 1)
	if !relClose(got.Hours(), want, 1e-9) {
		t.Errorf("Expected = %v h, want %v", got.Hours(), want)
	}
}

func TestExpectedCheckpointingBeatsNone(t *testing.T) {
	// With failures every ~50 compute hours, checkpointing each hour
	// must beat losing the whole 100-hour job.
	base := Params{
		JobSize:        100,
		PerfPerHour:    1,
		OverheadFactor: 1,
		SystemMTBF:     units.FromHours(50),
		Availability:   1,
	}
	withCkpt := base
	withCkpt.LossWindow = units.FromHours(1)
	withCkpt.OverheadFactor = 1.1 // checkpointing is not free
	t0, err := Expected(base)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Expected(withCkpt)
	if err != nil {
		t.Fatal(err)
	}
	if t1 >= t0 {
		t.Errorf("checkpointed job (%v) should beat unprotected job (%v)", t1, t0)
	}
}

func TestExpectedOptimalIntervalInterior(t *testing.T) {
	// The §5.2 shape: with overhead K/cpi and loss ∝ cpi, the best
	// checkpoint interval is interior, not an endpoint.
	mtbf := units.FromHours(20)
	eval := func(cpiHours float64) float64 {
		p := Params{
			JobSize:        1000,
			PerfPerHour:    10,
			OverheadFactor: math.Max((10.0/60)/cpiHours, 1), // 10-minute-equivalent overhead hinge
			LossWindow:     units.FromHours(cpiHours),
			SystemMTBF:     mtbf,
			Availability:   1,
		}
		d, err := Expected(p)
		if err != nil {
			t.Fatal(err)
		}
		return d.Hours()
	}
	short := eval(0.02) // ~1 minute: overhead dominates
	long := eval(24)    // a day: loss dominates
	mid := eval(0.5)    // 30 minutes
	if mid >= short || mid >= long {
		t.Errorf("interior interval (%.1f) should beat endpoints (%.1f, %.1f)", mid, short, long)
	}
}

func TestExpectedValidation(t *testing.T) {
	good := Params{
		JobSize:        1,
		PerfPerHour:    1,
		OverheadFactor: 1,
		LossWindow:     units.Hour,
		SystemMTBF:     units.Hour,
		Availability:   1,
	}
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero job", func(p *Params) { p.JobSize = 0 }},
		{"zero perf", func(p *Params) { p.PerfPerHour = 0 }},
		{"overhead below one", func(p *Params) { p.OverheadFactor = 0.5 }},
		{"zero availability", func(p *Params) { p.Availability = 0 }},
		{"availability above one", func(p *Params) { p.Availability = 1.5 }},
		{"zero mtbf", func(p *Params) { p.SystemMTBF = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := good
			tc.mutate(&p)
			if _, err := Expected(p); err == nil {
				t.Error("want error")
			}
		})
	}
	if _, err := Expected(good); err != nil {
		t.Errorf("valid params failed: %v", err)
	}
}

// oneExpression is Expected before its split into Product and Wall:
// Eq. 1 in one expression, (compute·expansion)/availability, clamped.
// It is the reference the split must match bit for bit.
func oneExpression(p Params) (float64, bool) {
	computeHours := p.JobSize / p.PerfPerHour * p.OverheadFactor
	lwHours := p.LossWindow.Hours()
	if lwHours <= 0 {
		lwHours = computeHours
	}
	x := lwHours / p.SystemMTBF.Hours()
	expansion := math.Inf(1)
	if x <= 500 {
		expansion = math.Expm1(x) / x
	}
	wall := computeHours * expansion / p.Availability
	if wall > MaxExpected.Hours() {
		return MaxExpected.Hours(), true
	}
	return wall, false
}

// TestSplitComposesToExpected: Wall(Product(p)) is Expected on its edge
// cases, bit for bit, and both equal the one-expression form.
func TestSplitComposesToExpected(t *testing.T) {
	base := Params{
		JobSize:        5e4,
		PerfPerHour:    820,
		OverheadFactor: 1.07,
		LossWindow:     units.FromHours(1.5),
		SystemMTBF:     units.FromHours(310),
		Availability:   0.9991,
	}
	cases := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
		clamped bool
	}{
		{"checkpointed", func(*Params) {}, false, false},
		{"loss window 0", func(p *Params) { p.LossWindow = 0 }, false, false},
		{"loss window 0, failures dominate", func(p *Params) {
			p.LossWindow, p.SystemMTBF = 0, units.FromHours(20)
		}, false, false},
		{"x above 500", func(p *Params) { p.LossWindow = units.FromHours(600 * 310) }, false, true},
		{"x at 500", func(p *Params) { p.LossWindow = units.FromHours(500 * 310) }, false, true},
		{"availability 1", func(p *Params) { p.Availability = 1 }, false, false},
		{"availability 0", func(p *Params) { p.Availability = 0 }, true, false},
		{"availability negative", func(p *Params) { p.Availability = -0.2 }, true, false},
		{"clamp from a finite product", func(p *Params) { p.JobSize = 1e12 }, false, true},
		{"clamp from low availability", func(p *Params) { p.JobSize, p.Availability = 1e8, 1e-3 }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			want, err := Expected(p)
			product, perr := Product(p)
			var got units.Duration
			if perr == nil {
				got, perr = Wall(product, p.Availability)
			}
			if (err != nil) != tc.wantErr || (perr != nil) != tc.wantErr {
				t.Fatalf("Expected err %v, split err %v; want error %v", err, perr, tc.wantErr)
			}
			if tc.wantErr {
				return
			}
			if got != want {
				t.Errorf("Wall(Product) = %v, Expected = %v", got, want)
			}
			ref, clamped := oneExpression(p)
			if want != units.FromHours(ref) || clamped != tc.clamped {
				t.Errorf("Expected = %v (clamp %v), one expression %v h (clamp %v)",
					want, want == MaxExpected, ref, clamped)
			}
		})
	}
}

// TestWallMonotoneProperty states the order a search over Eq. 1 relies
// on: at a fixed availability the job time never decreases as the
// availability-free product grows, and at a fixed product it never
// increases as availability grows. Rounded division keeps both orders,
// though not strictly, and so does the MaxExpected clamp.
func TestWallMonotoneProperty(t *testing.T) {
	// hours spans 2^-32 h to 2^39 h, past MaxExpected; availability spans (0, 1].
	hours := func(u uint32) float64 { return math.Ldexp(float64(u&0xffff)+1, int(u>>16)%56-32) }
	availability := func(u uint32) float64 { return (float64(u) + 1) / (1 << 32) }
	wall := func(product, a float64) units.Duration {
		d, err := Wall(product, a)
		if err != nil {
			t.Fatalf("Wall(%v, %v): %v", product, a, err)
		}
		return d
	}
	byProduct := func(u, v, w uint32) bool {
		p1, p2, a := hours(u), hours(v), availability(w)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return wall(p1, a) <= wall(p2, a)
	}
	byAvailability := func(u, v, w uint32) bool {
		a1, a2, p := availability(u), availability(v), hours(w)
		if a1 > a2 {
			a1, a2 = a2, a1
		}
		return wall(p, a1) >= wall(p, a2)
	}
	cfg := &quick.Config{MaxCount: 20000}
	if err := quick.Check(byProduct, cfg); err != nil {
		t.Errorf("job time decreased as the product grew: %v", err)
	}
	if err := quick.Check(byAvailability, cfg); err != nil {
		t.Errorf("job time increased as availability grew: %v", err)
	}
	// Neighbouring floats: the order holds one ulp apart too.
	for _, p := range []float64{1e-3, 1, 19.3, 1e6 * 0.999, 1e6} {
		for _, a := range []float64{1e-9, 0.5, 0.9991, 1} {
			if wall(p, a) > wall(math.Nextafter(p, math.Inf(1)), a) {
				t.Errorf("Wall(%v, %v) > Wall(next product)", p, a)
			}
			if a < 1 && wall(p, a) < wall(p, math.Nextafter(a, 1)) {
				t.Errorf("Wall(%v, %v) < Wall(next availability)", p, a)
			}
		}
	}
}
