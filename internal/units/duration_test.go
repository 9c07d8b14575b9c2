package units

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestParseDuration(t *testing.T) {
	tests := []struct {
		give string
		want Duration
	}{
		{"0", 0},
		{"30s", 30 * Second},
		{"2m", 2 * Minute},
		{"38h", 38 * Hour},
		{"650d", 650 * Day},
		{"1.5h", Duration(90 * time.Minute)},
		{"  2m ", 2 * Minute},
		{"0.5d", 12 * Hour},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := ParseDuration(tt.give)
			if err != nil {
				t.Fatalf("ParseDuration(%q) error: %v", tt.give, err)
			}
			if got != tt.want {
				t.Errorf("ParseDuration(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestParseDurationErrors(t *testing.T) {
	for _, give := range []string{"", "5", "5x", "abc", "-2m", "m", "2mm", "NaNh", "Infd", "1e300d"} {
		t.Run(give, func(t *testing.T) {
			if _, err := ParseDuration(give); err == nil {
				t.Errorf("ParseDuration(%q) succeeded, want error", give)
			}
		})
	}
}

// TestIsDurationAgrees pins IsDuration to ParseDuration, and checks
// that it allocates nothing on durations, on words such as enumerated
// range items, and on text with an unknown unit.
func TestIsDurationAgrees(t *testing.T) {
	for _, give := range []string{"0", "1.5h", "gold", "10x", "-1m", "", "platinum", "central", "+2m", "Infd", "NaNh", "nonem", "1e3s", "2mm", "1.2.3h", "1e400s"} {
		_, err := ParseDuration(give)
		if got, want := IsDuration(give), err == nil; got != want {
			t.Errorf("IsDuration(%q) = %v, ParseDuration error %v", give, got, err)
		}
	}
	for _, give := range []string{"0", "1.5h", "gold", "10x", "-1m", "", "platinum", "central", "nonem"} {
		if n := testing.AllocsPerRun(10, func() { IsDuration(give) }); n != 0 {
			t.Errorf("IsDuration(%q) allocates %.0f objects, want 0", give, n)
		}
	}
}

func TestDurationString(t *testing.T) {
	tests := []struct {
		give Duration
		want string
	}{
		{0, "0"},
		{30 * Second, "30s"},
		{2 * Minute, "2m"},
		{38 * Hour, "38h"},
		{650 * Day, "650d"},
		{90 * Minute, "90m"},
		{Duration(500 * time.Millisecond), "0.5s"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Duration(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	// Parsing the printed form must return nearly the same duration:
	// the display format keeps three decimals of the chosen unit, so
	// the round-trip is accurate to ~5e-4 of one unit (1e-4 relative
	// covers the worst placement).
	f := func(secs uint32) bool {
		d := Duration(secs) * Second
		back, err := ParseDuration(d.String())
		if err != nil {
			return false
		}
		return math.Abs(back.Seconds()-d.Seconds()) < 1e-4*math.Max(1, d.Seconds())
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(7)), MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// And exactly for values the spec files actually use.
	for _, s := range []string{"30s", "2m", "38h", "650d", "90m", "204d"} {
		d := MustDuration(s)
		back, err := ParseDuration(d.String())
		if err != nil || back != d {
			t.Errorf("%s: round trip gave %v (%v)", s, back, err)
		}
	}
}

// TestDurationSpecExact pins that Spec reads back to exactly the
// duration ParseDuration produced, for magnitudes String rounds to three
// decimals and across every unit, while keeping String's form where
// that is already exact.
func TestDurationSpecExact(t *testing.T) {
	for _, s := range []string{"30s", "2m", "38h", "650d", "90m"} {
		if got := MustDuration(s).Spec(); got != MustDuration(s).String() {
			t.Errorf("%s: Spec %q differs from String %q", s, got, MustDuration(s).String())
		}
	}
	r := rand.New(rand.NewSource(7))
	sfx := []string{"s", "m", "h", "d"}
	for i := 0; i < 20000; i++ {
		mag := r.Float64() * math.Pow(10, float64(r.Intn(12)-4))
		s := strconv.FormatFloat(mag, 'g', -1, 64) + sfx[r.Intn(len(sfx))]
		d, err := ParseDuration(s)
		if err != nil {
			continue // beyond the int64 nanosecond range
		}
		back, err := ParseDuration(d.Spec())
		if err != nil || back != d {
			t.Fatalf("%s: Spec %q read back as %d (%v), want %d", s, d.Spec(), back, err, d)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	d := 36 * Hour
	if got := d.Hours(); got != 36 {
		t.Errorf("Hours() = %v, want 36", got)
	}
	if got := d.Days(); got != 1.5 {
		t.Errorf("Days() = %v, want 1.5", got)
	}
	if got := d.Minutes(); got != 36*60 {
		t.Errorf("Minutes() = %v, want %v", got, 36*60)
	}
	if got := Year.Hours(); got != 8760 {
		t.Errorf("Year.Hours() = %v, want 8760", got)
	}
	if got := FromHours(2.5); got != Duration(150*time.Minute) {
		t.Errorf("FromHours(2.5) = %v", got)
	}
	if got := FromDays(2); got != 48*Hour {
		t.Errorf("FromDays(2) = %v", got)
	}
	if got := FromSeconds(90); got != Duration(90*time.Second) {
		t.Errorf("FromSeconds(90) = %v", got)
	}
}

func TestRatePerHour(t *testing.T) {
	r := RatePerHour(650 * Day)
	wantPerYear := 8760.0 / (650 * 24)
	if math.Abs(r.PerYear()-wantPerYear) > 1e-9 {
		t.Errorf("RatePerHour(650d).PerYear() = %v, want %v", r.PerYear(), wantPerYear)
	}
	if RatePerHour(0) != 0 {
		t.Error("RatePerHour(0) should be 0")
	}
}

func TestMustDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDuration on invalid input did not panic")
		}
	}()
	MustDuration("not-a-duration")
}
