package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseIntGrid(t *testing.T) {
	tests := []struct {
		give     string
		wantLo   float64
		wantHi   float64
		wantLen  int
		wantGeom bool
	}{
		{"[1]", 1, 1, 1, false},
		{"[1-10,+1]", 1, 10, 10, false},
		{"[1-1000,+1]", 1, 1000, 1000, false},
		{"[2-16,*2]", 2, 16, 4, true},
		{"[1-9,+2]", 1, 9, 5, false},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			g, err := ParseIntGrid(tt.give)
			if err != nil {
				t.Fatalf("ParseIntGrid(%q) error: %v", tt.give, err)
			}
			if g.Lo() != tt.wantLo || g.Hi() != tt.wantHi {
				t.Errorf("bounds = [%v,%v], want [%v,%v]", g.Lo(), g.Hi(), tt.wantLo, tt.wantHi)
			}
			if got := g.Len(); got != tt.wantLen {
				t.Errorf("Len() = %d, want %d", got, tt.wantLen)
			}
			if g.Geometric() != tt.wantGeom {
				t.Errorf("Geometric() = %v, want %v", g.Geometric(), tt.wantGeom)
			}
		})
	}
}

func TestParseIntGridErrors(t *testing.T) {
	for _, give := range []string{"", "1-10,+1", "[1-10]", "[1-10,+0]", "[10-1,+1]", "[1-10,x1]", "[a-b,+1]", "[1-10;*1]",
		"[1-NaN,+1]", "[1-10,+NaN]", "[1-10;*NaN]", "[1-10;*Inf]"} {
		t.Run(give, func(t *testing.T) {
			if _, err := ParseIntGrid(give); err == nil {
				t.Errorf("ParseIntGrid(%q) succeeded, want error", give)
			}
		})
	}
}

func TestParseDurationGrid(t *testing.T) {
	g, err := ParseDurationGrid("[1m-24h;*1.05]")
	if err != nil {
		t.Fatalf("ParseDurationGrid error: %v", err)
	}
	if math.Abs(g.Lo()-1.0/60) > 1e-12 {
		t.Errorf("Lo() = %v hours, want 1 minute", g.Lo())
	}
	if g.Hi() != 24 {
		t.Errorf("Hi() = %v hours, want 24", g.Hi())
	}
	if !g.Geometric() {
		t.Error("grid should be geometric")
	}
	// 1m * 1.05^k >= 24h => k >= ln(1440)/ln(1.05) ~ 149.0, so the grid has
	// 150 natural points plus one clamped endpoint.
	n := g.Len()
	if n < 149 || n > 152 {
		t.Errorf("Len() = %d, want about 150", n)
	}
	// All points increase and stay within bounds.
	vals := g.Values()
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("grid not strictly increasing at %d: %v then %v", i, vals[i-1], vals[i])
		}
	}
	if vals[len(vals)-1] > 24+1e-9 {
		t.Errorf("last value %v exceeds upper bound", vals[len(vals)-1])
	}
}

func TestParseDurationGridSingleton(t *testing.T) {
	g, err := ParseDurationGrid("[2h]")
	if err != nil {
		t.Fatalf("ParseDurationGrid error: %v", err)
	}
	if g.Lo() != 2 || g.Hi() != 2 || g.Len() != 1 {
		t.Errorf("singleton grid = %v (len %d), want [2h]", g, g.Len())
	}
}

func TestParseDurationGridAdditive(t *testing.T) {
	g, err := ParseDurationGrid("[10m-60m,+10m]")
	if err != nil {
		t.Fatalf("ParseDurationGrid error: %v", err)
	}
	if got := g.Len(); got != 6 {
		t.Errorf("Len() = %d, want 6", got)
	}
}

func TestGridNext(t *testing.T) {
	g, err := NewArithmeticGrid(1, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := g.Next(0)
	if !ok || v != 1 {
		t.Fatalf("Next(0) = %v,%v want 1,true", v, ok)
	}
	v, ok = g.Next(1)
	if !ok || v != 3 {
		t.Fatalf("Next(1) = %v,%v want 3,true", v, ok)
	}
	v, ok = g.Next(5)
	if ok {
		t.Fatalf("Next(5) = %v,%v want exhausted", v, ok)
	}
}

func TestGridContains(t *testing.T) {
	g := NewSingletonGrid(7)
	if !g.Contains(7) || g.Contains(6) || g.Contains(8) {
		t.Error("singleton Contains misbehaves")
	}
}

func TestGridValuesSortedProperty(t *testing.T) {
	f := func(lo8, span8, step8 uint8) bool {
		lo := float64(lo8%50) + 1
		hi := lo + float64(span8%100)
		step := float64(step8%9) + 1
		g, err := NewArithmeticGrid(lo, hi, step)
		if err != nil {
			return false
		}
		vals := g.Values()
		if len(vals) == 0 || vals[0] != lo {
			return false
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] <= vals[i-1] || vals[i] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGridString(t *testing.T) {
	g, _ := NewArithmeticGrid(1, 1000, 1)
	if got := g.String(); got != "[1-1000,+1]" {
		t.Errorf("String() = %q", got)
	}
	gg, _ := NewGeometricGrid(2, 16, 2)
	if got := gg.String(); got != "[2-16;*2]" {
		t.Errorf("String() = %q", got)
	}
	if got := NewSingletonGrid(1).String(); got != "[1]" {
		t.Errorf("String() = %q", got)
	}
}

func TestParseMoney(t *testing.T) {
	m, err := ParseMoney("93500")
	if err != nil || m != 93500 {
		t.Errorf("ParseMoney(93500) = %v, %v", m, err)
	}
	if _, err := ParseMoney("-1"); err == nil {
		t.Error("ParseMoney(-1) should fail")
	}
	if _, err := ParseMoney("abc"); err == nil {
		t.Error("ParseMoney(abc) should fail")
	}
	if got := Money(2400).String(); got != "2400" {
		t.Errorf("Money.String() = %q", got)
	}
	if got := Money(12.5).String(); got != "12.50" {
		t.Errorf("Money.String() = %q", got)
	}
	for _, give := range []string{"NaN", "Inf", "+Inf"} {
		if _, err := ParseMoney(give); err == nil {
			t.Errorf("ParseMoney(%s) should fail", give)
		}
	}
}

func TestMoneySpecExact(t *testing.T) {
	for _, give := range []string{"0", "2400", "0.125", "12.5", "0.1", "93500.000001", "1e21"} {
		m, err := ParseMoney(give)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseMoney(m.Spec())
		if err != nil || back != m {
			t.Errorf("%s: Spec %q read back as %v (%v)", give, m.Spec(), back, err)
		}
	}
	if got := Money(2400).Spec(); got != "2400" {
		t.Errorf("Money(2400).Spec() = %q", got)
	}
}
