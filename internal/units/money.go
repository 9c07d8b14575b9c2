package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Money is an annualised cost in currency units per year. The paper
// annualises capital costs by dividing by useful lifetime, so every cost
// in the model is an annual figure and they add directly.
type Money float64

// ParseMoney parses a plain decimal cost figure such as "2400" or
// "93500". Negative costs are rejected.
func ParseMoney(s string) (Money, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("parse money %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("parse money %q: negative costs are not allowed", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parse money %q: want a finite amount", s)
	}
	return Money(v), nil
}

// String formats the amount without a currency symbol, matching the
// paper's tables: integral amounts print with no decimals.
func (m Money) String() string {
	v := float64(m)
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// Spec renders the amount as spec text that ParseMoney reads back
// exactly: the shortest decimal form, where String rounds to cents.
func (m Money) Spec() string { return strconv.FormatFloat(float64(m), 'f', -1, 64) }
