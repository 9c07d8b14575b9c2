package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Grid enumerates the candidate values of a numeric design parameter.
// The spec language writes grids as ranges with a step rule:
//
//	[1-1000,+1]     arithmetic: 1, 2, 3, … 1000
//	[1m-24h;*1.05]  geometric: 1m, 1.05m, … up to 24h (durations)
//	[1]             singleton
//
// Values reports the expansion; for large geometric grids callers should
// iterate with Next instead of materialising the slice.
type Grid struct {
	lo, hi float64
	step   float64
	mul    bool // true: geometric (step is the ratio); false: arithmetic
}

// NewArithmeticGrid builds the grid lo, lo+step, … ≤ hi.
func NewArithmeticGrid(lo, hi, step float64) (Grid, error) {
	if !(step > 0) {
		return Grid{}, fmt.Errorf("arithmetic grid: step %v must be positive", step)
	}
	if !(hi >= lo) {
		return Grid{}, fmt.Errorf("arithmetic grid: upper bound %v below lower bound %v", hi, lo)
	}
	return Grid{lo: lo, hi: hi, step: step}, nil
}

// NewGeometricGrid builds the grid lo, lo·ratio, lo·ratio², … ≤ hi.
func NewGeometricGrid(lo, hi, ratio float64) (Grid, error) {
	if !(ratio > 1) || math.IsInf(ratio, 1) {
		return Grid{}, fmt.Errorf("geometric grid: ratio %v must be finite and exceed 1", ratio)
	}
	if !(lo > 0) {
		return Grid{}, fmt.Errorf("geometric grid: lower bound %v must be positive", lo)
	}
	if !(hi >= lo) {
		return Grid{}, fmt.Errorf("geometric grid: upper bound %v below lower bound %v", hi, lo)
	}
	return Grid{lo: lo, hi: hi, step: ratio, mul: true}, nil
}

// NewSingletonGrid builds a grid holding exactly one value.
func NewSingletonGrid(v float64) Grid {
	return Grid{lo: v, hi: v, step: 1}
}

// Lo reports the smallest value of the grid.
func (g Grid) Lo() float64 { return g.lo }

// Hi reports the inclusive upper bound of the grid.
func (g Grid) Hi() float64 { return g.hi }

// Geometric reports whether the grid steps multiplicatively.
func (g Grid) Geometric() bool { return g.mul }

// Contains reports whether v lies within the grid's bounds. It does not
// require v to be exactly on a grid point.
func (g Grid) Contains(v float64) bool { return v >= g.lo && v <= g.hi }

// Next reports the grid point following v, and false once the grid is
// exhausted. Calling Next with a value below Lo yields Lo.
func (g Grid) Next(v float64) (float64, bool) {
	if v < g.lo {
		return g.lo, true
	}
	var n float64
	if g.mul {
		n = v * g.step
	} else {
		n = v + g.step
	}
	// Guard against floating-point stall on degenerate inputs.
	if n <= v {
		return 0, false
	}
	if n > g.hi*(1+1e-12) {
		return 0, false
	}
	if n > g.hi {
		n = g.hi
	}
	return n, true
}

// Values materialises every grid point in increasing order.
func (g Grid) Values() []float64 {
	var out []float64
	v, ok := g.lo, true
	for ok {
		out = append(out, v)
		v, ok = g.Next(v)
	}
	return out
}

// Len reports the number of grid points.
func (g Grid) Len() int {
	n := 0
	v, ok := g.lo, true
	for ok {
		n++
		v, ok = g.Next(v)
	}
	return n
}

// String renders the grid in spec notation.
func (g Grid) String() string {
	if g.lo == g.hi {
		return fmt.Sprintf("[%s]", trimFloat(g.lo))
	}
	if g.mul {
		return fmt.Sprintf("[%s-%s;*%s]", trimFloat(g.lo), trimFloat(g.hi), trimFloat(g.step))
	}
	return fmt.Sprintf("[%s-%s,+%s]", trimFloat(g.lo), trimFloat(g.hi), trimFloat(g.step))
}

// FormatDurationGrid renders a grid whose values are hours back into
// the spec's duration-range notation: "[1m-24h;*1.05]", "[2h]",
// "[10m-60m,+10m]". It is the exact inverse of ParseDurationGrid: the
// text reads back to the identical grid (24h renders as 1d).
func FormatDurationGrid(g Grid) string {
	lo := hoursSpec(g.lo)
	if g == NewSingletonGrid(g.lo) {
		return "[" + lo + "]"
	}
	hi := hoursSpec(g.hi)
	if g.mul {
		return fmt.Sprintf("[%s-%s;*%s]", lo, hi, strconv.FormatFloat(g.step, 'f', -1, 64))
	}
	return fmt.Sprintf("[%s-%s,+%s]", lo, hi, hoursSpec(g.step))
}

// hoursSpec renders a grid value h, which ParseDurationGrid stores as
// some duration's Hours(), as duration text that reads back to exactly
// h. FromHours(h) can miss that duration by a nanosecond or, past 2^53
// ns, by a float step, so its neighbours are tried too.
func hoursSpec(h float64) string {
	d := FromHours(h)
	step := max(1, Duration(math.Nextafter(float64(d), math.Inf(1))-float64(d)))
	for _, c := range [...]Duration{d, d + 1, d - 1, d + step, d - step} {
		if c.Hours() != h {
			continue
		}
		if s := c.Spec(); c.readBy(s) {
			return s
		}
	}
	return d.Spec()
}

// ParseIntGrid parses the service-model count notation: "[1]",
// "[1-1000,+1]" or "[1-1024,*2]" (powers, for applications that require
// e.g. power-of-two node counts).
func ParseIntGrid(s string) (Grid, error) {
	body, err := stripBrackets(s)
	if err != nil {
		return Grid{}, err
	}
	if !strings.ContainsAny(body, ",;") {
		v, err := parseFloatStrict(body)
		if err != nil {
			return Grid{}, fmt.Errorf("parse grid %q: %w", s, err)
		}
		return NewSingletonGrid(v), nil
	}
	rangePart, stepPart, err := splitStep(body, s)
	if err != nil {
		return Grid{}, err
	}
	lo, hi, err := splitRange(rangePart, s, parseFloatStrict)
	if err != nil {
		return Grid{}, err
	}
	return buildGrid(lo, hi, stepPart, s, parseFloatStrict)
}

// ParseDurationGrid parses the mechanism-parameter duration notation:
// "[1m-24h;*1.05]" or "[1m]" or "[1m-60m,+1m]".
func ParseDurationGrid(s string) (Grid, error) {
	parseDur := func(t string) (float64, error) {
		d, err := ParseDuration(t)
		if err != nil {
			return 0, err
		}
		return d.Hours(), nil
	}
	body, err := stripBrackets(s)
	if err != nil {
		return Grid{}, err
	}
	if !strings.ContainsAny(body, ",;") {
		v, err := parseDur(body)
		if err != nil {
			return Grid{}, fmt.Errorf("parse duration grid %q: %w", s, err)
		}
		return NewSingletonGrid(v), nil
	}
	rangePart, stepPart, err := splitStep(body, s)
	if err != nil {
		return Grid{}, err
	}
	lo, hi, err := splitRange(rangePart, s, parseDur)
	if err != nil {
		return Grid{}, err
	}
	// An additive step on a duration grid is itself a duration; a
	// multiplicative step is a dimensionless ratio.
	if strings.HasPrefix(stepPart, "+") {
		return buildGrid(lo, hi, stepPart, s, parseDur)
	}
	return buildGrid(lo, hi, stepPart, s, parseFloatStrict)
}

func stripBrackets(s string) (string, error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || t[0] != '[' || t[len(t)-1] != ']' {
		return "", fmt.Errorf("parse grid %q: want [..] brackets", s)
	}
	return strings.TrimSpace(t[1 : len(t)-1]), nil
}

func splitStep(body, orig string) (rangePart, stepPart string, err error) {
	idx := strings.IndexAny(body, ",;")
	if idx < 0 {
		return "", "", fmt.Errorf("parse grid %q: missing step", orig)
	}
	rangePart = strings.TrimSpace(body[:idx])
	stepPart = strings.TrimSpace(body[idx+1:])
	if stepPart == "" {
		return "", "", fmt.Errorf("parse grid %q: empty step", orig)
	}
	return rangePart, stepPart, nil
}

func splitRange(rangePart, orig string, parse func(string) (float64, error)) (lo, hi float64, err error) {
	dash := strings.Index(rangePart, "-")
	if dash < 0 {
		return 0, 0, fmt.Errorf("parse grid %q: want lo-hi range", orig)
	}
	lo, err = parse(strings.TrimSpace(rangePart[:dash]))
	if err != nil {
		return 0, 0, fmt.Errorf("parse grid %q: bad lower bound: %w", orig, err)
	}
	hi, err = parse(strings.TrimSpace(rangePart[dash+1:]))
	if err != nil {
		return 0, 0, fmt.Errorf("parse grid %q: bad upper bound: %w", orig, err)
	}
	return lo, hi, nil
}

func buildGrid(lo, hi float64, stepPart, orig string, parse func(string) (float64, error)) (Grid, error) {
	if stepPart == "" {
		return Grid{}, fmt.Errorf("parse grid %q: empty step", orig)
	}
	op := stepPart[0]
	stepVal, err := parse(strings.TrimSpace(stepPart[1:]))
	if err != nil {
		return Grid{}, fmt.Errorf("parse grid %q: bad step: %w", orig, err)
	}
	switch op {
	case '+':
		g, err := NewArithmeticGrid(lo, hi, stepVal)
		if err != nil {
			return Grid{}, fmt.Errorf("parse grid %q: %w", orig, err)
		}
		return g, nil
	case '*':
		g, err := NewGeometricGrid(lo, hi, stepVal)
		if err != nil {
			return Grid{}, fmt.Errorf("parse grid %q: %w", orig, err)
		}
		return g, nil
	default:
		return Grid{}, fmt.Errorf("parse grid %q: step must begin with + or *", orig)
	}
}

func parseFloatStrict(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("parse number %q: %w", s, err)
	}
	return v, nil
}
