// Package units provides the scalar quantities used throughout Aved:
// durations with the paper's suffix notation (s, m, h, d), annual money
// amounts, and the range grids that appear in infrastructure and service
// specifications (arithmetic ranges such as [1-1000,+1] and geometric
// ranges such as [1m-24h;*1.05]).
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Duration is a span of time. It wraps time.Duration so that values parse
// and print using the paper's suffixes: "s" seconds, "m" minutes, "h"
// hours, "d" days. A bare "0" is accepted and means zero duration.
type Duration time.Duration

// Common durations in the paper's unit system.
const (
	Second Duration = Duration(time.Second)
	Minute Duration = Duration(time.Minute)
	Hour   Duration = Duration(time.Hour)
	Day    Duration = 24 * Hour
	Year   Duration = Duration(8760 * time.Hour)
)

// ParseDuration parses a duration written with one of the paper's
// suffixes: "30s", "2m", "38h", "650d". A bare "0" parses as zero.
// Fractional magnitudes such as "1.5h" are accepted.
func ParseDuration(s string) (Duration, error) {
	d, fault := scanDuration(s)
	if fault == durationOK {
		return d, nil
	}
	t := strings.TrimSpace(s)
	switch fault {
	case durationEmpty:
		return 0, fmt.Errorf("parse duration: empty string")
	case durationUnit:
		return 0, fmt.Errorf("parse duration %q: unknown unit %q (want s, m, h or d)", s, string(t[len(t)-1]))
	case durationNegative:
		return 0, fmt.Errorf("parse duration %q: negative durations are not allowed", s)
	case durationRange:
		return 0, fmt.Errorf("parse duration %q: out of range", s)
	default:
		_, err := strconv.ParseFloat(t[:len(t)-1], 64)
		return 0, fmt.Errorf("parse duration %q: %w", s, err)
	}
}

// IsDuration reports whether ParseDuration accepts s. It builds no
// error, and allocates nothing unless s has a known unit after text
// that begins like a number yet does not parse as one ("2mm"), so it
// suits tests of text that is usually not a duration, such as the
// items of an enumerated range.
func IsDuration(s string) bool {
	_, fault := scanDuration(s)
	return fault == durationOK
}

// durationFault is why scanDuration rejected its text; ParseDuration
// turns it into an error.
type durationFault uint8

const (
	durationOK durationFault = iota
	durationEmpty
	durationUnit
	durationNumber
	durationNegative
	durationRange
)

// scanDuration is the one reading of the duration grammar behind both
// ParseDuration and IsDuration, so the two cannot disagree.
func scanDuration(s string) (Duration, durationFault) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, durationEmpty
	}
	if t == "0" {
		return 0, durationOK
	}
	var scale Duration
	switch t[len(t)-1] {
	case 's':
		scale = Second
	case 'm':
		scale = Minute
	case 'h':
		scale = Hour
	case 'd':
		scale = Day
	default:
		return 0, durationUnit
	}
	num := t[:len(t)-1]
	// strconv.ParseFloat allocates the error it returns, so a magnitude
	// that cannot begin a float ("gol" of "gold") is turned away first.
	if !floatStart(num) {
		return 0, durationNumber
	}
	mag, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, durationNumber
	}
	if mag < 0 {
		return 0, durationNegative
	}
	ns := float64(scale) * mag
	if !(ns < math.MaxInt64) { // also rejects NaN
		return 0, durationRange
	}
	return Duration(ns), durationOK
}

// floatStart reports whether s, after an optional sign, begins with a
// digit or a point, or is one of the words inf, infinity and nan that
// strconv.ParseFloat accepts in any case. Text it rejects never parses
// as a float.
func floatStart(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	if c := s[0]; c == '.' || '0' <= c && c <= '9' {
		return true
	}
	return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
}

// MustDuration parses s and panics on error. It is intended only for
// package-level constants and test fixtures built from literals.
func MustDuration(s string) Duration {
	d, err := ParseDuration(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return time.Duration(d).Seconds() }

// Minutes reports the duration in minutes.
func (d Duration) Minutes() float64 { return time.Duration(d).Minutes() }

// Hours reports the duration in hours.
func (d Duration) Hours() float64 { return time.Duration(d).Hours() }

// Days reports the duration in 24-hour days.
func (d Duration) Days() float64 { return time.Duration(d).Hours() / 24 }

// Years reports the duration in 8760-hour years.
func (d Duration) Years() float64 { return time.Duration(d).Hours() / 8760 }

// Std converts d to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// FromSeconds builds a Duration from a number of seconds.
func FromSeconds(sec float64) Duration { return Duration(sec * float64(Second)) }

// FromHours builds a Duration from a number of hours.
func FromHours(h float64) Duration { return Duration(h * float64(Hour)) }

// FromDays builds a Duration from a number of 24-hour days.
func FromDays(days float64) Duration { return Duration(days * float64(Day)) }

// String formats the duration in the paper's notation, choosing the
// largest unit that yields a compact magnitude: "0", "30s", "2m", "38h",
// "650d". Non-integral magnitudes print with up to three decimals.
func (d Duration) String() string {
	if d == 0 {
		return "0"
	}
	// Prefer the largest unit that yields a compact integral magnitude,
	// as the paper writes 38h rather than 1.583d.
	for _, u := range durationUnits {
		mag := float64(d) / float64(u.scale)
		if mag >= 1 && mag <= 10000 && mag == math.Trunc(mag) {
			return trimFloat(mag) + u.sfx
		}
	}
	// Otherwise pick the smallest unit that keeps the magnitude under
	// 1000 (38.108h beats 137190s), falling back to days.
	for i := len(durationUnits) - 1; i >= 0; i-- {
		mag := float64(d) / float64(durationUnits[i].scale)
		if mag < 1000 {
			return trimFloat(mag) + durationUnits[i].sfx
		}
	}
	return trimFloat(d.Days()) + "d"
}

// durationUnits are the spec's duration suffixes, largest first.
var durationUnits = []struct {
	scale Duration
	sfx   string
}{{Day, "d"}, {Hour, "h"}, {Minute, "m"}, {Second, "s"}}

// Spec renders d as spec text that ParseDuration reads back exactly:
// String's compact form when that is exact (it keeps three decimals, so
// 1.00001h would come back as 1h), and otherwise the shortest decimal of
// the magnitude in the smallest unit that reads back to d ("3600.036s").
func (d Duration) Spec() string {
	if s := d.String(); d.readBy(s) {
		return s
	}
	for i := len(durationUnits) - 1; i >= 0; i-- {
		u := durationUnits[i]
		// ParseDuration multiplies the magnitude back by the unit, so
		// the float nearest d/unit can miss by a nanosecond; a
		// neighbour then lands exactly.
		mag := float64(d) / float64(u.scale)
		for _, m := range [...]float64{mag, math.Nextafter(mag, math.Inf(1)), math.Nextafter(mag, 0)} {
			if s := strconv.FormatFloat(m, 'f', -1, 64) + u.sfx; d.readBy(s) {
				return s
			}
		}
	}
	return d.String()
}

// readBy reports whether ParseDuration reads s back as exactly d.
func (d Duration) readBy(s string) bool {
	back, err := ParseDuration(s)
	return err == nil && back == d
}

// trimFloat formats v with at most three decimals and no trailing zeros.
func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// Rate is an event rate in events per hour.
type Rate float64

// RatePerHour converts a mean time between events into a rate. A zero
// or negative duration yields a zero rate (no events).
func RatePerHour(mtbe Duration) Rate {
	if mtbe <= 0 {
		return 0
	}
	return Rate(1 / mtbe.Hours())
}

// PerYear reports the expected number of events in an 8760-hour year.
func (r Rate) PerYear() float64 { return float64(r) * 8760 }
