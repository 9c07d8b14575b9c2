// Package jobtime implements the paper's expected job-completion-time
// analysis (§4.2, Eq. 1) for applications of finite duration: the
// restart law relating a loss window and the system MTBF to the mean
// compute time needed per window of useful work, and the composition
// with checkpoint overhead and system availability into an expected
// wall-clock job time.
package jobtime

import (
	"fmt"
	"math"

	"aved/internal/avail"
	"aved/internal/units"
)

// PFail reports Eq. 1's P_f = 1 − e^{−lw/mtbf}: the probability of at
// least one failure within a loss window.
func PFail(lw, mtbf units.Duration) (float64, error) {
	if lw <= 0 {
		return 0, fmt.Errorf("jobtime: loss window must be positive, got %v", lw)
	}
	if mtbf <= 0 {
		return 0, fmt.Errorf("jobtime: mtbf must be positive, got %v", mtbf)
	}
	return 1 - math.Exp(-lw.Hours()/mtbf.Hours()), nil
}

// TLw reports Eq. 1: T_lw = mtbf · P_f / (1 − P_f), the mean compute
// time needed to execute lw of useful work when every failure restarts
// the window. Algebraically T_lw = mtbf · (e^{lw/mtbf} − 1).
func TLw(lw, mtbf units.Duration) (units.Duration, error) {
	if lw <= 0 {
		return 0, fmt.Errorf("jobtime: loss window must be positive, got %v", lw)
	}
	if mtbf <= 0 {
		return 0, fmt.Errorf("jobtime: mtbf must be positive, got %v", mtbf)
	}
	x := lw.Hours() / mtbf.Hours()
	return units.FromHours(mtbf.Hours() * math.Expm1(x)), nil
}

// RestartExpansion reports T_lw / lw ≥ 1: the factor by which failures
// inflate compute time. It tends to 1 for loss windows far below the
// MTBF and grows exponentially beyond it.
func RestartExpansion(lw, mtbf units.Duration) (float64, error) {
	t, err := TLw(lw, mtbf)
	if err != nil {
		return 0, err
	}
	return t.Hours() / lw.Hours(), nil
}

// SystemMTBF reports the mean time between work-losing failures for a
// tier whose computation spans n active resources: any failure of any
// active resource loses work, so rates add across resources and modes.
func SystemMTBF(modes []avail.Mode, n int) (units.Duration, error) {
	if n < 1 {
		return 0, fmt.Errorf("jobtime: need at least one active resource, got %d", n)
	}
	var rate float64 // failures per hour
	for _, m := range modes {
		if m.MTBF <= 0 {
			return 0, fmt.Errorf("jobtime: mode %q has non-positive MTBF", m.Name)
		}
		rate += 1 / m.MTBF.Hours()
	}
	rate *= float64(n)
	if rate <= 0 {
		return 0, fmt.Errorf("jobtime: no failure modes")
	}
	return units.FromHours(1 / rate), nil
}

// Params collects everything the expected-job-time composition needs.
type Params struct {
	// JobSize is the total work in application-specific units.
	JobSize float64
	// PerfPerHour is the tier's failure-free throughput in work units
	// per hour with the design's active resources.
	PerfPerHour float64
	// OverheadFactor is the availability-mechanism execution-time
	// multiplier (≥ 1), e.g. checkpointing overhead.
	OverheadFactor float64
	// LossWindow is the maximum work lost per failure, in time units.
	// Zero means no checkpointing: the whole remaining job is lost on
	// failure (the paper's worst case).
	LossWindow units.Duration
	// SystemMTBF is the mean time between work-losing failures.
	SystemMTBF units.Duration
	// Availability is the fraction of time the system is up.
	Availability float64
}

// Expected reports the expected wall-clock job completion time: the
// failure-free compute time, inflated by mechanism overhead, by the
// Eq. 1 restart expansion, and by downtime (the paper's effective
// uptime T_eff = T_up · lw/T_lw).
func Expected(p Params) (units.Duration, error) {
	product, err := Product(p)
	if err != nil {
		return 0, err
	}
	return Wall(product, p.Availability)
}

// Product reports the availability-free part of Expected in hours:
// JobSize/PerfPerHour inflated by OverheadFactor and by the restart
// expansion (e^x − 1)/x, x = lw/SystemMTBF. It ignores p.Availability,
// so a search computes it once for candidates differing only in that.
func Product(p Params) (float64, error) {
	if p.JobSize <= 0 {
		return 0, fmt.Errorf("jobtime: job size must be positive, got %v", p.JobSize)
	}
	if p.PerfPerHour <= 0 {
		return 0, fmt.Errorf("jobtime: performance must be positive, got %v", p.PerfPerHour)
	}
	if p.OverheadFactor < 1 {
		return 0, fmt.Errorf("jobtime: overhead factor must be at least 1, got %v", p.OverheadFactor)
	}
	if p.SystemMTBF <= 0 {
		return 0, fmt.Errorf("jobtime: system MTBF must be positive, got %v", p.SystemMTBF)
	}
	computeHours := p.JobSize / p.PerfPerHour * p.OverheadFactor
	lwHours := p.LossWindow.Hours()
	if lwHours <= 0 {
		// No checkpointing: the loss window is the whole job.
		lwHours = computeHours
	}
	// Work in float64 throughout: a loss window far beyond the MTBF
	// sends the restart expansion through the exponential, which would
	// overflow units.Duration. Such designs are hopeless, not invalid,
	// so Wall clamps them to MaxExpected instead of erroring.
	x := lwHours / p.SystemMTBF.Hours()
	var expansion float64
	if x > 500 {
		expansion = math.Inf(1)
	} else {
		expansion = math.Expm1(x) / x
	}
	product := computeHours * expansion
	if math.IsNaN(product) {
		return 0, fmt.Errorf("jobtime: expected time diverged (compute %vh, expansion %v)", computeHours, expansion)
	}
	return product, nil
}

// Wall divides Product's hours by the availability into the expected
// job time, clamped to MaxExpected. It never falls as the product grows
// and never rises as availability grows.
func Wall(product, availability float64) (units.Duration, error) {
	if availability <= 0 || availability > 1 {
		return 0, fmt.Errorf("jobtime: availability must be in (0, 1], got %v", availability)
	}
	wall := product / availability
	if wall > MaxExpected.Hours() {
		return MaxExpected, nil
	}
	return units.FromHours(wall), nil
}

// MaxExpected is the ceiling Expected reports for designs whose
// completion time overflows any practical horizon (about 114 years).
// It keeps hopeless candidates comparable without overflowing
// units.Duration during a search.
const MaxExpected = units.Duration(1e6 * float64(units.Hour))
