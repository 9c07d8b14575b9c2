package avail

import (
	"fmt"

	"aved/internal/markov"
)

// MissionDowntime reports the expected downtime, in minutes per year,
// over a finite mission of the given length starting with every
// resource up — the transient-aware counterpart of the steady-state
// figure the engines report. Young systems accumulate less downtime
// than the steady state predicts because failures take a while to
// arrive; the estimate converges to the MarkovEngine's as the mission
// grows. It also matches what a finite-horizon simulation starting
// all-up measures.
func MissionDowntime(tm *TierModel, years float64) (float64, error) {
	if err := tm.Validate(); err != nil {
		return 0, err
	}
	if years <= 0 {
		return 0, fmt.Errorf("avail: mission length must be positive, got %v years", years)
	}
	horizon := years * 8760 // hours
	availability := 1.0
	for _, mode := range tm.Modes {
		a, err := missionModeAvailability(tm, mode, horizon)
		if err != nil {
			return 0, fmt.Errorf("tier %q mode %q: %w", tm.Name, mode.Name, err)
		}
		availability *= a
	}
	return (1 - availability) * MinutesPerYear, nil
}

// missionModeAvailability mirrors evaluateMode but weighs states by
// their finite-horizon occupancy from the all-up start instead of the
// stationary distribution.
func missionModeAvailability(tm *TierModel, mode Mode, horizonHours float64) (float64, error) {
	lambda := 1 / mode.MTBF.Hours()
	spares := 0
	if mode.UsesFailover {
		spares = tm.S
	}
	total := tm.N + spares
	if mode.Repair <= 0 {
		return 1, nil
	}
	mu := 1 / mode.Repair.Hours()
	birth := make([]float64, total)
	death := make([]float64, total)
	for j := 0; j < total; j++ {
		birth[j] = float64(poweredAt(tm.N, j, total, mode.SparePowered)) * lambda
		death[j] = float64(j+1) * mu
	}
	chain, err := markov.BirthDeathChain(birth, death)
	if err != nil {
		return 0, err
	}
	pi0 := make([]float64, total+1)
	pi0[0] = 1
	occ, err := chain.OccupancyOver(pi0, horizonHours, 1e-10)
	if err != nil {
		return 0, err
	}
	var downFrac, transientFrac float64
	failoverHours := mode.Failover.Hours()
	for j := 0; j <= total; j++ {
		actives := activeAt(tm.N, j, total)
		if actives < tm.M {
			downFrac += occ[j]
		}
		if mode.UsesFailover && j < total && failoverHours > 0 {
			idleSpares := total - j - actives
			if idleSpares > 0 && actives == tm.M {
				transientFrac += occ[j] * float64(actives) * lambda * failoverHours
			}
		}
	}
	a := 1 - downFrac - transientFrac
	if a < 0 {
		a = 0
	}
	return a, nil
}
