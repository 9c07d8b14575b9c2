package core

import (
	"math"

	"aved/internal/model"
)

// This file implements the packed availability fingerprint that keys
// the solver's caches. It replaces the old string key (which built a
// relevance map, sorted labels and concatenated on every call) with a
// 128-bit value computed by pure integer mixing: the per-option
// invariants (tier and resource name hashes, each combo's
// relevant-settings hash) are hoisted into optionSearch setup, so the
// per-candidate fingerprint in the evalTier hot path costs zero
// allocations.
//
// Two fingerprints are derived per candidate:
//
//   - the mode fingerprint covers everything the resolved effective
//     modes depend on — tier, resource, MTTR/MTBF-relevant mechanism
//     settings, spare warmth, and whether spares exist at all — and
//     keys the Solver's mode cache;
//   - the availability fingerprint extends it with the exact (n, m, s)
//     counts and keys the evaluation cache.
//
// Both are content hashes: two candidates share a key exactly when the
// fingerprinted inputs agree, up to 128-bit hash collisions, which
// TestFingerprintMatchesStringKey and TestModeFingerprintInjective pin as absent across the scenario suite.

// fp128 is a packed 128-bit fingerprint. The lo word is already
// avalanche-mixed, so caches shard on it directly.
type fp128 struct{ hi, lo uint64 }

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211

	// Distinct salts keep the two 64-bit lanes and the different
	// fingerprint roles (setting entries, combos, bases) independent.
	saltLane   uint64 = 0x6a09e667f3bcc909
	saltEntry  uint64 = 0x243f6a8885a308d3
	saltGolden uint64 = 0x9e3779b97f4a7c15
)

// mix64 is the SplitMix64 finalizer: a cheap full-avalanche permutation
// of 64-bit values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashString is FNV-1a over s seeded with h.
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// mixUint folds one value into both lanes.
func (f fp128) mixUint(v uint64) fp128 {
	return fp128{
		hi: mix64(f.hi ^ mix64(v+saltGolden)),
		lo: mix64(f.lo ^ mix64(v+saltLane)),
	}
}

// mixString folds a string into both lanes.
func (f fp128) mixString(s string) fp128 {
	return f.mixUint(hashString(fnvOffset64, s))
}

// add combines fingerprints commutatively, so set-valued inputs hash
// independently of enumeration order (the string key sorted labels for
// the same reason). Sum, not xor: duplicate elements must not cancel.
func (f fp128) add(g fp128) fp128 {
	return fp128{hi: f.hi + g.hi, lo: f.lo + g.lo}
}

// sealed finishes a commutative accumulation with a final avalanche.
func (f fp128) sealed() fp128 {
	return fp128{hi: mix64(f.hi ^ saltEntry), lo: mix64(f.lo ^ saltLane)}
}

// settingFP fingerprints one mechanism setting: the mechanism name plus
// a commutative hash over its parameter values, so the map's random
// iteration order cannot leak into the key.
func settingFP(ms model.MechSetting) fp128 {
	f := fp128{hi: fnvOffset64, lo: saltLane}.mixString(ms.Mechanism.Name)
	var sum fp128
	for name, v := range ms.Values {
		e := fp128{hi: saltEntry, lo: saltGolden}.mixString(name).mixString(v.Str)
		e = e.mixUint(math.Float64bits(v.Hours))
		var isNum uint64
		if v.IsNum {
			isNum = 1
		}
		sum = sum.add(e.mixUint(isNum))
	}
	return f.mixUint(sum.hi).mixUint(sum.lo)
}

// mechRelevant reports whether a mechanism feeds any failure mode's
// MTTR or MTBF on the resource — the settings that change availability.
// Mechanisms affecting just loss windows or performance (e.g.
// checkpointing) do not, so candidates differing only there share one
// engine evaluation.
func mechRelevant(rt *model.ResourceType, name string) bool {
	for _, rc := range rt.Components {
		for _, f := range rc.Component.Failures {
			if f.MTTRRef == name || f.MTBFRef == name {
				return true
			}
		}
	}
	return false
}

// comboFP fingerprints the MTTR/MTBF-relevant mechanism settings of a
// combo, commutatively across settings.
func comboFP(rt *model.ResourceType, mechs []model.MechSetting) fp128 {
	var sum fp128
	for _, ms := range mechs {
		if ms.Mechanism == nil || !mechRelevant(rt, ms.Mechanism.Name) {
			continue
		}
		sum = sum.add(settingFP(ms))
	}
	return sum.sealed()
}

// baseFP is the per-option invariant part of every fingerprint.
func baseFP(tierName, resourceName string) fp128 {
	return fp128{hi: fnvOffset64, lo: saltGolden}.mixString(tierName).mixString(resourceName)
}

// modeFPOf keys a design's resolved effective modes: base, relevant
// combo settings, spare warmth and spare existence. Resource counts
// beyond has-spares do not change the modes.
func modeFPOf(base, combo fp128, warm int, hasSpares bool) fp128 {
	f := base.mixUint(combo.hi).mixUint(combo.lo)
	var s uint64
	if hasSpares {
		s = 1
	}
	return f.mixUint(uint64(warm)<<1 | s)
}

// availFPOf completes an availability fingerprint from a mode
// fingerprint and the design's exact counts.
func availFPOf(mode fp128, nActive, minActive, nSpare int) fp128 {
	return mode.mixUint(uint64(nActive)).mixUint(uint64(minActive)).mixUint(uint64(nSpare))
}

// candFP carries one candidate's two cache keys.
type candFP struct {
	avail fp128 // keys evalCache (full availability evaluation)
	mode  fp128 // keys modeCache (resolved effective modes)
}

// fingerprintOf computes both fingerprints of a design from scratch,
// allocation-free. The search paths instead assemble the same values
// from per-option precomputed parts; the two constructions must agree,
// which TestFingerprintPrecomputedAgrees pins.
func fingerprintOf(td *model.TierDesign) candFP {
	base := baseFP(td.TierName, td.Resource().Name)
	combo := comboFP(td.Resource(), td.Mechanisms)
	m := modeFPOf(base, combo, td.SpareWarm, td.NSpare > 0)
	return candFP{avail: availFPOf(m, td.NActive, td.MinActive, td.NSpare), mode: m}
}
