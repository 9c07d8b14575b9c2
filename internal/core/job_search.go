package core

import (
	"context"
	"fmt"
	"math"

	"aved/internal/avail"
	"aved/internal/jobtime"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/perf"
	"aved/internal/units"
)

// JobCandidate couples a tier design with its cost and expected job
// completion time.
type JobCandidate struct {
	Design  model.TierDesign
	Cost    units.Money
	JobTime units.Duration
}

// solveJob implements the search for finite-duration applications
// (§5.2): the only requirement is the expected job completion time;
// design dimensions are resource type, resource count, spares, spare
// mode, and mechanism parameters (notably checkpoint interval and
// storage location).
func (s *Solver) solveJob(ctx context.Context, req model.Requirements) (*Solution, error) {
	if len(s.svc.Tiers) != 1 {
		return nil, fmt.Errorf("core: job solving supports single-tier services, %q has %d tiers",
			s.svc.Name, len(s.svc.Tiers))
	}
	tier := &s.svc.Tiers[0]
	var (
		stats searchStats
		best  *JobCandidate
	)
	s.gen++
	stats.gen = s.gen
	endPhase := s.phaseSpan(&stats, phaseJobSearch)
	for i := range tier.Options {
		cand, err := s.searchJobOption(ctx, tier, &tier.Options[i], req.MaxJobTime, best, &stats)
		if err != nil {
			return nil, wrapCanceled(err, &stats)
		}
		if cand != nil {
			best = cand
		}
	}
	endPhase()
	if best == nil {
		return nil, &InfeasibleError{Stats: stats.snapshot(), Reason: fmt.Sprintf(
			"no design completes job size %v within %v", s.svc.JobSize, req.MaxJobTime)}
	}
	design := model.Design{Tiers: []model.TierDesign{best.Design}}
	if err := design.Validate(); err != nil {
		return nil, err
	}
	return &Solution{
		Design:  design,
		Cost:    best.Cost,
		JobTime: best.JobTime,
		Stats:   stats.snapshot(),
	}, nil
}

// jobStopAfterDegrading is how many consecutive resource-count steps
// with a degrading best completion time the search tolerates before
// declaring the option exhausted (the §4.1 rule adapted to the
// U-shaped job-time curve).
const jobStopAfterDegrading = 2

// jobCombo carries everything about one mechanism combination, other
// than its price (the comboSet's), that does not depend on the resource
// counts, precomputed once per option so the inner search loop runs
// pure arithmetic.
type jobCombo struct {
	settings []model.MechSetting
	// lossWindow is the combo's resolved loss window; zero duration
	// with hasLW=false means no checkpointing.
	lossWindow units.Duration
	hasLW      bool
	// overheads are the resolved mechanism performance-impact
	// functions with their argument maps; Factor still takes n.
	overheads []comboOverhead
	// availGroup indexes combos whose availability evaluations are
	// interchangeable (same MTTR-relevant settings).
	availGroup int
}

type comboOverhead struct {
	fn   perf.Overhead
	args map[string]perf.Arg
}

// prepareJobCombos resolves the option's mechanism combinations into
// jobCombos, grouped by availability relevance; out[ci] is cs.combos[ci],
// so the walk prices it from the same combo set. It returns the packed
// relevant-settings fingerprint of each group, computed once here so
// the search loop reuses it instead of re-fingerprinting per probe.
func (s *Solver) prepareJobCombos(tier *model.Tier, opt *model.ResourceOption, cs *comboSet) ([]jobCombo, []fp128, error) {
	groups := map[fp128]int{}
	var groupFPs []fp128
	out := make([]jobCombo, 0, len(cs.combos))
	for ci, combo := range cs.combos {
		jc := jobCombo{settings: combo}
		// Loss window via a throwaway design: it depends only on the
		// combo and the resource type.
		probe := model.TierDesign{
			TierName:   tier.Name,
			Option:     opt,
			NActive:    1,
			NMinPerf:   1,
			MinActive:  1,
			Mechanisms: combo,
		}
		lw, has, err := probe.LossWindow()
		if err != nil {
			return nil, nil, err
		}
		jc.lossWindow, jc.hasLW = lw, has
		for _, mp := range opt.MechPerf {
			ms, ok := probe.Mechanism(mp.Mechanism)
			if !ok {
				return nil, nil, fmt.Errorf("core: tier %q: mechanism %q has a performance impact but no setting",
					tier.Name, mp.Mechanism)
			}
			oh, err := s.opts.Registry.Overhead(mp.Ref)
			if err != nil {
				return nil, nil, err
			}
			args := make(map[string]perf.Arg, len(ms.Values))
			for name, v := range ms.Values {
				args[name] = perf.Arg{Str: v.Str, Hours: v.Hours, IsNum: v.IsNum}
			}
			jc.overheads = append(jc.overheads, comboOverhead{fn: oh, args: args})
		}
		cfp := cs.fps[ci]
		id, ok := groups[cfp]
		if !ok {
			id = len(groups)
			groups[cfp] = id
			groupFPs = append(groupFPs, cfp)
		}
		jc.availGroup = id
		out = append(out, jc)
	}
	return out, groupFPs, nil
}

func (s *Solver) searchJobOption(ctx context.Context, tier *model.Tier, opt *model.ResourceOption, maxTime units.Duration,
	incumbent *JobCandidate, stats *searchStats) (*JobCandidate, error) {

	curve, err := s.curveFor(opt)
	if err != nil {
		return nil, err
	}
	rt := opt.ResourceType()
	cs, err := s.mechCombos(rt)
	if err != nil {
		return nil, err
	}
	combos, groupFPs, err := s.prepareJobCombos(tier, opt, cs)
	if err != nil {
		return nil, err
	}
	groupCount := len(groupFPs)
	base := baseFP(tier.Name, rt.Name)

	tr := s.opts.Tracer
	resName := rt.Name
	done := ctx.Done()
	best := incumbent
	prevBestTime := math.Inf(1)
	degrading := 0
	maxTotal := rt.MaxInstances()
	grid := opt.NActive
	// Warmth levels for spared candidates, computed once per option.
	warmSpareLevels := s.warmLevels(rt, 1)
	entries := make([]evalEntry, groupCount)
	evaluated := make([]bool, groupCount)
	nVal, ok := grid.Lo(), true
	for ok {
		n := int(math.Round(nVal))
		if maxTotal > 0 && n > maxTotal {
			break
		}
		minCostAtN := math.Inf(1)
		bestTimeAtN := math.Inf(1)
		for spares := 0; spares <= s.opts.MaxRedundancy; spares++ {
			if maxTotal > 0 && n+spares > maxTotal {
				break
			}
			warms := warmZeroLevels
			if spares > 0 {
				warms = warmSpareLevels
			}
			for _, warm := range warms {
				for g := range evaluated {
					evaluated[g] = false
				}
				perfAtN := curve.Throughput(n)
				for ci := range combos {
					jc := &combos[ci]
					// One ctx check per candidate, same captured-Done
					// pattern as searchOption: free when the context
					// cannot be cancelled.
					if done != nil {
						select {
						case <-done:
							return nil, ctx.Err()
						default:
						}
					}
					c := cs.price(n, spares, warm, ci)
					stats.CandidatesGenerated++
					if tr != nil {
						tr.Emit(obs.Event{Ev: obs.EvCandGen, Tier: tier.Name, Res: resName,
							N: n, S: spares, Warm: warm, Cost: float64(c)})
					}
					if float64(c) < minCostAtN {
						minCostAtN = float64(c)
					}
					// Strictly dearer candidates skip evaluation;
					// equal-cost candidates still evaluate so ties
					// break toward the shorter completion time (the
					// design Fig. 7 plots).
					if best != nil && c > best.Cost {
						stats.CostPruned++
						if tr != nil {
							tr.Emit(obs.Event{Ev: obs.EvCandPrune, Tier: tier.Name, Res: resName,
								N: n, S: spares, Cost: float64(c)})
						}
						continue
					}
					if !evaluated[jc.availGroup] {
						td := s.buildJobDesign(tier, opt, n, spares, warm, jc.settings)
						// Reuse the group's packed fingerprint from
						// prepareJobCombos; only the counts vary here.
						mfp := modeFPOf(base, groupFPs[jc.availGroup], warm, spares > 0)
						fps := candFP{avail: availFPOf(mfp, td.NActive, td.MinActive, td.NSpare), mode: mfp}
						entry, err := s.evalTier(ctx, &td, fps, stats)
						if err != nil {
							return nil, err
						}
						entries[jc.availGroup] = entry
						evaluated[jc.availGroup] = true
					}
					jt, err := s.comboJobTime(jc, entries[jc.availGroup], perfAtN, n)
					if err != nil {
						return nil, err
					}
					if jt.Hours() < bestTimeAtN {
						bestTimeAtN = jt.Hours()
					}
					if jt <= maxTime &&
						(best == nil || c < best.Cost || (c == best.Cost && jt < best.JobTime)) {
						td := s.buildJobDesign(tier, opt, n, spares, warm, jc.settings)
						best = &JobCandidate{Design: td, Cost: c, JobTime: jt}
						if tr != nil {
							tr.Emit(obs.Event{Ev: obs.EvIncumbent, Tier: tier.Name, Res: resName,
								N: n, S: spares, Warm: warm, Cost: float64(c), JobH: jt.Hours()})
						}
					}
				}
			}
		}
		if best != nil && minCostAtN >= float64(best.Cost) {
			break
		}
		if best == nil {
			if bestTimeAtN >= prevBestTime {
				degrading++
				if degrading >= jobStopAfterDegrading {
					break
				}
			} else {
				degrading = 0
				prevBestTime = bestTimeAtN
			}
		}
		nVal, ok = grid.Next(nVal)
	}
	if best == incumbent {
		return nil, nil
	}
	return best, nil
}

func (s *Solver) buildJobDesign(tier *model.Tier, opt *model.ResourceOption,
	n, spares, warm int, settings []model.MechSetting) model.TierDesign {
	return model.TierDesign{
		TierName:   tier.Name,
		Option:     opt,
		NActive:    n,
		NSpare:     spares,
		NMinPerf:   n,
		MinActive:  minActiveFor(opt, n, n),
		SpareWarm:  warm,
		Mechanisms: settings,
	}
}

// comboJobTime composes the expected completion time from precomputed
// combo data and a cached availability evaluation.
func (s *Solver) comboJobTime(jc *jobCombo, entry evalEntry, perfAtN float64, n int) (units.Duration, error) {
	availability := 1 - entry.downtimeMinutes/avail.MinutesPerYear
	if availability <= 0 {
		return jobtime.MaxExpected, nil
	}
	overhead := 1.0
	for _, oh := range jc.overheads {
		f, err := oh.fn.Factor(oh.args, n)
		if err != nil {
			return 0, err
		}
		if f < 1 {
			return 0, fmt.Errorf("core: overhead factor %v below 1", f)
		}
		overhead *= f
	}
	lw := jc.lossWindow
	if !jc.hasLW {
		lw = 0 // no checkpointing: lose the whole job on failure
	}
	return jobtime.Expected(jobtime.Params{
		JobSize:        s.svc.JobSize,
		PerfPerHour:    perfAtN,
		OverheadFactor: overhead,
		LossWindow:     lw,
		SystemMTBF:     entry.sysMTBF,
		Availability:   availability,
	})
}
