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
	// lossWindow is the combo's resolved loss window; zero means no
	// checkpointing, so a failure loses the whole job.
	lossWindow units.Duration
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

// newJobProducts resolves a prepared option table's combinations into
// jobCombos grouped by availability relevance, with an empty product
// table; combos[ci] is t.cs.combos[ci], whose price and mode
// fingerprints the table holds. It also reports the number of groups.
func (s *Solver) newJobProducts(t *optionTable) (*jobProducts, int, error) {
	groups := map[fp128]int{}
	out := make([]jobCombo, 0, len(t.cs.combos))
	for ci, combo := range t.cs.combos {
		var jc jobCombo
		// Loss window via a throwaway design: it depends only on the
		// combo and the resource type.
		probe := model.TierDesign{
			TierName:   t.tier.Name,
			Option:     t.opt,
			NActive:    1,
			NMinPerf:   1,
			MinActive:  1,
			Mechanisms: combo,
		}
		lw, _, err := probe.LossWindow() // zero without checkpointing
		if err != nil {
			return nil, 0, err
		}
		jc.lossWindow = lw
		for _, mp := range t.opt.MechPerf {
			ms, ok := probe.Mechanism(mp.Mechanism)
			if !ok {
				return nil, 0, fmt.Errorf("core: tier %q: mechanism %q has a performance impact but no setting",
					t.tier.Name, mp.Mechanism)
			}
			oh, err := s.opts.Registry.Overhead(mp.Ref)
			if err != nil {
				return nil, 0, err
			}
			args := make(map[string]perf.Arg, len(ms.Values))
			for name, v := range ms.Values {
				args[name] = perf.Arg{Str: v.Str, Hours: v.Hours, IsNum: v.IsNum}
			}
			jc.overheads = append(jc.overheads, comboOverhead{fn: oh, args: args})
		}
		id, ok := groups[t.cs.fps[ci]]
		if !ok {
			id = len(groups)
			groups[t.cs.fps[ci]] = id
		}
		jc.availGroup = id
		out = append(out, jc)
	}
	return &jobProducts{
		jobSize:  s.svc.JobSize,
		combos:   out,
		overhead: make([]float64, len(out)),
		product:  make([]float64, len(t.modes)),
	}, len(groups), nil
}

// jobProducts hoists Eq. 1's availability-free product
// (jobtime.Product) out of the job walk. At one size n the throughput
// and overhead factors are fixed and the system MTBF varies only with
// the mode (availability group, warmth, spares > 0), so one product per
// (combo, mode slot) serves every spare count, and a candidate only
// divides it by its availability (jobtime.Wall). The slots are the
// option table's: 0 without spares, 1+w with spares at warmth w.
type jobProducts struct {
	jobSize float64
	combos  []jobCombo
	n       int
	perf    float64
	// overhead[ci] is combo ci's factor at n, product[slot*len(combos)+ci]
	// its product; zero until first needed (valid values are positive).
	overhead []float64
	product  []float64
}

// reset moves the table to size n with throughput perf.
func (p *jobProducts) reset(n int, perf float64) {
	p.n, p.perf = n, perf
	clear(p.overhead)
	clear(p.product)
}

// jobTime reports combo ci's expected completion time in mode slot,
// on the candidate's availability evaluation e.
func (p *jobProducts) jobTime(ci, slot int, e evalEntry) (units.Duration, error) {
	availability := 1 - e.downtimeMinutes/avail.MinutesPerYear
	if availability <= 0 {
		return jobtime.MaxExpected, nil
	}
	k := slot*len(p.combos) + ci
	if p.product[k] == 0 {
		if p.overhead[ci] == 0 {
			f := 1.0
			for _, oh := range p.combos[ci].overheads {
				g, err := oh.fn.Factor(oh.args, p.n)
				if err != nil {
					return 0, err
				}
				if g < 1 {
					return 0, fmt.Errorf("core: overhead factor %v below 1", g)
				}
				f *= g
			}
			p.overhead[ci] = f
		}
		var err error
		p.product[k], err = jobtime.Product(jobtime.Params{
			JobSize:        p.jobSize,
			PerfPerHour:    p.perf,
			OverheadFactor: p.overhead[ci],
			LossWindow:     p.combos[ci].lossWindow,
			SystemMTBF:     e.sysMTBF,
		})
		if err != nil {
			return 0, err
		}
	}
	return jobtime.Wall(p.product[k], availability)
}

func (s *Solver) searchJobOption(ctx context.Context, tier *model.Tier, opt *model.ResourceOption, maxTime units.Duration,
	incumbent *JobCandidate, stats *searchStats) (*JobCandidate, error) {

	t, err := s.optionTable(tier, opt)
	if err != nil {
		return nil, err
	}
	if err := t.prepare(s); err != nil {
		return nil, err
	}
	products, groupCount, err := s.newJobProducts(t)
	if err != nil {
		return nil, err
	}

	tr := s.opts.Tracer
	resName := opt.ResourceType().Name
	done := ctx.Done()
	best := incumbent
	prevBestTime := math.Inf(1)
	degrading := 0
	entries := make([]evalEntry, groupCount)
	evaluated := make([]bool, groupCount)
	nVal, ok := opt.NActive.Lo(), true
	for ok {
		n := int(math.Round(nVal))
		if t.maxTotal > 0 && n > t.maxTotal {
			break
		}
		products.reset(n, t.curve.Throughput(n))
		minCostAtN := math.Inf(1)
		bestAtN := units.Duration(math.MaxInt64)
		for spares := 0; spares <= s.opts.MaxRedundancy; spares++ {
			if t.maxTotal > 0 && n+spares > t.maxTotal {
				break
			}
			// The option table's mode slots: 0 without spares, 1+w
			// with spares at warmth w.
			warms, slot0 := warmZeroLevels, 0
			if spares > 0 {
				warms, slot0 = t.warmSpare, 1
			}
			for _, warm := range warms {
				slot := slot0 + warm
				clear(evaluated)
				for ci := range products.combos {
					g := products.combos[ci].availGroup
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
					c := t.cs.price(n, spares, warm, ci)
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
					if !evaluated[g] {
						td := s.buildJobDesign(tier, opt, n, spares, warm, t.cs.combos[ci])
						// The table holds the mode fingerprint; only the
						// counts vary here.
						mfp := t.modes[slot*len(t.cs.combos)+ci]
						fps := candFP{avail: availFPOf(mfp, td.NActive, td.MinActive, td.NSpare), mode: mfp}
						entry, err := s.evalTier(ctx, &td, fps, stats)
						if err != nil {
							return nil, err
						}
						entries[g] = entry
						evaluated[g] = true
					}
					jt, err := products.jobTime(ci, slot, entries[g])
					if err != nil {
						return nil, err
					}
					if jt < bestAtN {
						bestAtN = jt
					}
					if jt <= maxTime &&
						(best == nil || c < best.Cost || (c == best.Cost && jt < best.JobTime)) {
						td := s.buildJobDesign(tier, opt, n, spares, warm, t.cs.combos[ci])
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
			// With no incumbent nothing was pruned, so bestAtN is set.
			// Hours is monotone, so converting the least job time once
			// gives the least candidate's hours.
			if bestTimeAtN := bestAtN.Hours(); bestTimeAtN >= prevBestTime {
				degrading++
				if degrading >= jobStopAfterDegrading {
					break
				}
			} else {
				degrading = 0
				prevBestTime = bestTimeAtN
			}
		}
		nVal, ok = opt.NActive.Next(nVal)
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
