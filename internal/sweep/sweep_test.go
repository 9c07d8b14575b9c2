package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"aved/internal/core"
	"aved/internal/model"
	"aved/internal/scenarios"
	"aved/internal/units"
)

func appSolver(t *testing.T) *core.Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.ApplicationTier(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{Registry: scenarios.Registry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sciSolver(t *testing.T) *core.Solver {
	t.Helper()
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSolver(inf, svc, core.Options{
		Registry: scenarios.Registry(),
		FixedMechanisms: map[string]map[string]model.ParamValue{
			"maintenanceA": {"level": model.EnumValue("bronze")},
			"maintenanceB": {"level": model.EnumValue("bronze")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGrids(t *testing.T) {
	g, err := LogGrid(0.1, 10000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 0.1 || g[len(g)-1] < 9999 || g[len(g)-1] > 10001 {
		t.Errorf("log grid endpoints = %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Error("log grid not increasing")
		}
	}
	l, err := LinGrid(400, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l[0] != 400 || l[4] != 5000 {
		t.Errorf("lin grid endpoints = %v", l)
	}
	if _, err := LogGrid(0, 1, 3); err == nil {
		t.Error("LogGrid with zero lower bound should fail")
	}
	if _, err := LogGrid(2, 1, 3); err == nil {
		t.Error("LogGrid with inverted bounds should fail")
	}
	if _, err := LinGrid(1, 0, 3); err == nil {
		t.Error("LinGrid with inverted bounds should fail")
	}
	if _, err := LinGrid(0, 1, 1); err == nil {
		t.Error("grids need at least 2 points")
	}
}

func TestFig6SmallSweep(t *testing.T) {
	solver := appSolver(t)
	loads := []float64{400, 1400, 3200}
	budgets := []float64{10, 100, 1000, 8000}
	res, err := Fig6(context.Background(), solver, loads, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// Multiple distinct families appear across the plane (the paper
	// finds 17 over the full grid).
	fams := map[Family]bool{}
	for _, p := range res.Points {
		fams[p.Family] = true
		if p.DowntimeMinutes > p.BudgetMinutes {
			t.Errorf("point (%v, %v): downtime %v over budget", p.Load, p.BudgetMinutes, p.DowntimeMinutes)
		}
		if !strings.HasPrefix(p.Stack, "machineA") {
			t.Errorf("machineB stack selected: %s", p.Stack)
		}
	}
	if len(fams) < 3 {
		t.Errorf("distinct families = %d, want several", len(fams))
	}
	if len(res.Curves) != len(fams) {
		t.Errorf("curves = %d, families = %d", len(res.Curves), len(fams))
	}
	// Curves are ordered top (worst downtime) to bottom.
	for i := 1; i < len(res.Curves); i++ {
		if curveOrder(res.Curves[i]) > curveOrder(res.Curves[i-1]) {
			t.Error("curves not ordered by downtime")
		}
	}
	// Within a family, downtime grows with load.
	for _, c := range res.Curves {
		for i := 1; i < len(c.Downtimes); i++ {
			if c.Downtimes[i] <= c.Downtimes[i-1] {
				t.Errorf("family %v: downtime not increasing with load: %v", c.Family, c.Downtimes)
			}
		}
	}
}

func TestFig7SmallSweep(t *testing.T) {
	solver := sciSolver(t)
	reqs := []float64{2, 20, 200, 1000}
	res, err := Fig7(context.Background(), solver, reqs)
	if err != nil {
		t.Fatal(err)
	}
	points := res.Points
	if len(points) < 3 {
		t.Fatalf("points = %d, want most requirements feasible", len(points))
	}
	// Tightest feasible requirement uses machineB, loosest machineA.
	first, last := points[0], points[len(points)-1]
	if first.Resource != "rI" {
		t.Errorf("tight requirement resource = %s, want rI", first.Resource)
	}
	if last.Resource != "rH" {
		t.Errorf("relaxed requirement resource = %s, want rH", last.Resource)
	}
	// Resource count decreases and cost decreases as requirements relax
	// within a resource type.
	for i := 1; i < len(points); i++ {
		if points[i].Resource == points[i-1].Resource {
			if points[i].NActive > points[i-1].NActive {
				t.Errorf("resource count grew when relaxing: %+v → %+v", points[i-1], points[i])
			}
		}
		if points[i].Cost > points[i-1].Cost {
			t.Errorf("cost grew when relaxing: %v → %v", points[i-1].Cost, points[i].Cost)
		}
		if points[i].JobTimeHours > points[i].RequirementHours {
			t.Errorf("point %d misses its requirement", i)
		}
	}
	// Checkpoint interval grows toward the relaxed end.
	if last.CheckpointHours <= first.CheckpointHours {
		t.Errorf("checkpoint interval should grow: %v → %v", first.CheckpointHours, last.CheckpointHours)
	}
	for _, p := range points {
		if p.StorageLocation != "central" && p.StorageLocation != "peer" {
			t.Errorf("bad storage location %q", p.StorageLocation)
		}
	}
}

func TestFig8SmallSweep(t *testing.T) {
	solver := appSolver(t)
	curves, err := Fig8(context.Background(), solver, []float64{400, 1600}, []float64{1, 10, 100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		if c.BaselineCost <= 0 {
			t.Errorf("load %v: baseline cost %v", c.Load, c.BaselineCost)
		}
		if len(c.Points) == 0 {
			t.Fatalf("load %v: no feasible points", c.Load)
		}
		// Premium decreases (weakly) as the budget relaxes, and is
		// non-negative.
		for i, p := range c.Points {
			if p.ExtraCost < 0 {
				t.Errorf("load %v budget %v: negative premium %v", c.Load, p.BudgetMinutes, p.ExtraCost)
			}
			if i > 0 && p.ExtraCost > c.Points[i-1].ExtraCost {
				t.Errorf("load %v: premium grew from %v to %v while relaxing",
					c.Load, c.Points[i-1].ExtraCost, p.ExtraCost)
			}
		}
	}
	// Higher load pays at least as much for a 1-minute bound (the
	// paper's curves order by load at the tight end).
	tight0 := curves[0].Points[0].ExtraCost
	tight1 := curves[1].Points[0].ExtraCost
	if tight1 < tight0 {
		t.Errorf("premium at load 1600 (%v) below load 400 (%v)", tight1, tight0)
	}
}

func TestFamilyOfAndString(t *testing.T) {
	solver := appSolver(t)
	sol, err := solver.Solve(model.Requirements{
		Kind:              model.ReqEnterprise,
		Throughput:        1000,
		MaxAnnualDowntime: 100 * 60 * 1e9, // 100 minutes in Duration ticks
	})
	if err != nil {
		t.Fatal(err)
	}
	td := &sol.Design.Tiers[0]
	fam := FamilyOf(td)
	if fam.Resource != "rC" || fam.NExtra != 1 || fam.NSpare != 0 {
		t.Errorf("family = %+v", fam)
	}
	if !strings.Contains(fam.Mechanisms, "maintenanceA=bronze") {
		t.Errorf("family mechanisms = %q", fam.Mechanisms)
	}
	str := fam.String()
	if !strings.Contains(str, "rC") || !strings.Contains(str, "1, 0") {
		t.Errorf("family string = %q", str)
	}
	if got := Stack(td); got != "machineA/linux/appserverA" {
		t.Errorf("stack = %q", got)
	}
}

func TestSweepInputValidation(t *testing.T) {
	solver := appSolver(t)
	if _, err := Fig6(context.Background(), solver, nil, []float64{1}); err == nil {
		t.Error("Fig6 empty loads should fail")
	}
	if _, err := Fig7(context.Background(), sciSolver(t), nil); err == nil {
		t.Error("Fig7 empty grid should fail")
	}
	if _, err := Fig8(context.Background(), solver, nil, nil); err == nil {
		t.Error("Fig8 empty grids should fail")
	}
}

// TestFig7InfeasibleLevelStats: a job-time level no design meets has no
// point, but its search effort comes back in InfeasibleStats, in grid
// order, and it is real effort — candidates generated and evaluations
// run — so the CLI's totals count it instead of inferring the level.
func TestFig7InfeasibleLevelStats(t *testing.T) {
	reqs := []float64{1, 200}
	res, err := Fig7(context.Background(), sciSolver(t), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || len(res.InfeasibleStats) != 1 {
		t.Fatalf("%d points and %d infeasible levels, want 1 and 1", len(res.Points), len(res.InfeasibleStats))
	}
	st := res.InfeasibleStats[0]
	if st.CandidatesGenerated == 0 || st.Evaluations == 0 {
		t.Errorf("infeasible level carries %d candidates and %d evaluations, want both non-zero",
			st.CandidatesGenerated, st.Evaluations)
	}
	var tot Totals
	for _, p := range res.Points {
		tot.Add(p.Stats)
	}
	for _, st := range res.InfeasibleStats {
		tot.AddInfeasible(st)
	}
	if tot.Points+tot.Infeasible != len(reqs) {
		t.Errorf("totals count %d points and %d infeasible levels over %d levels", tot.Points, tot.Infeasible, len(reqs))
	}
}

// TestFig7LevelsMatchColdSolves: Fig. 7's levels, solved in order on
// one solver, each equal a cold solve on a fresh solver — the same
// design, cost and job time from the same search effort, with the
// evaluations a later level finds in the earlier levels' cache entries
// replayed rather than run — and Fig7 reports exactly those solutions.
func TestFig7LevelsMatchColdSolves(t *testing.T) {
	inf, err := scenarios.Infrastructure()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := scenarios.Scientific(inf)
	if err != nil {
		t.Fatal(err)
	}
	newSolver := func() *core.Solver {
		s, err := core.NewSolver(inf, svc, core.Options{
			Registry: scenarios.Registry(),
			FixedMechanisms: map[string]map[string]model.ParamValue{
				"maintenanceA": {"level": model.EnumValue("bronze")},
				"maintenanceB": {"level": model.EnumValue("bronze")},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sameEffort := func(h float64, got, cold core.Stats) {
		t.Helper()
		if got.CandidatesGenerated != cold.CandidatesGenerated || got.CostPruned != cold.CostPruned ||
			got.BoundPruned != cold.BoundPruned ||
			got.Evaluations+got.EvalCacheHits != cold.Evaluations+cold.EvalCacheHits {
			t.Errorf("%vh: effort %+v, cold %+v", h, got, cold)
		}
		if cold.WarmStartReuse != 0 {
			t.Errorf("%vh: cold solve replayed %d evaluations", h, cold.WarmStartReuse)
		}
	}
	hours := []float64{1, 30, 45, 70, 110, 200} // no design completes the job in 1 h
	shared := newSolver()
	want := &Fig7Result{}
	for i, h := range hours {
		req := model.Requirements{Kind: model.ReqJob, MaxJobTime: units.FromHours(h)}
		sol, err := shared.Solve(req)
		cold, coldErr := newSolver().Solve(req)
		var infErr, coldInf *core.InfeasibleError
		switch {
		case err == nil && coldErr == nil:
		case errors.As(err, &infErr) && errors.As(coldErr, &coldInf):
			sameEffort(h, infErr.Stats, coldInf.Stats)
			want.InfeasibleStats = append(want.InfeasibleStats, infErr.Stats)
			continue
		default:
			t.Fatalf("%vh: level error %v, cold error %v", h, err, coldErr)
		}
		if !reflect.DeepEqual(sol.Design, cold.Design) || sol.Cost != cold.Cost || sol.JobTime != cold.JobTime {
			t.Errorf("%vh: (%s, %v, %v), cold (%s, %v, %v)", h,
				sol.Design.Label(), sol.Cost, sol.JobTime, cold.Design.Label(), cold.Cost, cold.JobTime)
		}
		sameEffort(h, sol.Stats, cold.Stats)
		if i > 0 && sol.Stats.WarmStartReuse == 0 {
			t.Errorf("%vh: level %d replayed no earlier level's evaluation", h, i)
		}
		want.Points = append(want.Points, newFig7Point(h, sol))
	}
	if len(want.Points) != len(hours)-1 || len(want.InfeasibleStats) != 1 {
		t.Fatalf("%d points and %d infeasible levels, want %d and 1", len(want.Points), len(want.InfeasibleStats), len(hours)-1)
	}
	got, err := Fig7(context.Background(), newSolver(), hours)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Fig7 = %+v, want the in-order solutions %+v", got, want)
	}
}
