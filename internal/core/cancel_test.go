package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"aved/internal/avail"
	"aved/internal/model"
	"aved/internal/obs"
	"aved/internal/units"
)

// slowEngine wraps the analytic engine with a fixed per-evaluation
// delay, so a short deadline reliably expires mid-search regardless of
// how fast the host machine is.
type slowEngine struct {
	inner avail.Engine
	delay time.Duration
}

func (e slowEngine) Evaluate(tms []avail.TierModel) (avail.Result, error) {
	time.Sleep(e.delay)
	return e.inner.Evaluate(tms)
}

func TestSolveContextDeadlineExceeded(t *testing.T) {
	s := appTierSolver(t, Options{Engine: slowEngine{avail.NewMarkovEngine(), 2 * time.Millisecond}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	sol, err := s.SolveContext(ctx, enterpriseReq(1000, 100))
	elapsed := time.Since(start)
	if sol != nil {
		t.Fatalf("got a solution despite the 1ms deadline: %+v", sol)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Promptness: the per-batch checks must stop the search within a
	// few engine evaluations, not after draining the full design space
	// (an unconstrained solve of this point takes far longer than this).
	if elapsed > 2*time.Second {
		t.Fatalf("solve took %v to honor a 1ms deadline", elapsed)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CanceledError", err, err)
	}
	if !errors.Is(ce.Err, context.DeadlineExceeded) {
		t.Errorf("CanceledError.Err = %v, want context.DeadlineExceeded", ce.Err)
	}
	// The slow engine guarantees at least one candidate was generated
	// before the deadline hit, so the partial stats must show progress.
	if ce.Stats.CandidatesGenerated == 0 {
		t.Error("CanceledError.Stats shows no candidates generated before the abort")
	}
}

// TestSolveChainDeadline pins cancellation through a budget chain: the
// first cell, the tightest budget, hands its CanceledError to visit,
// and the chain stops with the error visit returns.
func TestSolveChainDeadline(t *testing.T) {
	s := appTierSolver(t, Options{Engine: slowEngine{avail.NewMarkovEngine(), 2 * time.Millisecond}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var visited []int
	err := s.SolveChain(ctx, enterpriseReq(1000, 0), []units.Duration{200 * units.Minute, 100 * units.Minute},
		func(i int, sol *Solution, err error) error {
			visited = append(visited, i)
			if sol != nil {
				t.Errorf("cell %d: got a solution despite the 1ms deadline", i)
			}
			return err
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CanceledError", err, err)
	}
	if len(visited) != 1 || visited[0] != 1 {
		t.Errorf("visited cells %v, want [1]: the tightest budget only", visited)
	}
}

func TestSolveContextPreCanceled(t *testing.T) {
	s := appTierSolver(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.SolveContext(ctx, enterpriseReq(1000, 100))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSolveContextJobDeadline(t *testing.T) {
	s := scientificSolver(t, Options{Engine: slowEngine{avail.NewMarkovEngine(), 2 * time.Millisecond}})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.SolveContext(ctx, model.Requirements{Kind: model.ReqJob, MaxJobTime: 50 * units.Hour})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("job solve err = %v, want context.DeadlineExceeded", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("job solve err = %v (%T), want *CanceledError", err, err)
	}
}

// TestCanceledSolveDoesNotPoisonCache pins that the evaluation cache
// stores no context error: a later, un-cancelled solve of the same
// design point must evaluate it afresh.
func TestCanceledSolveDoesNotPoisonCache(t *testing.T) {
	s := appTierSolver(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveContext(ctx, enterpriseReq(1000, 100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve err = %v, want context.Canceled", err)
	}
	sol, err := s.Solve(enterpriseReq(1000, 100))
	if err != nil {
		t.Fatalf("follow-up solve failed after a canceled one: %v", err)
	}
	if sol == nil || len(sol.Design.Tiers) == 0 {
		t.Fatal("follow-up solve returned an empty solution")
	}
}

func TestCanceledSolveMetric(t *testing.T) {
	reg := obs.NewRegistry()
	s := appTierSolver(t, Options{Metrics: reg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveContext(ctx, enterpriseReq(1000, 100)); err == nil {
		t.Fatal("canceled solve unexpectedly succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["core.solve_canceled"]; got != 1 {
		t.Errorf("core.solve_canceled = %d, want 1", got)
	}
	if got := snap.Counters["core.solve_errors"]; got != 1 {
		t.Errorf("core.solve_errors = %d, want 1", got)
	}
}

func TestCanceledErrorUnwrap(t *testing.T) {
	ce := &CanceledError{Err: context.DeadlineExceeded}
	if !errors.Is(ce, context.DeadlineExceeded) {
		t.Error("CanceledError does not unwrap to its context error")
	}
	if ce.Error() == "" {
		t.Error("empty Error() string")
	}
}
