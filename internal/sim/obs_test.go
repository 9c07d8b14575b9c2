package sim

import (
	"testing"

	"aved/internal/obs"
)

// TestSimBatchEventsDeterministic: batch statistics fold in replication
// order, so the emitted sim.batch event sequence — count, cumulative
// replication marks, means, half-widths — is identical at any worker
// count.
func TestSimBatchEventsDeterministic(t *testing.T) {
	tm := adaptiveModel()
	run := func(workers int) []obs.Event {
		t.Helper()
		eng, err := NewEngine(5, 25, 2048)
		if err != nil {
			t.Fatal(err)
		}
		var tr obs.CollectTracer
		eng.WithWorkers(workers).WithPrecision(0.05, 64).InstrumentObs(nil, &tr)
		if _, err := eng.SimulateTier(&tm); err != nil {
			t.Fatal(err)
		}
		return tr.Events()
	}
	seq, par := run(1), run(8)
	if len(seq) == 0 {
		t.Fatal("no sim.batch events emitted")
	}
	if len(seq) != len(par) {
		t.Fatalf("batch event counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("batch event %d differs:\n%+v\nvs\n%+v", i, seq[i], par[i])
		}
		if seq[i].Ev != obs.EvSimBatch || seq[i].Reps == 0 {
			t.Errorf("malformed batch event: %+v", seq[i])
		}
	}
}

// TestRepStatsAndRegistry: the engine's work counters advance with the
// replications actually run and surface through a registry snapshot.
func TestRepStatsAndRegistry(t *testing.T) {
	tm := adaptiveModel()
	eng, err := NewEngine(5, 25, 256)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng.InstrumentObs(reg, nil)
	st, err := eng.SimulateTier(&tm)
	if err != nil {
		t.Fatal(err)
	}
	reps, batches := eng.RepStats()
	if reps != uint64(st.Replications) {
		t.Errorf("RepStats replications = %d, want %d", reps, st.Replications)
	}
	if batches == 0 {
		t.Error("RepStats reports no batches")
	}
	snap := reg.Snapshot()
	if snap.Counters["sim.replications"] != int64(reps) || snap.Counters["sim.batches"] != int64(batches) {
		t.Errorf("registry counters %v disagree with RepStats (%d, %d)", snap.Counters, reps, batches)
	}
}

// TestRepStatsSharedRegistry: two engines on one registry add up their
// replications and batches instead of the last one replacing the first.
func TestRepStatsSharedRegistry(t *testing.T) {
	tm := adaptiveModel()
	reg := obs.NewRegistry()
	var reps, batches uint64
	for _, n := range []int{64, 128} {
		eng, err := NewEngine(5, 25, n)
		if err != nil {
			t.Fatal(err)
		}
		eng.InstrumentObs(reg, nil)
		if _, err := eng.SimulateTier(&tm); err != nil {
			t.Fatal(err)
		}
		r, b := eng.RepStats()
		reps, batches = reps+r, batches+b
	}
	snap := reg.Snapshot()
	if snap.Counters["sim.replications"] != int64(reps) || reps != 192 || snap.Counters["sim.batches"] != int64(batches) {
		t.Errorf("registry counters %v, want the two engines' sums (%d, %d)", snap.Counters, reps, batches)
	}
}
