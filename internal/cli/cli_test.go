package cli

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aved"
)

func parse(t *testing.T, reps int, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, reps)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEngineSpecFromFlags(t *testing.T) {
	got := parse(t, 8).EngineSpec(0)
	want := aved.EngineSpec{Name: "markov", Seed: 1, Years: 1000, Reps: 8}
	if got != want {
		t.Errorf("defaults: got %+v, want %+v", got, want)
	}
	got = parse(t, 32, "-engine", "sim", "-seed", "3", "-years", "5", "-reps", "7",
		"-relerr", "0.1", "-simbatch", "2").EngineSpec(4)
	want = aved.EngineSpec{Name: "sim", Seed: 3, Years: 5, Reps: 7, Workers: 4, RelErr: 0.1, SimBatch: 2}
	if got != want {
		t.Errorf("set: got %+v, want %+v", got, want)
	}
	if _, err := parse(t, 32, "-engine", "bogus").Engine(0); err == nil ||
		err.Error() != `unknown engine "bogus" (want markov, exact or sim)` {
		t.Errorf("unknown engine error = %v", err)
	}
}

// TestRunClosesOutputs: Run writes the metrics file once body returns,
// and body's own error wins over a close error.
func TestRunClosesOutputs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	f := parse(t, 32, "-metrics", path, "-timeout", "1h")
	err := f.Run(func(ctx context.Context, setup *aved.ObsSetup) error {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("-timeout set no deadline")
		}
		setup.Metrics.Counter("test.runs").Inc()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.Contains(string(b), `"test.runs": 1`) {
		t.Errorf("metrics file %q (%v) lacks the counter", b, err)
	}

	f = parse(t, 32, "-metrics", filepath.Join(t.TempDir(), "missing", "m.json"))
	bodyErr := errors.New("body failed")
	if err := f.Run(func(context.Context, *aved.ObsSetup) error { return bodyErr }); err != bodyErr {
		t.Errorf("Run = %v, want the body's error", err)
	}
	if err := f.Run(func(context.Context, *aved.ObsSetup) error { return nil }); err == nil {
		t.Error("Run hid the metrics write error")
	}
}

func TestPhaseComments(t *testing.T) {
	var sb strings.Builder
	PhaseComments(&sb, map[string]int64{"bind": 2e6, "eval": 1e6})
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines:\n%s", len(lines), sb.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "# ") {
			t.Errorf("line %q is not a comment", l)
		}
	}
}
