// Package cli holds the front end the aved command-line tools share:
// the availability-engine flags, the observability output flags, the
// -timeout deadline, and the phase table printed as comment lines.
// Each tool declares its own remaining flags, -workers included.
package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"aved"
)

// Flags are the shared flags, read after the flag set is parsed.
type Flags struct {
	engine   string
	seed     int64
	years    float64
	reps     int
	relErr   float64
	simBatch int

	timeout                           time.Duration
	tracePath, metricsPath, debugAddr string
}

// Register declares the shared flags on fs. reps is the -reps default.
func Register(fs *flag.FlagSet, reps int) *Flags {
	f := &Flags{}
	fs.StringVar(&f.engine, "engine", "markov", "availability engine: markov, exact or sim")
	fs.Int64Var(&f.seed, "seed", 1, "simulation seed (-engine sim)")
	fs.Float64Var(&f.years, "years", 1000, "simulated years per replication (-engine sim)")
	fs.IntVar(&f.reps, "reps", reps, "simulation replication budget (-engine sim)")
	fs.Float64Var(&f.relErr, "relerr", 0, "adaptive precision: stop replicating once the 95% CI half-width is under this fraction of the mean (0 = full -reps budget)")
	fs.IntVar(&f.simBatch, "simbatch", 0, "adaptive replication batch size (0 = engine default)")
	fs.DurationVar(&f.timeout, "timeout", 0, "abort the run after this long, e.g. 30s (0 = no limit)")
	fs.StringVar(&f.tracePath, "trace", "", "write a JSONL trace to this file")
	fs.StringVar(&f.metricsPath, "metrics", "", "write a metrics snapshot to this file on exit (.prom = Prometheus text, else JSON)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve pprof, expvar and /metrics on this address, e.g. :6060")
	return f
}

// EngineSpec is the engine the flags select, replicating on workers.
func (f *Flags) EngineSpec(workers int) aved.EngineSpec {
	return aved.EngineSpec{Name: f.engine, Seed: f.seed, Years: f.years, Reps: f.reps,
		Workers: workers, RelErr: f.relErr, SimBatch: f.simBatch}
}

// Engine builds the selected engine; nil keeps the solver default.
func (f *Flags) Engine(workers int) (aved.Engine, error) {
	return aved.NewEngine(f.EngineSpec(workers))
}

// Run opens the observability outputs and the -timeout deadline, runs
// body under them, then closes the outputs. A close error is returned
// only when body succeeded.
func (f *Flags) Run(body func(ctx context.Context, setup *aved.ObsSetup) error) error {
	setup, err := aved.NewObsSetup(f.tracePath, f.metricsPath, f.debugAddr)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}
	err = body(ctx, setup)
	if cerr := setup.Close(); err == nil {
		err = cerr
	}
	return err
}

// PhaseComments writes the -timings phase table as "# " comment
// lines, so tab-separated data rows above it stay machine-readable.
func PhaseComments(out io.Writer, phaseNanos map[string]int64) {
	var buf bytes.Buffer
	aved.WritePhaseTable(&buf, phaseNanos)
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		fmt.Fprintf(out, "# %s\n", line)
	}
}
