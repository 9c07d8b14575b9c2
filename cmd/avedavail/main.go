// Command avedavail evaluates a standalone availability model (§4.2)
// through Aved's engines — the workflow the paper describes for
// external availability evaluation engines: Aved exports the model,
// the engine computes expected annual downtime.
//
// Usage:
//
//	avedavail -model design.avail                 # analytic Markov engine
//	avedavail -model design.avail -engine sim     # discrete-event simulation
//	avedavail -model design.json -format json -engine all
//
// Model files use the exchange format written by `aved -export` (text)
// or the JSON equivalent.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"aved"
	"aved/internal/cli"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "avedavail:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("avedavail", flag.ContinueOnError)
	common := cli.Register(fs, 8)
	fs.Lookup("engine").Usage += ", or all to run each in turn"
	var (
		modelPath = fs.String("model", "", "availability model file")
		format    = fs.String("format", "text", "model format: text or json")
		workers   = fs.Int("workers", 0, "replication worker count: 0 = all CPUs, 1 = sequential (results are identical)")
		mission   = fs.Float64("mission", 0, "also report finite-horizon downtime for a mission of this many years")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *modelPath == "" {
		return fmt.Errorf("need -model file")
	}
	tms, err := readModel(*modelPath, *format)
	if err != nil {
		return err
	}
	spec := common.EngineSpec(*workers)
	names := []string{spec.Name}
	if spec.Name == "all" || spec.Name == "both" {
		names = aved.EngineNames()
	}
	return common.Run(func(ctx context.Context, setup *aved.ObsSetup) error {
		if *mission > 0 {
			for i := range tms {
				md, err := aved.MissionDowntime(&tms[i], *mission)
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "[mission %gy] tier %-14s %.2f min/yr (all-up start)\n", *mission, tms[i].Name, md)
			}
		}
		for _, name := range names {
			spec.Name = name
			eng, err := aved.NewEngine(spec)
			if err != nil {
				return err
			}
			if eng == nil {
				eng = aved.MarkovEngine()
			}
			// No solver sits in front of the engine here, so attach the
			// observability outputs to the engine directly.
			aved.InstrumentEngine(eng, setup.Metrics, setup.Tracer)
			res, err := aved.EvaluateModel(ctx, eng, tms)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "[%s] availability %.6f%%  downtime %.2f min/yr\n",
				name, res.Availability*100, res.DowntimeMinutes)
			for _, tr := range res.Tiers {
				fmt.Fprintf(out, "  tier %-14s %.2f min/yr\n", tr.Name, tr.DowntimeMinutes)
				for _, mc := range tr.Contributions {
					fmt.Fprintf(out, "    %-24s %.2f min/yr (%.2f events/yr)\n",
						mc.Name, mc.Minutes(), mc.EventsPerYear)
				}
			}
		}
		return nil
	})
}

// readModel parses an availability model file in the given format.
func readModel(path, format string) ([]aved.TierModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "text":
		return aved.ReadAvailabilityModel(f)
	case "json":
		return aved.ReadAvailabilityModelJSON(f)
	}
	return nil, fmt.Errorf("unknown -format %q (want text or json)", format)
}
