// Sensitivity example: the self-managing-utility story of the paper's
// introduction. A computing utility re-runs Aved as conditions change;
// this example perturbs hardware reliability and maintenance-contract
// pricing and shows the optimal design shifting in response.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"aved"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	inf, err := aved.PaperInfrastructure()
	if err != nil {
		return err
	}
	cfg := aved.SensitivityConfig{
		ServiceSpec: `
application=ecommerce-apptier
tier=application
  resource=rC sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfC.dat
  resource=rD sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfD.dat
  resource=rE sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfE.dat
  resource=rF sizing=dynamic failurescope=resource
    nActive=[1-1000,+1] performance(nActive)=perfF.dat
`,
		Registry: aved.PaperRegistry(),
		// SolverOptions.Workers bounds how many factors solve at once;
		// zero uses all CPUs. The points are identical at any width.
		Requirement: aved.Requirements{
			Kind:              aved.ReqEnterprise,
			Throughput:        800,
			MaxAnnualDowntime: aved.Minutes(2000),
		},
	}

	fmt.Println("=== What if hardware reliability changes? (MTBF × factor) ===")
	if err := table(inf, cfg, aved.ScaleMTBF(""), []float64{0.25, 0.5, 1, 2, 4}); err != nil {
		return err
	}

	fmt.Println("\n=== What if maintenance contracts get dearer? (contract cost × factor) ===")
	if err := table(inf, cfg, aved.ScaleMechanismCost("maintenanceA"), []float64{0.5, 1, 5, 20}); err != nil {
		return err
	}

	fmt.Println("\nAt baseline pricing the gold contract carries availability; as")
	fmt.Println("contracts get dearer the optimum shifts to cheap contracts plus")
	fmt.Println("machine redundancy — the design change a self-managing utility")
	fmt.Println("would apply automatically.")
	return nil
}

func table(inf *aved.Infrastructure, cfg aved.SensitivityConfig, knob aved.SensitivityKnob, factors []float64) error {
	points, err := aved.SensitivitySweep(context.Background(), inf, cfg, knob, factors)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "factor\toptimal family\tdowntime(min)\tcost")
	for _, p := range points {
		if p.Infeasible {
			fmt.Fprintf(w, "%.2f\t(infeasible)\t\t\n", p.Factor)
			continue
		}
		fmt.Fprintf(w, "%.2f\t%s\t%.1f\t%s\n", p.Factor, p.Family, p.DowntimeMinutes, p.Cost)
	}
	return w.Flush()
}
