// Scientific-application example (§5.2): sweep the job-completion-time
// requirement and print the optimal design dimensions Fig. 7 plots —
// resource type, resource count, spares, checkpoint interval and
// storage location. Maintenance contracts are pinned to bronze as in
// the paper.
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
	svc, err := aved.PaperScientific(inf)
	if err != nil {
		return err
	}
	solver, err := aved.NewSolver(inf, svc, aved.Options{
		Registry:        aved.PaperRegistry(),
		FixedMechanisms: aved.Bronze(),
	})
	if err != nil {
		return err
	}

	grid, err := aved.LogGrid(2, 1000, 10)
	if err != nil {
		return err
	}
	res, err := aved.SweepFig7(context.Background(), solver, grid)
	if err != nil {
		return err
	}

	fmt.Println("=== Scientific application: optimal design vs execution-time requirement ===")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "req(h)\tresource\tmachines\tspares\tckpt interval\tstorage\texpected(h)\tcost")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%.1f\t%s\t%d\t%d\t%s\t%s\t%.1f\t%s\n",
			p.RequirementHours, p.Stack, p.NActive, p.NSpare,
			aved.Hours(p.CheckpointHours), p.StorageLocation, p.JobTimeHours, p.Cost)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\nThe §5.2 shapes: machineB (rI) only under tight deadlines;")
	fmt.Println("resource counts and costs fall as the requirement relaxes; the")
	fmt.Println("checkpoint interval grows with the system MTBF; central storage")
	fmt.Println("serves small clusters, peer storage large ones.")
	return nil
}
