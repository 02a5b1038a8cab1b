// Command mpcbench regenerates the experiment tables of EXPERIMENTS.md
// (the operationalized claims of the paper — see DESIGN.md Section 5).
//
// Usage:
//
//	mpcbench                 # run the full suite
//	mpcbench -table E3       # one experiment
//	mpcbench -quick          # small sweeps
//	mpcbench -csv            # machine-readable output
package main

import (
	"flag"
	"fmt"
	"os"

	"parcolor/internal/experiments"
)

func main() {
	var (
		table    = flag.String("table", "", "experiment id (E1..E16); empty = all")
		quick    = flag.Bool("quick", false, "small sweeps")
		csv      = flag.Bool("csv", false, "CSV output")
		seed     = flag.Uint64("seed", 42, "workload seed")
		seedBits = flag.Int("seedbits", 6, "derandomization seed bits")
	)
	flag.Parse()

	cfg := experiments.Config{Quick: *quick, Seed: *seed, SeedBits: *seedBits}
	ids := experiments.IDs()
	if *table != "" {
		ids = []string{*table}
	}
	for _, id := range ids {
		t, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", t.ID, t.Title, t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
}
