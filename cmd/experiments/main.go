// Experiments regenerates the paper's tables and figures (Section 5).
//
// Examples:
//
//	experiments -all                # every figure and table, laptop scale
//	experiments -fig 7c             # closeness vs |Vq| on Amazon
//	experiments -fig 8d             # time vs pattern density
//	experiments -table 2            # the topology-preservation matrix
//	experiments -table 3            # match-size histogram
//	experiments -ablation           # Section 4.2 optimization ablation
//	experiments -all -scale 10      # approach the paper's sizes
//
// Output is a text table per artifact; EXPERIMENTS.md records a captured
// run against the paper's reported numbers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig      = flag.String("fig", "", "figure id: 7c..7n, 8a..8h")
		table    = flag.String("table", "", "table id: 2 or 3")
		ablation = flag.Bool("ablation", false, "run the Section 4.2 optimization ablation")
		all      = flag.Bool("all", false, "run everything")
		scale    = flag.Float64("scale", 1.0, "size multiplier (≈10 approaches the paper's sizes)")
		trials   = flag.Int("trials", 3, "patterns averaged per data point")
		seed     = flag.Int64("seed", 2011, "workload seed")
		workers  = flag.Int("workers", 1, "matcher parallelism (1 = paper-faithful sequential)")
	)
	flag.Parse()

	cfg := experiments.Defaults()
	cfg.Scale = *scale
	cfg.Trials = *trials
	cfg.Seed = *seed
	cfg.Workers = *workers

	var selected []experiments.Artifact
	pick := func(id, unknown string) {
		a, ok := experiments.ArtifactByID(id)
		if !ok {
			log.Fatal(unknown)
		}
		selected = append(selected, a)
	}
	switch {
	case *all:
		selected = experiments.Artifacts
	case *fig != "":
		pick(strings.ToLower(*fig), fmt.Sprintf("unknown figure %q", *fig))
	case *table != "":
		pick("table"+*table, fmt.Sprintf("unknown table %q", *table))
	case *ablation:
		pick("ablation", "no ablation artifact")
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, a := range selected {
		t, err := a.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", a.ID, err)
		}
		t.Format(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "done: %d artifact(s), scale=%.2f trials=%d seed=%d\n",
		len(selected), *scale, *trials, *seed)
}
