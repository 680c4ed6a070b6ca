// Command copse-gen produces the paper's benchmark inputs: the Table 6
// microbenchmark forests and the synthetic income/soccer datasets. It
// generates models and data to feed the pipeline; copse-compile compiles
// the models it writes.
//
// Usage:
//
//	copse-gen -suite table6 -dir models/      # eight microbenchmark forests
//	copse-gen -dataset income -rows 3000 -out income.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"copse"
	"copse/internal/synth"
	"copse/internal/train"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("copse-gen: ")

	suite := flag.String("suite", "", "generate a model suite: table6")
	dir := flag.String("dir", ".", "output directory for -suite")
	dataset := flag.String("dataset", "", "generate a dataset CSV: income or soccer")
	rows := flag.Int("rows", 3000, "dataset rows")
	seed := flag.Uint64("seed", 1, "generation seed")
	out := flag.String("out", "", "output path for -dataset (default stdout)")
	flag.Parse()

	switch {
	case *suite == "table6":
		for _, mb := range synth.Microbenchmarks() {
			forest, err := synth.Generate(mb.Spec)
			if err != nil {
				log.Fatal(err)
			}
			path := filepath.Join(*dir, mb.Name+".forest")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := copse.FormatModel(f, forest); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (depth=%d branches=%d trees=%d p=%d)\n",
				path, forest.Depth(), forest.Branches(), len(forest.Trees), forest.Precision)
		}
	case *dataset != "":
		var ds *synth.Dataset
		switch *dataset {
		case "income":
			ds = synth.Income(*rows, *seed)
		case "soccer":
			ds = synth.Soccer(*rows, *seed)
		default:
			log.Fatalf("unknown dataset %q", *dataset)
		}
		w := os.Stdout
		if *out != "" {
			var err error
			w, err = os.Create(*out)
			if err != nil {
				log.Fatal(err)
			}
			defer w.Close()
		}
		if err := train.WriteCSV(w, ds.X, ds.Y, ds.FeatureNames, ds.Labels); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -suite table6 or -dataset income|soccer (this tool generates benchmark inputs; copse-compile compiles models)")
	}
}
