// Command copse-bench regenerates the paper's evaluation: every table
// and figure of §8, using the shared harness in internal/experiments.
//
// Usage:
//
//	copse-bench -exp all                      # everything, clear backend
//	copse-bench -exp fig6 -queries 27
//	copse-bench -exp fig10a -backend bgv      # real ciphertexts (slow)
//
// The repository's performance benchmark is a separate harness, `go run
// ./bench` (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"copse/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("copse-bench: ")

	exp := flag.String("exp", "all", "experiment id: table1,table2,table3,table4,table5,table6,fig6,fig7,fig8,fig9,fig10a,fig10b,fig10c,ablation or all")
	backend := flag.String("backend", "clear", "clear or bgv")
	queries := flag.Int("queries", 27, "queries per model (paper: 27 medians)")
	workers := flag.Int("workers", 0, "threads for multithreaded runs (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 1, "harness seed")
	scale := flag.Float64("scale", 1, "real-world model scale (shrink for quick runs)")
	opcase := flag.String("opcase", "width78", "model used for table1/table2 op counts")
	models := flag.String("models", "", "comma-separated model filter (default: all)")
	flag.Parse()

	cfg := experiments.Config{
		Backend:        *backend,
		Queries:        *queries,
		Workers:        *workers,
		Seed:           *seed,
		RealWorldScale: *scale,
	}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}

	runners := map[string]func() (*experiments.Table, error){
		"table1":   func() (*experiments.Table, error) { return experiments.Table1(cfg, *opcase) },
		"table2":   func() (*experiments.Table, error) { return experiments.Table2(cfg, *opcase) },
		"table3":   func() (*experiments.Table, error) { return experiments.Table3(), nil },
		"table4":   func() (*experiments.Table, error) { return experiments.Table4(), nil },
		"table5":   func() (*experiments.Table, error) { return experiments.Table5(cfg) },
		"table6":   func() (*experiments.Table, error) { return experiments.Table6() },
		"fig6":     func() (*experiments.Table, error) { return experiments.Fig6(cfg) },
		"fig7":     func() (*experiments.Table, error) { return experiments.Fig7(cfg) },
		"fig8":     func() (*experiments.Table, error) { return experiments.Fig8(cfg) },
		"fig9":     func() (*experiments.Table, error) { return experiments.Fig9(cfg) },
		"fig10a":   func() (*experiments.Table, error) { return experiments.Fig10(cfg, "a") },
		"fig10b":   func() (*experiments.Table, error) { return experiments.Fig10(cfg, "b") },
		"fig10c":   func() (*experiments.Table, error) { return experiments.Fig10(cfg, "c") },
		"ablation": func() (*experiments.Table, error) { return experiments.Ablation(cfg) },
	}
	order := []string{
		"table6", "table3", "table4", "table1", "table2", "table5",
		"fig6", "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig10c", "ablation",
	}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if _, ok := runners[id]; !ok {
				log.Fatalf("unknown experiment %q (have: %s, all)", id, strings.Join(order, ", "))
			}
			ids = append(ids, id)
		}
	}

	fmt.Printf("COPSE reproduction harness: backend=%s queries=%d seed=%d scale=%g\n\n",
		cfg.Backend, cfg.Queries, cfg.Seed, *scale)
	for _, id := range ids {
		start := time.Now()
		tbl, err := runners[id]()
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
