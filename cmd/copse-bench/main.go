// Command copse-bench regenerates the paper's evaluation: every table
// and figure of §8, using the shared harness in internal/experiments.
//
// Usage:
//
//	copse-bench -exp all                      # everything, clear backend
//	copse-bench -exp fig6 -queries 27
//	copse-bench -exp fig10a -backend bgv      # real ciphertexts (slow)
//	copse-bench -exp table6 -servejson BENCH_serving.json   # serving throughput
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"copse/internal/experiments"
	"copse/internal/ring"
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
	rotJSON := flag.String("rotjson", "", "also write machine-readable stage timings + op counts to this file")
	serveJSON := flag.String("servejson", "", "also write serving throughput (queries/sec at batch sizes 1, 4, max) to this file (e.g. BENCH_serving.json)")
	levelJSON := flag.String("leveljson", "", "also write the level-scheduling record (per-stage limbs + limb-op integrals, planned vs -nolevelplan, BGV backend) to this file (e.g. BENCH_levels.json)")
	noLevelPlan := flag.Bool("nolevelplan", false, "disable static level scheduling (reactive noise management; the DESIGN.md §8 ablation)")
	nttJSON := flag.String("nttjson", "", "also write the ring-kernel record (unfused vs fused vs vector transforms, vector-vs-scalar classify ablation, Galois-key budget) to this file (e.g. BENCH_ntt.json)")
	shuffleJSON := flag.String("shufflejson", "", "also write the result-shuffle record (per-query shuffle cost at B=1 vs one batched pass at B=max, clear and BGV backends, rotation budget) to this file (e.g. BENCH_shuffle.json)")
	aggJSON := flag.String("aggjson", "", "also write the dynamic-batching record (closed-loop 16-client throughput, batcher on vs off, clear plus BGV with -backend bgv) to this file (e.g. BENCH_agg.json)")
	clusterJSON := flag.String("clusterjson", "", "also write the sharded-serving record (2-worker gateway/worker cluster over loopback HTTP vs single node, bit-identity witness plus fan-out/merge overhead, BGV) to this file (e.g. BENCH_cluster.json)")
	secure128 := flag.Bool("secure128", false, "with -nttjson: also run the offline Security128 (N=32768) end-to-end classify (slow)")
	noVec := flag.Bool("novec", false, "disable the ring layer's vectorized (SIMD) kernels for every run in this process — the scalar-kernel ablation (results are bit-identical either way)")
	flag.Parse()

	if *noVec {
		ring.SetVectorKernels(false)
	}

	cfg := experiments.Config{
		Backend:        *backend,
		Queries:        *queries,
		Workers:        *workers,
		Seed:           *seed,
		RealWorldScale: *scale,
		NoLevelPlan:    *noLevelPlan,
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

	if *rotJSON != "" {
		report, err := experiments.RotationReport(cfg)
		if err != nil {
			log.Fatalf("rotation report: %v", err)
		}
		f, err := os.Create(*rotJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *rotJSON)
	}

	if *serveJSON != "" {
		report, err := experiments.ServingReport(cfg)
		if err != nil {
			log.Fatalf("serving report: %v", err)
		}
		f, err := os.Create(*serveJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *serveJSON)
	}

	if *levelJSON != "" {
		report, err := experiments.LevelReport(cfg)
		if err != nil {
			log.Fatalf("level report: %v", err)
		}
		f, err := os.Create(*levelJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *levelJSON)
	}

	if *shuffleJSON != "" {
		report, err := experiments.ShuffleReport(cfg)
		if err != nil {
			log.Fatalf("shuffle report: %v", err)
		}
		f, err := os.Create(*shuffleJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *shuffleJSON)
	}

	if *aggJSON != "" {
		report, err := experiments.AggReport(cfg)
		if err != nil {
			log.Fatalf("agg report: %v", err)
		}
		f, err := os.Create(*aggJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *aggJSON)
	}

	if *clusterJSON != "" {
		report, err := experiments.ClusterReport(cfg)
		if err != nil {
			log.Fatalf("cluster report: %v", err)
		}
		f, err := os.Create(*clusterJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *clusterJSON)
	}

	if *nttJSON != "" {
		report, err := experiments.NTTReport(cfg, *secure128)
		if err != nil {
			log.Fatalf("ntt report: %v", err)
		}
		f, err := os.Create(*nttJSON)
		if err != nil {
			log.Fatal(err)
		}
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *nttJSON)
	}
}
