// Command copse-run serves secure inference from a compiled artifact: it
// stages the model onto a copse.Service, slot-packs the requested
// queries into as few homomorphic passes as possible, and reports the
// results, the per-pass timing, and what the server could infer from
// ciphertext shapes alone.
//
// Usage:
//
//	copse-run -artifact income5.copse -queries 30,9,40,0,0,3,7,1
//	copse-run -artifact m.copse -queries "3,5;0,7;12,2" -backend clear
//	copse-run -artifact m.copse -queries 3,5 -scenario servermodel
//
// -queries takes one or more semicolon-separated feature vectors. On
// bgv the ring is the one the artifact's slot count picks.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"copse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("copse-run: ")

	artifact := flag.String("artifact", "", "compiled model artifact")
	queryArg := flag.String("queries", "", "semicolon-separated feature vectors, each comma-separated")
	backendArg := flag.String("backend", "bgv", "bgv or clear")
	scenarioArg := flag.String("scenario", "offload", "offload, servermodel, or clienteval")
	workers := flag.Int("workers", 0, "goroutines per classification pass (0 = GOMAXPROCS, 1 = sequential)")
	seed := flag.Uint64("seed", 0, "deterministic keys/encryption when non-zero")
	flag.Parse()

	if *artifact == "" || *queryArg == "" {
		log.Fatal("need -artifact FILE and -queries LIST[;LIST...]")
	}
	queries, err := parseQueries(*queryArg)
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Open(*artifact)
	if err != nil {
		log.Fatal(err)
	}
	compiled, err := copse.ReadArtifact(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	kind, err := copse.ParseBackend(*backendArg)
	if err != nil {
		log.Fatal(err)
	}
	scenario, err := copse.ParseScenario(*scenarioArg)
	if err != nil {
		log.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithWorkers(*workers),
		copse.WithSeed(*seed),
		copse.WithBackend(kind),
		copse.WithScenario(scenario),
	)
	const model = "model"
	if err := svc.Register(model, compiled); err != nil {
		log.Fatal(err)
	}
	meta, err := svc.Meta(model)
	if err != nil {
		log.Fatal(err)
	}
	capacity, err := svc.BatchCapacity(model)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s\n", meta)
	fmt.Printf("batch capacity: %d queries per homomorphic pass\n", capacity)

	start := time.Now()
	results, err := svc.ClassifyBatch(context.Background(), model, queries)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	for i, res := range results {
		fmt.Printf("query %v:", queries[i])
		fmt.Printf(" per-tree")
		for _, l := range res.PerTree {
			fmt.Printf(" %s", meta.LabelNames[l])
		}
		fmt.Printf(", plurality %s\n", meta.LabelNames[res.Plurality()])
	}

	st := svc.Stats()
	passes := st.Requests
	fmt.Printf("%d queries in %d pass(es), %v total (%v mean per pass)\n",
		len(queries), passes, elapsed.Round(time.Millisecond), st.MeanLatency().Round(time.Millisecond))
	if view, err := svc.ServerView(model); err == nil {
		// d is read off the stacked level sets: the depth rounded up to
		// the lanes of the last one (DESIGN.md §7.1).
		fmt.Printf("server-inferable structure: q̂=%d b̂=%d d≤%d p=%d\n", view.QPad, view.BPad, view.D, view.P)
	}
	fmt.Printf("workers: %d, utilisation %.2f (op wall time over workers × pass time: worker-slot occupancy)\n", st.Workers, st.Utilisation())
	// The level layout follows from the batch size like the plane packing
	// does; an overflowing batch runs its last pass on fewer queries, so
	// this is the layout of the first.
	lanes, groups, levelOps := meta.LevelLayout(meta.PlanesPerCiphertext(min(len(queries), capacity)))
	fmt.Printf("query layout: %d operand(s) over %d pass(es), %.1f bit planes per operand; level layout: %d levels in %d lane(s) × %d group(s) of %d stacked operand(s)\n",
		st.QueryCiphertexts, passes, st.PlanesPerCiphertext(), meta.D, lanes, groups, levelOps)
	fmt.Printf("backend ops: %v\n", svc.Backend().Counts())
}

// parseQueries parses "1,2;3,4" into feature vectors.
func parseQueries(spec string) ([][]uint64, error) {
	var out [][]uint64
	for _, q := range strings.Split(spec, ";") {
		q = strings.TrimSpace(q)
		if q == "" {
			continue
		}
		var feats []uint64
		for _, part := range strings.Split(q, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad feature %q: %v", part, err)
			}
			feats = append(feats, v)
		}
		out = append(out, feats)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no queries in %q", spec)
	}
	return out, nil
}
