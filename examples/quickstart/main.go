// Quickstart: secure evaluation of the paper's Figure 1 decision tree
// through the copse.Service serving API.
//
// The service compiles and encrypts the model once, then answers a
// slot-packed batch of queries in a single homomorphic pass — the
// batch headroom COPSE's periodic replication leaves idle on a single
// query. The first query is the paper's §3 walkthrough input
// (x, y) = (0, 5), which must classify as L4.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"copse"
)

func main() {
	log.SetFlags(0)

	// The running example from the paper's Figure 1: two features
	// (x, y), six labels, five branches.
	forest := copse.ExampleForest()
	fmt.Println("model (COPSE text format):")
	if err := copse.FormatModel(logWriter{}, forest); err != nil {
		log.Fatal(err)
	}

	// Maurice: stage the forest into its vectorizable form.
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiled: %s\n", compiled.Meta.String())
	fmt.Printf("threshold vector padded to q̂=%d, branch vector to b̂=%d, %d levels\n",
		compiled.Meta.QPad, compiled.Meta.BPad, compiled.Meta.D)
	fmt.Printf("batch capacity: %d queries per homomorphic pass\n", compiled.Meta.BatchCapacity())

	// Serve it over real BGV ciphertexts. ScenarioOffload encrypts both
	// the model and the features; the server learns neither.
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithSecurity(copse.SecurityTest),
		copse.WithWorkers(8),
	)
	if err := svc.Register("figure1", compiled); err != nil {
		log.Fatal(err)
	}

	// Diane: encrypt a batch of queries — one ciphertext set, one
	// homomorphic pass, one answer per query.
	batch := [][]uint64{{0, 5}, {7, 0}, {12, 3}, {6, 6}}
	results, err := svc.ClassifyBatch(context.Background(), "figure1", batch)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for i, res := range results {
		fmt.Printf("Classify(x=%d, y=%d) = %s\n",
			batch[i][0], batch[i][1], forest.Labels[res.PerTree[0]])
	}
	fmt.Printf("(paper's §3 walkthrough: Classify(0, 5) = L4)\n")

	st := svc.Stats()
	fmt.Printf("\n%d queries answered in %d homomorphic pass(es), %v per pass\n",
		st.Queries, st.Requests, st.MeanLatency().Round(1e6))
	fmt.Printf("FHE operations: %v\n", svc.Backend().Counts())

	// Leakage-hardened serving: the raw leaf bitvector reveals the
	// order of the labels in the forest's trees, so a shuffled service
	// permutes every packed query's result — the op program's shuffle
	// stage, one block-diagonal mat-vec for the whole batch (DESIGN.md
	// §10) — and hands back per-query codebooks. Vote counts survive;
	// per-tree labels don't. The model must be compiled with PlanShuffle
	// so the result keeps the shuffle's level headroom.
	shuffledModel, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024, PlanShuffle: true})
	if err != nil {
		log.Fatal(err)
	}
	shuffledSvc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithSecurity(copse.SecurityTest),
		copse.WithWorkers(8),
		copse.WithShuffle(true),
	)
	if err := shuffledSvc.Register("figure1", shuffledModel); err != nil {
		log.Fatal(err)
	}
	defer shuffledSvc.Close()
	sResults, codebooks, err := shuffledSvc.ClassifyBatchShuffled(context.Background(), "figure1", batch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nshuffled serving (one permutation pass per batch):")
	for i, res := range sResults {
		fmt.Printf("Classify(x=%d, y=%d) votes %v → %s  (codebook %v)\n",
			batch[i][0], batch[i][1], res.Votes, forest.Labels[res.Plurality()], codebooks[i].Slots)
	}
}

type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print("  " + string(p))
	return len(p), nil
}
