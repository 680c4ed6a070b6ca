package copse_test

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"copse"
)

// ExampleService shows the serving API: one Service, one shared backend,
// and a slot-packed batch answered in a single homomorphic pass. The
// batch's first entry is the paper's Figure 1 walkthrough input.
func ExampleService() {
	compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	svc := copse.NewService(copse.WithBackend(copse.BackendClear))
	if err := svc.Register("figure1", compiled); err != nil {
		log.Fatal(err)
	}
	batch := [][]uint64{{0, 5}, {7, 0}}
	results, err := svc.ClassifyBatch(context.Background(), "figure1", batch)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("Classify(%d, %d) = L%d\n", batch[i][0], batch[i][1], res.PerTree[0])
	}
	st := svc.Stats()
	fmt.Printf("%d queries, %d homomorphic pass(es)\n", st.Queries, st.Requests)
	// Output:
	// Classify(0, 5) = L4
	// Classify(7, 0) = L3
	// 2 queries, 1 homomorphic pass(es)
}

// ExampleService_shuffled shows shuffled batched serving (paper
// §7.2.2 + DESIGN.md §10): WithShuffle permutes every packed query's
// result slots in one block-diagonal pass, and the per-query codebooks
// decode vote counts — per-tree labels stay hidden from the data owner.
func ExampleService_shuffled() {
	// PlanShuffle reserves the level headroom the shuffle stage needs;
	// the exact backend runs the same levelled program and refuses a
	// model compiled without it, as BGV does.
	compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024, PlanShuffle: true})
	if err != nil {
		log.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendClear),
		copse.WithShuffle(true),
		copse.WithSeed(7), // deterministic permutations, for the example only
	)
	if err := svc.Register("figure1", compiled); err != nil {
		log.Fatal(err)
	}
	batch := [][]uint64{{0, 5}, {7, 0}}
	results, codebooks, err := svc.ClassifyBatchShuffled(context.Background(), "figure1", batch)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range results {
		fmt.Printf("Classify(%d, %d) votes %v → L%d (codebook over %d shuffled slots)\n",
			batch[i][0], batch[i][1], res.Votes, res.Plurality(), len(codebooks[i].Slots))
	}
	// Output:
	// Classify(0, 5) votes [0 0 0 0 1 0] → L4 (codebook over 6 shuffled slots)
	// Classify(7, 0) votes [0 0 0 1 0 0] → L3 (codebook over 6 shuffled slots)
}

// ExampleService_dynamicBatching shows the dynamic batcher (DESIGN.md
// §11): four uncoordinated goroutines — think independent HTTP
// handlers — each submit one query, and the aggregator coalesces them
// into a single slot-packed homomorphic pass. A pass fires once the
// model's batch capacity is pending or its first query has lingered the
// window; compiled for 64 slots the model holds four queries to a pass,
// so the fleet fills one and the example is deterministic.
func ExampleService_dynamicBatching() {
	compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 64})
	if err != nil {
		log.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendClear),
		copse.WithBatchWindow(time.Minute), // the full pass fires long before this
	)
	if err := svc.Register("figure1", compiled); err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	queries := [][]uint64{{0, 5}, {7, 0}, {3, 3}, {6, 6}}
	answers := make([]*copse.Result, len(queries))
	var wg sync.WaitGroup
	for i, feats := range queries {
		wg.Add(1)
		go func(i int, feats []uint64) {
			defer wg.Done()
			results, err := svc.ClassifyBatch(context.Background(), "figure1", [][]uint64{feats})
			if err != nil {
				log.Fatal(err)
			}
			answers[i] = results[0]
		}(i, feats)
	}
	wg.Wait()
	for i, res := range answers {
		fmt.Printf("Classify(%d, %d) = L%d\n", queries[i][0], queries[i][1], res.PerTree[0])
	}
	st := svc.Stats()
	fmt.Printf("%d callers coalesced into %d homomorphic pass(es)\n", st.CoalescedQueries, st.BatcherPasses)
	// Output:
	// Classify(0, 5) = L4
	// Classify(7, 0) = L3
	// Classify(3, 3) = L2
	// Classify(6, 6) = L4
	// 4 callers coalesced into 1 homomorphic pass(es)
}

// Example runs the paper's Figure 1 walkthrough on the exact reference
// backend: the input (x, y) = (0, 5) classifies as L4.
func Example() {
	forest := copse.ExampleForest()
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := copse.NewSystem(compiled, copse.WithBackend(copse.BackendClear), copse.WithScenario(copse.ScenarioOffload))
	if err != nil {
		log.Fatal(err)
	}
	query, err := sys.Diane.EncryptQuery([]uint64{0, 5})
	if err != nil {
		log.Fatal(err)
	}
	encrypted, _, err := sys.Sally.Classify(query)
	if err != nil {
		log.Fatal(err)
	}
	result, err := sys.Diane.DecryptResult(encrypted)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(forest.Labels[result.PerTree[0]])
	// Output: L4
}

// ExampleRevealed shows the executable leakage model of the paper's
// Table 3: in the offloading scenario the server learns the quantized
// branching, branch count and depth, and nothing else.
func ExampleRevealed() {
	l := copse.Revealed(copse.ScenarioOffload, copse.PartyServer)
	fmt.Println(l.Q, l.B, l.D, l.K, l.Everything)
	// Output: true true true false false
}

// ExampleCompile shows the structural parameters the staging compiler
// derives from the Figure 1 tree — the same K=3, q=6, b=5 the paper
// walks through in §4.1.1.
func ExampleCompile() {
	compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	m := compiled.Meta
	fmt.Printf("K=%d q=%d b=%d d=%d\n", m.K, m.Q, m.B, m.D)
	// Output: K=3 q=6 b=5 d=3
}
