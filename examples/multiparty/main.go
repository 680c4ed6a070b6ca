// Multiparty: the security analysis of the paper's §7, executable. It
// prints the leakage tables (Tables 3–4), then demonstrates on a live
// system that the server really can infer exactly those quantities from
// ciphertext shapes — and that multiplicity padding (§7.2.1) hides the
// true K behind an upper bound.
//
// Run with: go run ./examples/multiparty
package main

import (
	"fmt"
	"log"
	"os"

	"copse"
	"copse/internal/experiments"
)

func main() {
	log.SetFlags(0)

	// The leakage model, straight from the paper's tables.
	if err := experiments.Table3().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if err := experiments.Table4().Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	forest := copse.ExampleForest()
	fmt.Printf("model ground truth: K=%d q=%d b=%d d=%d\n\n",
		forest.MaxMultiplicity(), forest.QuantizedBranching(), forest.Branches(), forest.Depth())

	// Offloading scenario: the server sees only ciphertext collections,
	// yet recovers the padded structural quantities of Table 3 row 1.
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := copse.NewSystem(compiled, copse.WithBackend(copse.BackendClear), copse.WithScenario(copse.ScenarioOffload))
	if err != nil {
		log.Fatal(err)
	}
	view := sys.Sally.ServerView()
	fmt.Printf("server view (offload, model fully encrypted): q̂=%d b̂=%d d=%d p=%d\n",
		view.QPad, view.BPad, view.D, view.P)
	fmt.Println("  → the server learns padded widths and depth, exactly Table 3's q, b, d")

	// Multiplicity padding (§7.2.1): compile with an upper bound so only
	// the bound — not the true K — reaches Diane.
	padded, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024, PadMultiplicityTo: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmultiplicity padding: true K=%d, revealed bound K=%d (q grows %d → %d)\n",
		forest.MaxMultiplicity(), padded.Meta.K, compiled.Meta.Q, padded.Meta.Q)

	// The padded model still classifies correctly, for every scenario.
	for _, sc := range []struct {
		name     string
		scenario copse.Scenario
	}{
		{"offload (M=D)", copse.ScenarioOffload},
		{"server model (S=M)", copse.ScenarioServerModel},
		{"client eval (S=D)", copse.ScenarioClientEval},
	} {
		s, err := copse.NewSystem(padded, copse.WithBackend(copse.BackendClear), copse.WithScenario(sc.scenario))
		if err != nil {
			log.Fatal(err)
		}
		q, err := s.Diane.EncryptQuery([]uint64{0, 5})
		if err != nil {
			log.Fatal(err)
		}
		enc, _, err := s.Sally.Classify(q)
		if err != nil {
			log.Fatal(err)
		}
		res, err := s.Diane.DecryptResult(enc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s Classify(0,5) = %s ✓\n", sc.name, forest.Labels[res.PerTree[0]])
	}
	fmt.Println("\n(three-party deployments need multi-key or threshold FHE wrappers — paper §7.1)")
}
