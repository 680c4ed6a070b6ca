// Soccer: the paper's second real-world workload, in the server-owned-
// model configuration (S = M, paper §7.1 case 2): the server keeps the
// trained match-predictor in plaintext and clients send encrypted match
// features. This is Figure 9's fast path — the example measures it
// against the fully encrypted configuration.
//
// Run with: go run ./examples/soccer
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"copse"
	"copse/internal/synth"
)

func main() {
	log.SetFlags(0)

	ds := synth.Soccer(2000, 3)
	trainSet, testSet := ds.Split(0.8, 4)
	tm, err := copse.Train(trainSet.X, trainSet.Y, ds.Labels, copse.TrainConfig{
		NumTrees: 3, MaxDepth: 4, MinLeaf: 20, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	acc, err := tm.Accuracy(testSet.X, testSet.Y)
	if err != nil {
		log.Fatal(err)
	}
	f := tm.Forest
	fmt.Printf("match predictor: %d trees, depth %d, %d branches; test accuracy %.3f\n",
		len(f.Trees), f.Depth(), f.Branches(), acc)

	compiled, err := copse.Compile(f, copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}

	workers := runtime.GOMAXPROCS(0)
	timeScenario := func(name string, scenario copse.Scenario) time.Duration {
		// Sally serves the match predictor under the scenario's split.
		svc := copse.NewService(
			copse.WithBackend(copse.BackendBGV),
			copse.WithScenario(scenario),
			copse.WithWorkers(workers),
		)
		defer svc.Close()
		if err := svc.Register("soccer", compiled); err != nil {
			log.Fatal(err)
		}
		var total time.Duration
		const queries = 2
		for i := 0; i < queries; i++ {
			features, err := tm.QuantizeFeatures(testSet.X[i])
			if err != nil {
				log.Fatal(err)
			}
			// Diane encrypts the match, Sally classifies it, Diane decrypts.
			query, err := svc.EncryptQuery("soccer", features)
			if err != nil {
				log.Fatal(err)
			}
			start := time.Now()
			enc, _, err := svc.Classify(context.Background(), "soccer", query)
			if err != nil {
				log.Fatal(err)
			}
			total += time.Since(start)
			res, err := svc.DecryptResult("soccer", enc)
			if err != nil {
				log.Fatal(err)
			}
			want, err := tm.Predict(testSet.X[i])
			if err != nil {
				log.Fatal(err)
			}
			if res.Plurality() != want {
				log.Fatalf("%s query %d: secure %d != plaintext %d", name, i, res.Plurality(), want)
			}
			fmt.Printf("  [%s] match %d → %s (per-tree votes %v)\n",
				name, i, ds.Labels[res.Plurality()], res.Votes)
		}
		avg := total / queries
		fmt.Printf("  [%s] average inference: %v\n", name, avg.Round(time.Millisecond))
		return avg
	}

	fmt.Println("server-owned plaintext model (S = M):")
	plain := timeScenario("plaintext model", copse.ScenarioServerModel)
	fmt.Println("fully encrypted model (M = D offloading):")
	encrypted := timeScenario("encrypted model", copse.ScenarioOffload)
	fmt.Printf("plaintext-model speedup: %.2fx (paper Figure 9: ~1.4x)\n",
		float64(encrypted)/float64(plain))
}
