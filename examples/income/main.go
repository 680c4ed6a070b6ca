// Income: the paper's census-income workload end to end — train a
// random forest on (synthetic) census data, compile it with the COPSE
// staging compiler, and serve encrypted inference queries whose results
// are checked against plaintext evaluation.
//
// Run with: go run ./examples/income
package main

import (
	"fmt"
	"log"
	"runtime"

	"copse"
	"copse/internal/synth"
)

func main() {
	log.SetFlags(0)

	// Synthetic stand-in for the census-income dataset (DESIGN.md §4).
	ds := synth.Income(2000, 1)
	trainSet, testSet := ds.Split(0.8, 2)
	fmt.Printf("dataset: %d train / %d test rows, %d features, labels %v\n",
		len(trainSet.X), len(testSet.X), len(ds.FeatureNames), ds.Labels)

	// Train (our scikit-learn stand-in). Kept small so the fully
	// encrypted demo below stays fast; copse-train builds the paper's
	// income5/income15 scale.
	tm, err := copse.Train(trainSet.X, trainSet.Y, ds.Labels, copse.TrainConfig{
		NumTrees: 3, MaxDepth: 4, MinLeaf: 20, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	acc, err := tm.Accuracy(testSet.X, testSet.Y)
	if err != nil {
		log.Fatal(err)
	}
	f := tm.Forest
	fmt.Printf("trained: %d trees, depth %d, %d branches, K=%d; test accuracy %.3f\n",
		len(f.Trees), f.Depth(), f.Branches(), f.MaxMultiplicity(), acc)

	compiled, err := copse.Compile(f, copse.CompileOptions{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: %s (recommended BGV levels: %d)\n",
		compiled.Meta.String(), compiled.Meta.RecommendedLevels)

	sys, err := copse.NewSystem(compiled,
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(runtime.GOMAXPROCS(0)),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Classify three test rows under encryption; verify against the
	// plaintext forest.
	for i := 0; i < 3; i++ {
		features, err := tm.QuantizeFeatures(testSet.X[i])
		if err != nil {
			log.Fatal(err)
		}
		want, err := tm.Predict(testSet.X[i])
		if err != nil {
			log.Fatal(err)
		}
		query, err := sys.Diane.EncryptQuery(features)
		if err != nil {
			log.Fatal(err)
		}
		enc, trace, err := sys.Sally.Classify(query)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Diane.DecryptResult(enc)
		if err != nil {
			log.Fatal(err)
		}
		status := "MATCHES plaintext"
		if res.Plurality() != want {
			status = fmt.Sprintf("MISMATCH (plaintext %s)", ds.Labels[want])
		}
		fmt.Printf("row %d: encrypted inference → %-6s in %v; votes %v; %s\n",
			i, ds.Labels[res.Plurality()], trace.Total.Round(1e6), res.Votes, status)
	}
}
