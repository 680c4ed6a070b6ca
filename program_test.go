package copse_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"copse"
)

// programScenarios is every party configuration — the four ParseScenario
// names plus the two collusion variants. All of them, including the
// plaintext-query clienteval, run the model's op program; the oracle is
// the plaintext tree walk.
var programScenarios = []struct {
	name     string
	scenario copse.Scenario
}{
	{"offload", copse.ScenarioOffload},
	{"servermodel", copse.ScenarioServerModel},
	{"clienteval", copse.ScenarioClientEval},
	{"threeparty", copse.ScenarioThreeParty},
	{"colludesm", copse.ScenarioColludeSM},
	{"colludesd", copse.ScenarioColludeSD},
}

func randomBatch(f *copse.Forest, n int, seed uint64) [][]uint64 {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	batch := make([][]uint64, n)
	for i := range batch {
		batch[i] = make([]uint64, f.NumFeatures)
		for j := range batch[i] {
			batch[i][j] = rng.Uint64N(1 << uint(f.Precision))
		}
	}
	return batch
}

func exampleService(t *testing.T, slots int, kind copse.BackendKind, sc copse.Scenario, shuffled bool) *copse.Service {
	t.Helper()
	c, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: slots, PlanShuffle: shuffled})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(kind),
		copse.WithScenario(sc),
		copse.WithSeed(11),
		copse.WithShuffle(shuffled),
	)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	return svc
}

// checkAgainstForest runs batch sizes 1 and capacity through the
// service's trace-carrying path and asserts bit-exact agreement with
// f.Classify — per tree, or per label vote when the shuffle hides the
// trees — and that the op program is what ran.
func checkAgainstForest(t *testing.T, svc *copse.Service, f *copse.Forest, shuffled bool) {
	t.Helper()
	capacity, err := svc.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, capacity} {
		batch := randomBatch(f, b, uint64(b))
		q, err := svc.EncryptQueryBatch("m", batch)
		if err != nil {
			t.Fatal(err)
		}
		enc, trace, err := svc.Classify(context.Background(), "m", q)
		if err != nil {
			t.Fatal(err)
		}
		if trace.Executor != "program" {
			t.Errorf("B=%d ran executor %q, want program", b, trace.Executor)
		}
		res, err := svc.DecryptResultBatch("m", enc)
		if err != nil {
			t.Fatal(err)
		}
		for qi, feats := range batch {
			want := f.Classify(feats)
			if !shuffled {
				for ti := range want {
					if res[qi].PerTree[ti] != want[ti] {
						t.Fatalf("B=%d query %d tree %d: secure %d, plaintext %d", b, qi, ti, res[qi].PerTree[ti], want[ti])
					}
				}
				continue
			}
			votes := make([]int, len(f.Labels))
			for _, lbl := range want {
				votes[lbl]++
			}
			for lbl := range votes {
				if res[qi].Votes[lbl] != votes[lbl] {
					t.Fatalf("B=%d query %d: shuffled votes %v, plaintext %v", b, qi, res[qi].Votes, votes)
				}
			}
		}
	}
}

// TestProgramMatchesForestClear: every scenario, shuffled and not, at
// batch fill 1 and capacity, classifies bit-exactly against the
// plaintext walk on the exact backend.
func TestProgramMatchesForestClear(t *testing.T) {
	for _, sc := range programScenarios {
		for _, shuffled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shuffle=%v", sc.name, shuffled), func(t *testing.T) {
				checkAgainstForest(t, exampleService(t, 64, copse.BackendClear, sc.scenario, shuffled), copse.ExampleForest(), shuffled)
			})
		}
	}
}

// TestProgramMatchesForestBGV repeats the sweep on real ciphertexts.
func TestProgramMatchesForestBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV scenario sweep is slow")
	}
	for _, sc := range programScenarios {
		for _, shuffled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shuffle=%v", sc.name, shuffled), func(t *testing.T) {
				checkAgainstForest(t, exampleService(t, 1024, copse.BackendBGV, sc.scenario, shuffled), copse.ExampleForest(), shuffled)
			})
		}
	}
}

// TestSpecializedConcurrentClassify hammers one service from many
// goroutines, each pass on the default GOMAXPROCS workers: the pooled
// per-pass scratch and the passes' ready queues must stay race-free and
// bit-exact. Part of the CI -race job's named list.
func TestSpecializedConcurrentClassify(t *testing.T) {
	f := copse.ExampleForest()
	svc := exampleService(t, 64, copse.BackendClear, copse.ScenarioOffload, false)
	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				batch := randomBatch(f, 1, uint64(g*perG+i))
				res, err := svc.ClassifyBatch(context.Background(), "m", batch)
				if err != nil {
					errs <- err
					return
				}
				want := f.Classify(batch[0])
				for ti := range want {
					if res[0].PerTree[ti] != want[ti] {
						errs <- fmt.Errorf("goroutine %d query %d tree %d: %d != %d",
							g, i, ti, res[0].PerTree[ti], want[ti])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
