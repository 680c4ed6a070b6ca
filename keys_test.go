package copse_test

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"copse"
	"copse/internal/synth"
)

// microbenchForest generates one Table 6 model by name.
func microbenchForest(t *testing.T, name string) *copse.Forest {
	t.Helper()
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == name {
			return generateForest(t, mb.Spec)
		}
	}
	t.Fatalf("no microbenchmark %q", name)
	return nil
}

// TestServiceLateRegistration registers depth4 and then, while depth4
// traffic is in flight, prec16 on one BGV service. The first Register
// makes the Galois keys depth4's programs rotate by; prec16's compare
// rounds rotate by steps those programs never use (64…512, at levels
// 8–11), so its Register makes them, publishing the grown key set under
// the running passes. prec16 then answers as the forest does at every
// plane packing, with no operand the backend had to align itself, and
// depth4's traffic never failed.
func TestServiceLateRegistration(t *testing.T) {
	if testing.Short() {
		t.Skip("stages two models on BGV")
	}
	compile := func(f *copse.Forest) *copse.Compiled {
		c, err := copse.Compile(f, copse.CompileOptions{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	depth4, prec16 := microbenchForest(t, "depth4"), microbenchForest(t, "prec16")
	c16 := compile(prec16)
	// The chain prec16's plan needs: registered first, depth4 would size
	// it to its own shorter plan.
	svc := copse.NewService(copse.WithBackend(copse.BackendBGV), copse.WithWorkers(2), copse.WithSeed(29),
		copse.WithLevels(c16.Meta.ChainLevels(true)))
	defer svc.Close()
	if err := svc.Register("depth4", compile(depth4)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				batch := randomBatch(depth4, 1, uint64(g)<<32|i)
				res, err := svc.ClassifyBatch(context.Background(), "depth4", batch)
				if err != nil {
					errc <- err
					return
				}
				if want := depth4.Classify(batch[0]); !slices.Equal(res[0].PerTree, want) {
					t.Errorf("depth4 query %v: trees %v, forest says %v", batch[0], res[0].PerTree, want)
				}
			}
		}()
	}
	err := svc.Register("prec16", c16)
	close(stop)
	wg.Wait()
	close(errc)
	if err != nil {
		t.Fatal(err)
	}
	for err := range errc {
		t.Errorf("depth4 traffic during prec16's Register: %v", err)
	}

	meta, err := svc.Meta("prec16")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, meta.BatchCapacity()} {
		batch := randomBatch(prec16, n, uint64(n))
		q, err := svc.EncryptQueryBatch("prec16", batch)
		if err != nil {
			t.Fatal(err)
		}
		enc, trace, err := svc.Classify(context.Background(), "prec16", q)
		if err != nil {
			t.Fatalf("prec16 batch of %d: %v", n, err)
		}
		if ops := trace.CompareOps.Plus(trace.ReshuffleOps).Plus(trace.LevelOps).Plus(trace.AccumulateOps); ops.Aligns != 0 {
			t.Errorf("prec16 batch of %d: the backend aligned %d operands itself", n, ops.Aligns)
		}
		results, err := svc.DecryptResultBatch("prec16", enc)
		if err != nil {
			t.Fatal(err)
		}
		for i, feats := range batch {
			if want := prec16.Classify(feats); !slices.Equal(results[i].PerTree, want) {
				t.Errorf("prec16 batch of %d, query %v: trees %v, forest says %v", n, feats, results[i].PerTree, want)
			}
		}
	}
}

// TestRegisterRefusesShortChain registers depth4 and then prec16 on one
// BGV service without WithLevels: depth4 sizes the chain to its own plan,
// which is shorter than the one prec16's plan enters at, so Register
// refuses prec16 with a typed *PlanInfeasibleError instead of staging a
// model whose every pass would exhaust the chain. depth4 keeps serving.
func TestRegisterRefusesShortChain(t *testing.T) {
	compile := func(f *copse.Forest) *copse.Compiled {
		c, err := copse.Compile(f, copse.CompileOptions{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	depth4 := microbenchForest(t, "depth4")
	c4, c16 := compile(depth4), compile(microbenchForest(t, "prec16"))
	if c16.Meta.ChainLevels(true) <= c4.Meta.ChainLevels(true) {
		t.Fatalf("prec16's chain (%d) is no longer than depth4's (%d)", c16.Meta.ChainLevels(true), c4.Meta.ChainLevels(true))
	}
	svc := copse.NewService(copse.WithBackend(copse.BackendBGV), copse.WithWorkers(2), copse.WithSeed(31))
	defer svc.Close()
	if err := svc.Register("depth4", c4); err != nil {
		t.Fatal(err)
	}
	err := svc.Register("prec16", c16)
	var infeasible *copse.PlanInfeasibleError
	if !errors.As(err, &infeasible) || infeasible.Kind != "chain" || infeasible.Level != c16.Meta.ChainLevels(true)-1 {
		t.Fatalf("Register(prec16) on depth4's chain: %v, want a *PlanInfeasibleError for the chain at level %d", err, c16.Meta.ChainLevels(true)-1)
	}
	if names := svc.Models(); !slices.Equal(names, []string{"depth4"}) {
		t.Errorf("models after the refusal: %v", names)
	}
	batch := randomBatch(depth4, 1, 7)
	res, err := svc.ClassifyBatch(context.Background(), "depth4", batch)
	if err != nil {
		t.Fatal(err)
	}
	if want := depth4.Classify(batch[0]); !slices.Equal(res[0].PerTree, want) {
		t.Errorf("depth4 after the refusal: trees %v, forest says %v", res[0].PerTree, want)
	}
}
