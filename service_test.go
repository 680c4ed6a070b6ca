package copse_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/core"
	"copse/internal/model"
	"copse/internal/synth"
)

// trainedModel compiles a small synthetic forest for service tests.
func trainedModel(t *testing.T, seed uint64, slots int) (*copse.Forest, *copse.Compiled) {
	t.Helper()
	f, err := synth.Generate(synth.ForestSpec{
		NumFeatures:     3,
		NumLabels:       3,
		Precision:       4,
		MaxDepth:        3,
		BranchesPerTree: []int{5, 4},
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := copse.Compile(f, copse.CompileOptions{Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

// TestServiceRegistryMultiModel: two models served off one backend and
// key set, each classifying batches correctly.
func TestServiceRegistryMultiModel(t *testing.T) {
	f1, c1 := trainedModel(t, 41, 256)
	f2, c2 := trainedModel(t, 42, 256)
	svc := copse.NewService(copse.WithBackend(copse.BackendClear), copse.WithWorkers(2))
	if svc.Backend() != nil {
		t.Error("backend exists before first Register")
	}
	if err := svc.Register("alpha", c1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("beta", c2); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("alpha", c1); err == nil {
		t.Error("duplicate registration accepted")
	}
	if got := svc.Models(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Errorf("Models() = %v", got)
	}
	if _, err := svc.ClassifyBatch(context.Background(), "missing", [][]uint64{{1, 2, 3}}); err == nil {
		t.Error("unknown model accepted")
	}

	rng := rand.New(rand.NewPCG(9, 9))
	for name, pair := range map[string]struct {
		f *copse.Forest
		c *copse.Compiled
	}{"alpha": {f1, c1}, "beta": {f2, c2}} {
		capacity, err := svc.BatchCapacity(name)
		if err != nil {
			t.Fatal(err)
		}
		if capacity != pair.c.Meta.BatchCapacity() {
			t.Errorf("%s: capacity %d, want %d", name, capacity, pair.c.Meta.BatchCapacity())
		}
		// Oversized batches split into multiple passes transparently.
		batch := make([][]uint64, capacity+3)
		for i := range batch {
			batch[i] = make([]uint64, pair.f.NumFeatures)
			for j := range batch[i] {
				batch[i][j] = rng.Uint64N(1 << uint(pair.f.Precision))
			}
		}
		results, err := svc.ClassifyBatch(context.Background(), name, batch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != len(batch) {
			t.Fatalf("%s: %d results for %d queries", name, len(results), len(batch))
		}
		for i, feats := range batch {
			want := pair.f.Classify(feats)
			for ti, lbl := range results[i].PerTree {
				if lbl != want[ti] {
					t.Errorf("%s query %d tree %d: L%d, want L%d", name, i, ti, lbl, want[ti])
				}
			}
		}
	}
	st := svc.Stats()
	if st.Requests < 4 { // ≥ 2 passes per model
		t.Errorf("stats recorded %d requests", st.Requests)
	}
	if st.Queries < st.Requests {
		t.Errorf("stats: %d queries < %d requests", st.Queries, st.Requests)
	}
}

// TestServiceSlotMismatch: a later model staged for a different slot
// count is rejected.
func TestServiceSlotMismatch(t *testing.T) {
	_, c1 := trainedModel(t, 41, 256)
	_, c2 := trainedModel(t, 42, 512)
	svc := copse.NewService(copse.WithBackend(copse.BackendClear))
	if err := svc.Register("a", c1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("b", c2); err == nil {
		t.Error("slot mismatch accepted")
	}
}

// TestServiceRejectsInfeasiblePlan: a model whose stored plan schedules
// the compare stage one level too low is refused at Register with the
// typed error, not served.
func TestServiceRejectsInfeasiblePlan(t *testing.T) {
	_, c := trainedModel(t, 41, 256)
	plan := *c.Meta.LevelPlan
	plan.Cipher.Compare--
	plan.Plain.Compare--
	c.Meta.LevelPlan = &plan
	err := copse.NewService(copse.WithBackend(copse.BackendClear)).Register("stale", c)
	var infeasible *copse.PlanInfeasibleError
	if !errors.As(err, &infeasible) {
		t.Fatalf("Register error %v, want *PlanInfeasibleError", err)
	}
}

// TestServiceContextCancel: a cancelled context stops a classification
// between stages and while queued.
func TestServiceContextCancel(t *testing.T) {
	_, c := trainedModel(t, 43, 256)
	svc := copse.NewService(copse.WithBackend(copse.BackendClear))
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.ClassifyBatch(ctx, "m", [][]uint64{{1, 2, 3}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled classify returned %v", err)
	}
	if st := svc.Stats(); st.Failures == 0 {
		t.Error("cancellation not counted as failure")
	}
}

// TestServiceBatchCapacityError: one three-call pass classifies one
// query set, so EncryptQueryBatch refuses a batch past the capacity with
// the typed error of core.PrepareQueryBatch, before any pass is counted;
// ClassifyBatch splits the same batch into passes and answers every
// query.
func TestServiceBatchCapacityError(t *testing.T) {
	f, c := trainedModel(t, 44, 256)
	svc := copse.NewService(copse.WithBackend(copse.BackendClear))
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	capacity, err := svc.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(44, 44))
	over := make([][]uint64, 2*capacity+1) // three passes
	for i := range over {
		over[i] = []uint64{rng.Uint64N(16), rng.Uint64N(16), rng.Uint64N(16)}
	}

	for api, prepare := range map[string]func() (*copse.Query, error){
		"core.PrepareQueryBatch":    func() (*copse.Query, error) { return core.PrepareQueryBatch(svc.Backend(), &c.Meta, over, false) },
		"Service.EncryptQueryBatch": func() (*copse.Query, error) { return svc.EncryptQueryBatch("m", over) },
	} {
		_, err := prepare()
		var bce *core.BatchCapacityError
		if !errors.As(err, &bce) || bce.Index != len(over) || bce.Capacity != capacity {
			t.Errorf("%s of %d queries: %v, want *core.BatchCapacityError{%d, %d}", api, len(over), err, len(over), capacity)
		}
	}
	if st := svc.Stats(); st.Requests != 0 || st.Failures != 0 {
		t.Errorf("refused encryption counted %d requests, %d failures", st.Requests, st.Failures)
	}

	// ClassifyBatch splits the batch into passes and answers every query.
	results, err := svc.ClassifyBatch(context.Background(), "m", over)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(over) {
		t.Fatalf("%d results for %d queries", len(results), len(over))
	}
	for i, feats := range over {
		if want := f.Classify(feats); !slices.Equal(results[i].PerTree, want) {
			t.Errorf("query %d: per-tree %v, want %v", i, results[i].PerTree, want)
		}
	}
	if st := svc.Stats(); st.Requests != 3 {
		t.Errorf("ClassifyBatch of %d queries at capacity %d ran %d passes, want 3", len(over), capacity, st.Requests)
	}
}

// relabelled returns f with every leaf label shifted by one (mod the
// label count): the same layout, and so the same packing, as f.
func relabelled(f *copse.Forest) *copse.Forest {
	var shift func(n *model.Node) *model.Node
	shift = func(n *model.Node) *model.Node {
		if n.Leaf {
			return &model.Node{Leaf: true, Label: (n.Label + 1) % len(f.Labels)}
		}
		return &model.Node{Feature: n.Feature, Threshold: n.Threshold, Left: shift(n.Left), Right: shift(n.Right)}
	}
	g := *f
	g.Trees = nil
	for _, tr := range f.Trees {
		g.Trees = append(g.Trees, &model.Tree{Root: shift(tr.Root)})
	}
	return &g
}

// TestServiceResultModelMismatch: a result decodes only under the
// registry entry that produced it. Figure 1 as "a" and its relabelled
// twin as "b" share a layout, so "b" would decode "a"'s result to a
// wrong label without complaint; DecryptResult[Batch] refuses it typed,
// on both backends.
func TestServiceResultModelMismatch(t *testing.T) {
	for _, tc := range []struct {
		kind  copse.BackendKind
		slots int
	}{{copse.BackendClear, 256}, {copse.BackendBGV, 1024}} {
		forest := copse.ExampleForest()
		svc := copse.NewService(copse.WithBackend(tc.kind), copse.WithSeed(5))
		for name, f := range map[string]*copse.Forest{"a": forest, "b": relabelled(forest)} {
			c, err := copse.Compile(f, copse.CompileOptions{Slots: tc.slots})
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Register(name, c); err != nil {
				t.Fatal(err)
			}
		}
		q, err := svc.EncryptQuery("a", []uint64{3, 5})
		if err != nil {
			t.Fatal(err)
		}
		enc, _, err := svc.Classify(context.Background(), "a", q)
		if err != nil {
			t.Fatal(err)
		}
		want := &copse.ResultModelError{Model: "b", ProducedBy: "a"}
		var rme *copse.ResultModelError
		if res, err := svc.DecryptResult("b", enc); !errors.As(err, &rme) || *rme != *want {
			t.Errorf("backend %d: model a's result decrypted as b: %+v, %v, want %v", tc.kind, res, err, want)
		}
		if res, err := svc.DecryptResultBatch("b", enc); !errors.As(err, &rme) || *rme != *want {
			t.Errorf("backend %d: model a's result batch-decrypted as b: %+v, %v, want %v", tc.kind, res, err, want)
		}
		res, err := svc.DecryptResult("a", enc)
		if err != nil {
			t.Fatal(err)
		}
		if want := forest.Classify([]uint64{3, 5}); !slices.Equal(res.PerTree, want) {
			t.Errorf("backend %d: model a's result as a: per-tree %v, want %v", tc.kind, res.PerTree, want)
		}
		svc.Close()
	}
}

// TestServiceRefusesEmptyBatch: a batch with no feature vector is the
// client's fault, refused typed — with and without the dynamic batcher,
// and when encrypting a batch — before any pass runs.
func TestServiceRefusesEmptyBatch(t *testing.T) {
	_, c := trainedModel(t, 44, 256)
	for _, opts := range [][]copse.Option{nil, {copse.WithBatchWindow(time.Millisecond)}} {
		svc := copse.NewService(append(opts, copse.WithBackend(copse.BackendClear))...)
		if err := svc.Register("m", c); err != nil {
			t.Fatal(err)
		}
		var empty *copse.EmptyBatchError
		if _, err := svc.ClassifyBatch(context.Background(), "m", nil); !errors.As(err, &empty) {
			t.Errorf("ClassifyBatch of no queries: %v, want *copse.EmptyBatchError", err)
		}
		if _, err := svc.EncryptQueryBatch("m", [][]uint64{}); !errors.As(err, &empty) {
			t.Errorf("EncryptQueryBatch of no queries: %v, want *copse.EmptyBatchError", err)
		}
		svc.Close()
	}
}

// TestServiceQueryModelMismatch: a query packed for one model is
// rejected when classified against a model with a different layout.
func TestServiceQueryModelMismatch(t *testing.T) {
	_, c1 := trainedModel(t, 46, 256)
	f2, err := synth.Generate(synth.ForestSpec{
		NumFeatures:     5, // wider QPad than c1's
		NumLabels:       3,
		Precision:       4,
		MaxDepth:        3,
		BranchesPerTree: []int{7, 6, 5},
		Seed:            47,
	})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := copse.Compile(f2, copse.CompileOptions{Slots: 256})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Meta.BatchBlock() == c2.Meta.BatchBlock() && c1.Meta.QPad == c2.Meta.QPad {
		t.Fatal("test models share a layout; pick different shapes")
	}
	svc := copse.NewService(copse.WithBackend(copse.BackendClear))
	if err := svc.Register("a", c1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("b", c2); err != nil {
		t.Fatal(err)
	}
	q, err := svc.EncryptQuery("a", []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = svc.Classify(context.Background(), "b", q)
	var layout *copse.QueryLayoutError
	if !errors.As(err, &layout) || layout.Packed == layout.Model || layout.Model.QPad != c2.Meta.QPad || layout.Packed.QPad != c1.Meta.QPad {
		t.Errorf("query packed for model a on model b: %v, want a *QueryLayoutError naming both packings", err)
	}
}

// concurrentStress hammers one service from many goroutines, mixing
// single queries and full-capacity batches, and checks every result
// against the plaintext forest. Run with -race to verify the
// concurrency contract of the backends.
func concurrentStress(t *testing.T, f *copse.Forest, svc *copse.Service, goroutines, queriesEach int) {
	t.Helper()
	capacity, err := svc.BatchCapacity("m")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 77))
			for i := 0; i < queriesEach; i++ {
				n := 1
				if i%2 == 1 {
					n = capacity
				}
				batch := make([][]uint64, n)
				for k := range batch {
					batch[k] = make([]uint64, f.NumFeatures)
					for j := range batch[k] {
						batch[k][j] = rng.Uint64N(1 << uint(f.Precision))
					}
				}
				results, err := svc.ClassifyBatch(context.Background(), "m", batch)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
				for k, feats := range batch {
					if got, want := results[k].PerTree[0], f.Classify(feats)[0]; got != want {
						errc <- fmt.Errorf("goroutine %d query %v: L%d, want L%d", g, feats, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestServiceConcurrentClassifyClear is the N-goroutines × M-queries
// stress on the exact backend, with an in-flight cap so the queue path
// is exercised too.
func TestServiceConcurrentClassifyClear(t *testing.T) {
	f, c := trainedModel(t, 45, 256)
	svc := copse.NewService(
		copse.WithBackend(copse.BackendClear),
		copse.WithWorkers(2),
		copse.WithMaxInFlight(4),
	)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	concurrentStress(t, f, svc, 8, 6)
	st := svc.Stats()
	if st.Requests != 8*6 {
		t.Errorf("stats recorded %d requests, want %d", st.Requests, 8*6)
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after drain", st.InFlight)
	}
	if st.MeanLatency() <= 0 {
		t.Error("no latency recorded")
	}
}

// TestServiceConcurrentClassifyBGV is the same stress on real BGV
// ciphertexts: concurrent Classify over one shared evaluator and key
// set must be race-free and correct.
func TestServiceConcurrentClassifyBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent BGV stress is slow")
	}
	forest := copse.ExampleForest()
	c, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithWorkers(2),
		copse.WithSeed(11),
	)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	concurrentStress(t, forest, svc, 4, 2)
}

// TestServiceShuffledServing: the WithShuffle path end to end on the
// clear backend — per-query codebooks, vote counts matching the
// plaintext walk, per-tree labels hidden, fresh permutations per pass.
func TestServiceShuffledServing(t *testing.T) {
	f, _ := trainedModel(t, 47, 256)
	c, err := copse.Compile(f, copse.CompileOptions{Slots: 256, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendClear),
		copse.WithShuffle(true),
		copse.WithSeed(9),
	)
	if err := svc.Register("m", c); err != nil {
		t.Fatal(err)
	}
	capacity := c.Meta.BatchCapacity()
	if capacity < 2 {
		t.Fatalf("capacity %d, want ≥ 2", capacity)
	}
	rng := rand.New(rand.NewPCG(5, 3))
	batch := make([][]uint64, capacity+1) // force two chunks
	for i := range batch {
		batch[i] = make([]uint64, f.NumFeatures)
		for j := range batch[i] {
			batch[i][j] = rng.Uint64N(1 << uint(f.Precision))
		}
	}
	results, err := svc.ClassifyBatch(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) {
		t.Fatalf("%d results for %d queries", len(results), len(batch))
	}
	for i, feats := range batch {
		wantVotes := make([]int, len(f.Labels))
		for _, lbl := range f.Classify(feats) {
			wantVotes[lbl]++
		}
		for lbl, v := range results[i].Votes {
			if v != wantVotes[lbl] {
				t.Errorf("query %d: votes %v, want %v", i, results[i].Votes, wantVotes)
				break
			}
		}
		if results[i].PerTree != nil {
			t.Errorf("query %d: shuffled result exposes per-tree labels %v", i, results[i].PerTree)
		}
		if cb := results[i].Codebook; cb == nil || len(cb.Slots) == 0 {
			t.Errorf("query %d: missing codebook", i)
		}
	}
	// Distinct passes draw distinct permutations: classify the same query
	// twice and compare codebooks.
	one1, err := svc.ClassifyBatch(context.Background(), "m", batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	one2, err := svc.ClassifyBatch(context.Background(), "m", batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(one1[0].Codebook.Slots, one2[0].Codebook.Slots) {
		t.Error("two passes shared a shuffle permutation")
	}

	// Seeded runs reproduce exactly, even across concurrently executed
	// chunks: a fresh service with the same seed and the same call
	// sequence must emit identical codebooks.
	svc2 := copse.NewService(
		copse.WithBackend(copse.BackendClear),
		copse.WithShuffle(true),
		copse.WithSeed(9),
	)
	if err := svc2.Register("m", c); err != nil {
		t.Fatal(err)
	}
	replay, err := svc2.ClassifyBatch(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !slices.Equal(replay[i].Codebook.Slots, results[i].Codebook.Slots) {
			t.Fatalf("query %d: seeded replay produced a different codebook", i)
		}
	}
}

// TestServiceShuffledCodebookPaths: a shuffled result's codebook reaches
// the caller on every serving path — ClassifyBatch direct, ClassifyBatch
// through the dynamic batcher, and the three calls EncryptQueryBatch,
// Classify, DecryptResultBatch — and an unshuffled result carries none.
func TestServiceShuffledCodebookPaths(t *testing.T) {
	f, _ := trainedModel(t, 48, 256)
	c, err := copse.Compile(f, copse.CompileOptions{Slots: 256, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]uint64{{1, 2, 3}, {9, 0, 14}}
	for _, shuffle := range []bool{false, true} {
		for _, path := range []string{"direct", "batcher", "three-call"} {
			opts := []copse.Option{copse.WithBackend(copse.BackendClear), copse.WithShuffle(shuffle), copse.WithSeed(3)}
			if path == "batcher" {
				opts = append(opts, copse.WithBatchWindow(time.Millisecond))
			}
			svc := copse.NewService(opts...)
			if err := svc.Register("m", c); err != nil {
				t.Fatal(err)
			}
			var results []*copse.Result
			if path == "three-call" {
				q, err := svc.EncryptQueryBatch("m", batch)
				if err != nil {
					t.Fatal(err)
				}
				enc, _, err := svc.Classify(context.Background(), "m", q)
				if err != nil {
					t.Fatal(err)
				}
				results, err = svc.DecryptResultBatch("m", enc)
				if err != nil {
					t.Fatal(err)
				}
			} else if results, err = svc.ClassifyBatch(context.Background(), "m", batch); err != nil {
				t.Fatal(err)
			}
			svc.Close()
			for i, res := range results {
				cb := res.Codebook
				switch {
				case !shuffle && cb != nil:
					t.Errorf("unshuffled %s query %d carries a codebook", path, i)
				case shuffle && (cb == nil || len(cb.Slots) != c.Meta.NumLeaves || cb.NumTrees != len(f.Trees)):
					t.Errorf("shuffled %s query %d: codebook %+v, want one over %d leaves of %d trees", path, i, cb, c.Meta.NumLeaves, len(f.Trees))
				}
				wantVotes := make([]int, len(f.Labels))
				for _, lbl := range f.Classify(batch[i]) {
					wantVotes[lbl]++
				}
				if !slices.Equal(res.Votes, wantVotes) {
					t.Errorf("shuffle=%v %s query %d: votes %v, want %v", shuffle, path, i, res.Votes, wantVotes)
				}
			}
		}
	}
}

// TestServiceShuffledServingBGV runs shuffled batched serving on real
// ciphertexts: a PlanShuffle-compiled model, the scheduled chain, and a
// full-capacity batch decoded through per-query codebooks.
func TestServiceShuffledServingBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV shuffled serving is slow")
	}
	forest := copse.ExampleForest()
	c, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithShuffle(true),
		copse.WithWorkers(4),
		copse.WithSeed(11),
	)
	if err := svc.Register("fig1", c); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rng := rand.New(rand.NewPCG(13, 1))
	capacity := c.Meta.BatchCapacity()
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{rng.Uint64N(16), rng.Uint64N(16)}
	}
	results, err := svc.ClassifyBatch(context.Background(), "fig1", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, feats := range batch {
		wantVotes := make([]int, len(forest.Labels))
		for _, lbl := range forest.Classify(feats) {
			wantVotes[lbl]++
		}
		for lbl, v := range results[i].Votes {
			if v != wantVotes[lbl] {
				t.Errorf("query %d (%v): votes %v, want %v", i, feats, results[i].Votes, wantVotes)
				break
			}
		}
		if results[i].Codebook == nil {
			t.Fatalf("query %d: no codebook", i)
		}
	}
}

// TestServiceShuffleRequiresHeadroom: registering a model whose schedule
// lands the result below the shuffle entry on a shuffled BGV service
// must fail fast in the level pass — the shuffle stage's typed
// *PlanInfeasibleError — with the PlanShuffle hint.
func TestServiceShuffleRequiresHeadroom(t *testing.T) {
	c, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024}) // no PlanShuffle
	if err != nil {
		t.Fatal(err)
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithShuffle(true),
	)
	err = svc.Register("fig1", c)
	var infeasible *copse.PlanInfeasibleError
	if !errors.As(err, &infeasible) || infeasible.Stage != "shuffle" {
		t.Fatalf("shuffled service registered a model without shuffle headroom: %v, want the shuffle stage's *PlanInfeasibleError", err)
	}
	if !strings.Contains(err.Error(), "PlanShuffle") {
		t.Errorf("error %q does not name PlanShuffle", err)
	}
}

// TestServiceV4ArtifactPlan: testdata/figure1_v4.copse was written before
// the compare stage became a depth-optimal tree, so its CompareRounds were
// planned for the Sklansky prefix chain, one product level deeper. On BGV,
// under either scenario, it either registers and answers every batch fill
// exactly as the plaintext walk does, or Register refuses it with the
// typed *PlanInfeasibleError; it never returns a wrong label.
func TestServiceV4ArtifactPlan(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("internal", "core", "testdata", "figure1_v4.copse"))
	if err != nil {
		t.Fatal(err)
	}
	forest := copse.ExampleForest()
	for _, sc := range []copse.Scenario{copse.ScenarioOffload, copse.ScenarioServerModel} {
		c, err := copse.ReadArtifact(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if plan := c.Meta.LevelPlan; len(plan.Cipher.CompareRounds) != 2 || len(plan.Plain.CompareRounds) != 2 {
			t.Fatalf("the v4 artifact carries plan %+v, want two compare rounds per scenario", plan)
		}
		svc := copse.NewService(copse.WithBackend(copse.BackendBGV), copse.WithScenario(sc), copse.WithSeed(22))
		err = svc.Register("fig1", c)
		var infeasible *copse.PlanInfeasibleError
		switch {
		case errors.As(err, &infeasible):
			t.Logf("scenario %d: refused at Register: %v", sc, err)
		case err != nil:
			t.Errorf("scenario %d: Register: %v, want success or *PlanInfeasibleError", sc, err)
		default:
			for _, fill := range []int{1, 3, c.Meta.BatchCapacity()} {
				batch := randomBatch(forest, fill, uint64(fill))
				results, err := svc.ClassifyBatch(context.Background(), "fig1", batch)
				if err != nil {
					t.Fatalf("scenario %d, batch of %d: %v", sc, fill, err)
				}
				for i, feats := range batch {
					if want := forest.Classify(feats); !slices.Equal(results[i].PerTree, want) {
						t.Errorf("scenario %d, batch of %d, query %v: labels %v, plaintext %v", sc, fill, feats, results[i].PerTree, want)
					}
				}
			}
		}
		svc.Close()
	}
}

// TestServiceNoiseMeasurement: WithNoiseMeasurement fills Trace.Noise
// with positive margins on BGV and leaves -1 when off.
func TestServiceNoiseMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV noise measurement test is slow")
	}
	c, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	svc := serve(t, "figure1", c,
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithNoiseMeasurement(true),
		copse.WithSeed(6),
	)
	q, err := svc.EncryptQuery("figure1", []uint64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := svc.Classify(context.Background(), "figure1", q)
	if err != nil {
		t.Fatal(err)
	}
	n := trace.Noise
	for name, v := range map[string]int{
		"query": n.Query, "decisions": n.Decisions, "branchvec": n.BranchVec,
		"levelresult": n.LevelResult, "result": n.Result,
	} {
		if v <= 0 {
			t.Errorf("measured %s noise budget %d, want positive", name, v)
		}
	}
	// Off by default.
	svc2 := serve(t, "figure1", c,
		copse.WithBackend(copse.BackendClear),
		copse.WithScenario(copse.ScenarioOffload),
	)
	q2, err := svc2.EncryptQuery("figure1", []uint64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	_, trace2, err := svc2.Classify(context.Background(), "figure1", q2)
	if err != nil {
		t.Fatal(err)
	}
	if trace2.Noise.Result != -1 {
		t.Errorf("unmeasured trace carries noise %d, want -1", trace2.Noise.Result)
	}
}

// TestServiceLatencyHistogram: per-model latency histograms accumulate
// only for the models actually served, and the quantiles are ordered.
func TestServiceLatencyHistogram(t *testing.T) {
	f1, c1 := trainedModel(t, 71, 256)
	_, c2 := trainedModel(t, 72, 256)
	svc := copse.NewService(copse.WithBackend(copse.BackendClear))
	if err := svc.Register("hot", c1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Register("cold", c2); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		q := make([]uint64, f1.NumFeatures)
		for j := range q {
			q[j] = uint64(i+j) % (1 << uint(f1.Precision))
		}
		if _, err := svc.ClassifyBatch(context.Background(), "hot", [][]uint64{q}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	hot, ok := st.ModelLatency["hot"]
	if !ok {
		t.Fatal("no latency stats for served model")
	}
	if hot.Count != rounds {
		t.Errorf("hot latency count = %d, want %d", hot.Count, rounds)
	}
	if hot.P50 <= 0 || hot.P50 > hot.P95 || hot.P95 > hot.P99 {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v", hot.P50, hot.P95, hot.P99)
	}
	if cold := st.ModelLatency["cold"]; cold.Count != 0 {
		t.Errorf("cold model recorded %d observations", cold.Count)
	}
}
