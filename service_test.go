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

	"copse"
	"copse/internal/core"
	"copse/internal/he"
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

// TestServiceBatchCapacityError: the service boundary splits oversized
// batches into a chain of passes transparently; the typed error stays
// at the low-level PrepareQueryBatch API.
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

	// The low-level core API keeps its one-pass contract.
	_, err = core.PrepareQueryBatch(svc.Backend(), &c.Meta, over, false)
	var bce *core.BatchCapacityError
	if !errors.As(err, &bce) {
		t.Errorf("core.PrepareQueryBatch: %v, want *core.BatchCapacityError", err)
	}

	// The service chains the overflow and answers every query.
	q, err := svc.EncryptQueryBatch("m", over)
	if err != nil {
		t.Fatalf("oversized EncryptQueryBatch: %v", err)
	}
	enc, _, err := svc.Classify(context.Background(), "m", q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := svc.DecryptResultBatch("m", enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(over) {
		t.Fatalf("%d results for %d queries", len(results), len(over))
	}
	for i, feats := range over {
		want := f.Classify(feats)
		for ti, lbl := range results[i].PerTree {
			if lbl != want[ti] {
				t.Errorf("query %d tree %d: L%d, want L%d", i, ti, lbl, want[ti])
			}
		}
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
		copse.WithSecurity(copse.SecurityTest),
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
	results, codebooks, err := svc.ClassifyBatchShuffled(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(batch) || len(codebooks) != len(batch) {
		t.Fatalf("%d results, %d codebooks for %d queries", len(results), len(codebooks), len(batch))
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
		if codebooks[i] == nil || len(codebooks[i].Slots) == 0 {
			t.Errorf("query %d: missing codebook", i)
		}
	}
	// ClassifyBatch (codebooks hidden) must serve the same votes.
	plain, err := svc.ClassifyBatch(context.Background(), "m", batch[:2])
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].PerTree != nil {
		t.Error("shuffled service leaked per-tree labels through ClassifyBatch")
	}
	// Distinct passes draw distinct permutations: classify the same query
	// twice and compare codebooks.
	_, cb1, err := svc.ClassifyBatchShuffled(context.Background(), "m", batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	_, cb2, err := svc.ClassifyBatchShuffled(context.Background(), "m", batch[:1])
	if err != nil {
		t.Fatal(err)
	}
	same := len(cb1[0].Slots) == len(cb2[0].Slots)
	if same {
		for i := range cb1[0].Slots {
			if cb1[0].Slots[i] != cb2[0].Slots[i] {
				same = false
				break
			}
		}
	}
	if same {
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
	_, replay, err := svc2.ClassifyBatchShuffled(context.Background(), "m", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codebooks {
		for j := range codebooks[i].Slots {
			if replay[i].Slots[j] != codebooks[i].Slots[j] {
				t.Fatalf("query %d: seeded replay produced a different codebook", i)
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
		copse.WithSecurity(copse.SecurityTest),
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
	results, codebooks, err := svc.ClassifyBatchShuffled(context.Background(), "fig1", batch)
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
		if codebooks[i] == nil {
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
	if c.Meta.LevelPlan == nil {
		t.Skip("no level plan on this model")
	}
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithSecurity(copse.SecurityTest),
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
		if plan := c.Meta.LevelPlan; plan == nil || len(plan.Cipher.CompareRounds) != 2 || len(plan.Plain.CompareRounds) != 2 {
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

// TestServicePlanlessModel: an artifact compiled with NoLevelPlan is
// served reactively — the BGV chain is the compiler's reactive
// recommendation, the backend level-aligns mismatched operands itself,
// and every label still matches the plaintext walk.
func TestServicePlanlessModel(t *testing.T) {
	forest := copse.ExampleForest()
	c, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024, NoLevelPlan: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta.LevelPlan != nil {
		t.Fatal("NoLevelPlan compiled a level plan")
	}
	sys, err := copse.NewSystem(c, copse.SystemConfig{
		Backend: copse.BackendBGV, Scenario: copse.ScenarioOffload,
		Security: copse.SecurityTest, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Service().Close()
	ld, ok := sys.Backend().(he.LevelDropper)
	if !ok {
		t.Fatalf("BGV backend %T has no level structure", sys.Backend())
	}
	if primes := ld.MaxLevel() + 1; primes != c.Meta.RecommendedLevels {
		t.Errorf("planless chain has %d primes, want the reactive recommendation %d", primes, c.Meta.RecommendedLevels)
	}
	for i, feats := range randomBatch(forest, 3, 21) {
		q, err := sys.Diane.EncryptQuery(feats)
		if err != nil {
			t.Fatal(err)
		}
		enc, trace, err := sys.Sally.Classify(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if ops := trace.CompareOps.Plus(trace.ReshuffleOps).Plus(trace.LevelOps).Plus(trace.AccumulateOps); ops.Aligns == 0 {
			t.Errorf("query %d: reactive pass aligned no operands", i)
		}
		res, err := sys.Diane.DecryptResult(enc)
		if err != nil {
			t.Fatal(err)
		}
		if want := forest.Classify(feats); !slices.Equal(res.PerTree, want) {
			t.Errorf("query %d %v: labels %v, plaintext %v", i, feats, res.PerTree, want)
		}
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
	sys, err := copse.NewSystem(c, copse.SystemConfig{
		Backend: copse.BackendBGV, Scenario: copse.ScenarioOffload,
		Security: copse.SecurityTest, MeasureNoise: true, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Diane.EncryptQuery([]uint64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := sys.Sally.Classify(q)
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
	sys2, err := copse.NewSystem(c, copse.SystemConfig{
		Backend: copse.BackendClear, Scenario: copse.ScenarioOffload,
	})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sys2.Diane.EncryptQuery([]uint64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	_, trace2, err := sys2.Sally.Classify(q2)
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
