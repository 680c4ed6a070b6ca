package copse_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"copse"
	"copse/internal/synth"
)

// packedModel is one model of the plane-packing oracle: a compiled
// forest, or one shard of one, with the forest whose plaintext walk it
// must agree with and the trees of that walk it answers for.
type packedModel struct {
	name     string
	forest   *copse.Forest
	compiled map[bool]*copse.Compiled // by CompileOptions.PlanShuffle
	trees    [2]int
	bgv      bool // also served on BGV (Slots 1024)
	// heavy marks the wide model and its shards, whose encrypted staging
	// takes seconds: the short suite serves them on BGV unshuffled only.
	heavy bool
	// sweep serves, on BGV, every batch size from the lone query to the
	// full batch (the short suite: both edges of every packing) in each of
	// the three ways a model and a query are staged, instead of the largest
	// batch of every packing with the four offload aliases taking turns.
	sweep bool
}

// packModel compiles f with and without shuffle headroom and, when
// shards > 0, splits each compile that many ways: the whole model, then
// its shards.
func packModel(t *testing.T, name string, f *copse.Forest, slots, shards int, bgv bool) []packedModel {
	t.Helper()
	whole := packedModel{name: name, forest: f, compiled: map[bool]*copse.Compiled{}, trees: [2]int{0, len(f.Trees)}, bgv: bgv, heavy: shards > 0}
	pieces := make([]packedModel, shards)
	for _, planShuffle := range []bool{false, true} {
		c, err := copse.Compile(f, copse.CompileOptions{Slots: slots, PlanShuffle: planShuffle})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		whole.compiled[planShuffle] = c
		if shards == 0 {
			continue
		}
		split, _, err := copse.ShardForest(c, shards)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, sc := range split {
			if pieces[i].compiled == nil {
				pieces[i] = packedModel{
					name: fmt.Sprintf("%s-shard%d", name, i), forest: f, compiled: map[bool]*copse.Compiled{},
					trees: [2]int{sc.Shard.TreeStart, sc.Shard.TreeEnd}, bgv: bgv, heavy: true,
				}
			}
			pieces[i].compiled[planShuffle] = sc
		}
	}
	return append([]packedModel{whole}, pieces...)
}

func generateForest(t *testing.T, spec synth.ForestSpec) *copse.Forest {
	t.Helper()
	f, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func packedModels(t *testing.T) []packedModel {
	t.Helper()
	var models []packedModel
	add := func(name string, f *copse.Forest, slots, shards int, bgv bool) {
		models = append(models, packModel(t, name, f, slots, shards, bgv)...)
	}
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == "depth4" || mb.Name == "prec16" {
			add(mb.Name, generateForest(t, mb.Spec), 1024, 0, true)
		}
	}
	// The benchmark's wide model, whole and in the two shards the cluster
	// workload serves: the shards keep the parent's block layout
	// (Meta.ForcedSPad), so they share its plane packings.
	add("wide8", generateForest(t, synth.ForestSpec{
		Name: "wide8", NumFeatures: 4, NumLabels: 3, Precision: 8, MaxDepth: 5,
		BranchesPerTree: []int{15, 15, 15, 15, 15, 15, 15, 15}, Seed: 1,
	}), 1024, 2, true)
	if testing.Short() {
		return models
	}
	// Precisions that are not powers of two pad the top packing's last
	// planes; a model that fills the slots has one packing only.
	for _, p := range []int{14, 15} {
		add(fmt.Sprintf("prec%d", p), generateForest(t, synth.ForestSpec{
			NumFeatures: 2, NumLabels: 3, Precision: p, MaxDepth: 4, BranchesPerTree: []int{6, 5}, Seed: uint64(p),
		}), 1024, 0, true)
	}
	add("capacity1", copse.ExampleForest(), 16, 0, false)
	return models
}

// packingBatches returns the batch sizes at the edges of every plane
// packing a model admits: the smallest and the largest batch that select
// each, from the lone query to the full batch.
func packingBatches(m *copse.Meta) []int {
	capacity := m.BatchCapacity()
	var sizes []int
	for g := m.PlanesPerCiphertext(1); g >= 1; g >>= 1 {
		lo, hi := capacity/(2*g)+1, capacity/g
		if g == m.PlanesPerCiphertext(1) {
			lo = 1
		}
		for _, n := range []int{lo, hi} {
			if !slices.Contains(sizes, n) {
				sizes = append(sizes, n)
			}
		}
	}
	return sizes
}

// TestPlanePackingMatchesForest is the oracle of the query layout's
// plane axis: whatever share of the batch blocks a request fills — so
// whichever plane packing PrepareQueryBatch derives from it — every
// answer is model.Forest.Classify's, bit for bit. It serves every model
// through a Service with and without the result shuffle: on the exact
// backend in all six party scenarios at both edges of every packing, on
// BGV in the three ways the six stage a model and a query (the four that
// encrypt both take turns) at the largest batch of each packing plus the
// lone query. The short suite leaves wide8's shuffled BGV runs to the
// full one (its encrypted staging takes seconds).
func TestPlanePackingMatchesForest(t *testing.T) {
	turn := 0
	for _, pm := range packedModels(t) {
		servePacked(t, pm, &turn)
	}
}

// servePacked holds pm to the forest at the batch sizes of every plane
// packing, on both backends, shuffled and not, in the party scenarios:
// all six on the exact backend; on BGV the two that leave one side in
// plaintext and, taking turns, one of the four that encrypt both.
func servePacked(t *testing.T, pm packedModel, turn *int, backends ...copse.BackendKind) {
	if len(backends) == 0 {
		backends = []copse.BackendKind{copse.BackendClear, copse.BackendBGV}
	}
	for _, backend := range backends {
		onBGV := backend == copse.BackendBGV
		if onBGV && !pm.bgv {
			continue
		}
		for _, shuffle := range []bool{false, true} {
			if onBGV && shuffle && testing.Short() && pm.heavy {
				continue
			}
			c := pm.compiled[shuffle]
			sizes, served := packingBatches(&c.Meta), programScenarios
			switch {
			case onBGV && pm.sweep:
				served = programScenarios[:3]
				if !testing.Short() {
					sizes = sizes[:0]
					for n := 1; n <= c.Meta.BatchCapacity(); n++ {
						sizes = append(sizes, n)
					}
				}
			case onBGV:
				sizes = slices.DeleteFunc(sizes, func(n int) bool {
					return n != 1 && n != c.Meta.QueryCapacity(c.Meta.PlanesPerCiphertext(n))
				})
				// programScenarios lists offload, the two that leave one side
				// in plaintext, then offload's three aliases.
				served = append(slices.Clone(programScenarios[1:3]), programScenarios[[]int{0, 3, 4, 5}[*turn%4]])
				*turn++
			}
			for _, sc := range served {
				t.Run(fmt.Sprintf("%s/%s/shuffle=%v/%s", pm.name, map[bool]string{false: "clear", true: "bgv"}[onBGV], shuffle, sc.name), func(t *testing.T) {
					svc := copse.NewService(copse.WithBackend(backend), copse.WithScenario(sc.scenario),
						copse.WithShuffle(shuffle), copse.WithSeed(18))
					if err := svc.Register("m", c); err != nil {
						t.Fatal(err)
					}
					defer svc.Close()
					for _, n := range sizes {
						checkPackedBatch(t, svc, pm, &c.Meta, n, shuffle)
					}
				})
			}
		}
	}
}

// checkPackedBatch classifies n random queries in one pass and holds the
// pass to the packing n selects and every answer to the forest's.
func checkPackedBatch(t *testing.T, svc *copse.Service, pm packedModel, meta *copse.Meta, n int, shuffled bool) {
	t.Helper()
	f := pm.forest
	batch := randomBatch(f, n, uint64(n))
	q, err := svc.EncryptQueryBatch("m", batch)
	if err != nil {
		t.Fatal(err)
	}
	g := meta.PlanesPerCiphertext(n)
	if q.PlanesPerCiphertext != g || len(q.Bits) != meta.QueryCiphertexts(g) {
		t.Fatalf("batch of %d: %d operands at %d planes per ciphertext, want %d at %d",
			n, len(q.Bits), q.PlanesPerCiphertext, meta.QueryCiphertexts(g), g)
	}
	enc, trace, err := svc.Classify(context.Background(), "m", q)
	if err != nil {
		t.Fatalf("batch of %d: %v", n, err)
	}
	if trace.PlanesPerCiphertext != g || trace.QueryCiphertexts != len(q.Bits) {
		t.Errorf("batch of %d: trace reports %d operands at %d planes per ciphertext", n, trace.QueryCiphertexts, trace.PlanesPerCiphertext)
	}
	if lanes, groups, ops := meta.LevelLayout(g); trace.LevelLanes != lanes || trace.LevelGroups != groups || trace.LevelOperands != ops {
		t.Errorf("batch of %d: trace reports %d level operands of %d lanes × %d groups, the layout has %d of %d × %d", n, trace.LevelOperands, trace.LevelLanes, trace.LevelGroups, ops, lanes, groups)
	}
	results, err := svc.DecryptResultBatch("m", enc)
	if err != nil {
		t.Fatalf("batch of %d: %v", n, err)
	}
	if len(results) != n {
		t.Fatalf("batch of %d: %d results", n, len(results))
	}
	for i, feats := range batch {
		want := f.Classify(feats)[pm.trees[0]:pm.trees[1]]
		votes := make([]int, len(f.Labels))
		for _, label := range want {
			votes[label]++
		}
		if !slices.Equal(results[i].Votes, votes) {
			t.Errorf("batch of %d (g=%d), query %d %v: votes %v, forest says %v", n, g, i, feats, results[i].Votes, votes)
		}
		if !shuffled && !slices.Equal(results[i].PerTree, want) {
			t.Errorf("batch of %d (g=%d), query %d %v: trees say %v, forest says %v", n, g, i, feats, results[i].PerTree, want)
		}
	}
}
