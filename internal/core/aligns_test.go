package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"copse/internal/he"
	"copse/internal/model"
	"copse/internal/synth"
)

// wide8Forest is the benchmark's wide model: 8 trees of 15 branches over
// 4 features (bench/system.go), the shape whose mat-vec stages dominate.
func wide8Forest(t *testing.T) *model.Forest {
	t.Helper()
	f, err := synth.Generate(synth.ForestSpec{
		Name: "wide8", NumFeatures: 4, NumLabels: 3, Precision: 8, MaxDepth: 5,
		BranchesPerTree: []int{15, 15, 15, 15, 15, 15, 15, 15}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// lanes4Forest is a model whose blocks split into four level lanes: six
// levels over a branch vector of period 8, in blocks the twelve features
// make 64 slots wide — two stacked operands, the last two lanes of the
// second the identity, and two rotate-and-multiply rounds in accumulate.
func lanes4Forest(t *testing.T) *model.Forest {
	t.Helper()
	f, err := synth.Generate(synth.ForestSpec{
		Name: "lanes4", NumFeatures: 12, NumLabels: 3, Precision: 5, MaxDepth: 6, BranchesPerTree: []int{6}, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

type alignCase struct {
	f *model.Forest
	c *Compiled
}

// alignCorpus is every Table 6 forest (one or two level lanes), the
// four-lane model, and wide8 whole and split two ways; the short suite
// keeps one model of each pipeline shape.
func alignCorpus(t *testing.T) map[string]alignCase {
	t.Helper()
	forests := map[string]*model.Forest{"wide8": wide8Forest(t), "lanes4": lanes4Forest(t)}
	for _, mb := range synth.Microbenchmarks() {
		if testing.Short() && mb.Name != "depth4" && mb.Name != "prec16" {
			continue
		}
		forests[mb.Name] = microForest(t, mb.Name)
	}
	corpus := map[string]alignCase{}
	for name, f := range forests {
		c, err := Compile(f, Options{Slots: 1024})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus[name] = alignCase{f, c}
	}
	if lanes, ops := corpus["lanes4"].c.Meta.LevelLanes(); lanes != 4 || ops != 2 {
		t.Fatalf("lanes4 stacks %d operands of %d lanes, want 2 of 4", ops, lanes)
	}
	shards, _, err := ShardForest(corpus["wide8"].c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range shards {
		corpus[fmt.Sprintf("wide8-shard%d", i)] = alignCase{forests["wide8"], sc}
	}
	return corpus
}

// packingFills returns one batch size per plane packing the model admits,
// the largest that selects it: from the lone query's packing down to the
// full batch's one plane per ciphertext.
func packingFills(m *Meta) []int {
	var fills []int
	for g := m.PlanesPerCiphertext(1); g >= 1; g >>= 1 {
		fills = append(fills, m.QueryCapacity(g))
	}
	return fills
}

// TestPlannedPassAlignsNothing is the every-level-move-is-an-op
// invariant: under the level plan the backend performs no implicit
// alignment in any stage of any scenario, at any plane packing — each
// one is an opDrop of the program — and the answers are the forest's.
// Staged reactively (PrepareWithPlan with a nil plan, as a model
// compiled with Options.NoLevelPlan is) the same models do align
// inside the backend, which is what the counter is for.
func TestPlannedPassAlignsNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for name, ac := range alignCorpus(t) {
		f, c := ac.f, ac.c
		for _, cfg := range schedConfigs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				b := he.Backend(planBackend(t, c, cfg.encModel))
				stage := func(plan *LevelPlan) *ModelOperands {
					m, err := PrepareWithPlan(b, c, cfg.encModel, plan)
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
				classify := func(m *ModelOperands, fill int) *Trace {
					batch := make([][]uint64, fill)
					for i := range batch {
						batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
					}
					q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
					if err != nil {
						t.Fatal(err)
					}
					out, trace, err := (&Engine{Backend: b}).Classify(m, q)
					if err != nil {
						t.Fatal(err)
					}
					if g := m.Meta.PlanesPerCiphertext(fill); trace.PlanesPerCiphertext != g || trace.QueryCiphertexts != m.Meta.QueryCiphertexts(g) {
						t.Fatalf("fill %d ran %d operands at %d planes per ciphertext, want %d at %d",
							fill, trace.QueryCiphertexts, trace.PlanesPerCiphertext, m.Meta.QueryCiphertexts(g), g)
					}
					slots, err := he.Reveal(b, out)
					if err != nil {
						t.Fatal(err)
					}
					results, err := DecodeResultBatch(&m.Meta, slots, fill, m.Meta.QueryCapacity(q.PlanesPerCiphertext))
					if err != nil {
						t.Fatal(err)
					}
					start := 0
					if c.Shard != nil {
						start = c.Shard.TreeStart
					}
					for i, res := range results {
						if want := f.Classify(batch[i])[start : start+len(res.PerTree)]; !slices.Equal(res.PerTree, want) {
							t.Fatalf("plan=%v fill=%d query %d: classified %v, forest says %v", m.Plan != nil, fill, i, res.PerTree, want)
						}
					}
					return trace
				}
				planned := stage(c.Meta.LevelPlan)
				for _, fill := range packingFills(&c.Meta) {
					tr := classify(planned, fill)
					for st, ops := range []he.OpCounts{tr.CompareOps, tr.ReshuffleOps, tr.LevelOps, tr.AccumulateOps} {
						if ops.Aligns != 0 {
							t.Errorf("planned %s stage at %d planes per ciphertext: backend aligned %d operands itself",
								stageNames[st], tr.PlanesPerCiphertext, ops.Aligns)
						}
					}
				}
				// The reactive contrast runs on the Table 6 models of the
				// full suite; wide8 stages too slowly to do twice. Reactive
				// management needs the chain the compiler recommends for it,
				// not the plan's.
				if testing.Short() || f.NumFeatures != 2 {
					return
				}
				reactive := *c
				reactive.Meta.LevelPlan = nil
				b = planBackend(t, &reactive, cfg.encModel)
				tr := classify(stage(nil), c.Meta.BatchCapacity())
				if n := tr.CompareOps.Plus(tr.ReshuffleOps).Plus(tr.LevelOps).Plus(tr.AccumulateOps).Aligns; n == 0 {
					t.Error("reactive staging: no implicit alignment counted")
				}
			})
		}
	}
}
