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

type alignCase struct {
	f *model.Forest
	c *Compiled
}

// alignCorpus is every Table 6 forest plus wide8 whole and split two
// ways; the short suite keeps one model of each pipeline shape.
func alignCorpus(t *testing.T) map[string]alignCase {
	t.Helper()
	forests := map[string]*model.Forest{"wide8": wide8Forest(t)}
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
	shards, _, err := ShardForest(corpus["wide8"].c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range shards {
		corpus[fmt.Sprintf("wide8-shard%d", i)] = alignCase{forests["wide8"], sc}
	}
	return corpus
}

// TestPlannedPassAlignsNothing is the every-level-move-is-an-op
// invariant: under the level plan the backend performs no implicit
// alignment in any stage of any scenario — each one is an opDrop of the
// program — and the answer is the forest's. Staged reactively
// (WithLevelPlan(false)) the same models do align inside the backend,
// which is what the counter is for.
func TestPlannedPassAlignsNothing(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for name, ac := range alignCorpus(t) {
		f, c := ac.f, ac.c
		for _, cfg := range schedConfigs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				b := planBackend(t, c, cfg.encModel)
				feats := randomFeatures(rng, f.NumFeatures, f.Precision)
				classify := func(plan *LevelPlan) *Trace {
					m, err := PrepareWithPlan(b, c, cfg.encModel, plan)
					if err != nil {
						t.Fatal(err)
					}
					q, err := PrepareQuery(b, &m.Meta, feats, cfg.encQuery)
					if err != nil {
						t.Fatal(err)
					}
					out, trace, err := (&Engine{Backend: b}).Classify(m, q)
					if err != nil {
						t.Fatal(err)
					}
					slots, err := he.Reveal(b, out)
					if err != nil {
						t.Fatal(err)
					}
					res, err := DecodeResult(&m.Meta, slots)
					if err != nil {
						t.Fatal(err)
					}
					start := 0
					if c.Shard != nil {
						start = c.Shard.TreeStart
					}
					if want := f.Classify(feats)[start : start+len(res.PerTree)]; !slices.Equal(res.PerTree, want) {
						t.Fatalf("plan=%v: classified %v, forest says %v", plan != nil, res.PerTree, want)
					}
					return trace
				}
				tr := classify(c.Meta.LevelPlan)
				for st, ops := range []he.OpCounts{tr.CompareOps, tr.ReshuffleOps, tr.LevelOps, tr.AccumulateOps} {
					if ops.Aligns != 0 {
						t.Errorf("planned %s stage: backend aligned %d operands itself", stageNames[st], ops.Aligns)
					}
				}
				// The reactive contrast runs on the Table 6 models of the
				// full suite; wide8 stages too slowly to do twice.
				if testing.Short() || f.NumFeatures != 2 {
					return
				}
				tr = classify(nil)
				if n := tr.CompareOps.Plus(tr.ReshuffleOps).Plus(tr.LevelOps).Plus(tr.AccumulateOps).Aligns; n == 0 {
					t.Error("reactive staging: no implicit alignment counted")
				}
			})
		}
	}
}
