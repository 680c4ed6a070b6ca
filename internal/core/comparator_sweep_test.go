package core_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"testing"

	"copse/internal/baseline"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// comparatorQuery draws a feature vector whose values sit on, just below
// and just above the thresholds the forest tests them against, where a
// comparison's less significant planes decide, and elsewhere at random.
func comparatorQuery(rng *rand.Rand, f *model.Forest, thresholds [][]uint64) []uint64 {
	top := uint64(1)<<uint(f.Precision) - 1
	feats := make([]uint64, f.NumFeatures)
	for i := range feats {
		feats[i] = rng.Uint64N(top + 1)
		if ts := thresholds[i]; len(ts) > 0 && rng.IntN(4) > 0 {
			v := ts[rng.IntN(len(ts))]
			switch rng.IntN(3) {
			case 0:
				v = max(v, 1) - 1
			case 1:
				v = min(v, top-1) + 1
			}
			feats[i] = v
		}
	}
	return feats
}

// TestComparatorPrecisionSweep is the reduction tree's oracle: on the exact
// backend, for every precision 1–17 — the powers of two and the operand
// counts with an odd node left over at some round — under each scenario
// and at every batch fill 1..capacity, so at every plane packing, the
// labels equal the plaintext walk. The baseline runs the same comparator
// once per decision node, and its labels are held to the same walk.
func TestComparatorPrecisionSweep(t *testing.T) {
	scenarios := []struct {
		name               string
		encModel, encQuery bool
	}{{"offload", true, true}, {"servermodel", false, true}, {"clienteval", true, false}}
	for p := 1; p <= 17; p++ {
		f, err := synth.Generate(synth.ForestSpec{
			NumFeatures: 3, NumLabels: 3, Precision: p, MaxDepth: 3,
			BranchesPerTree: []int{5, 3}, Seed: uint64(p),
		})
		if err != nil {
			t.Fatal(err)
		}
		thresholds := make([][]uint64, f.NumFeatures)
		var walk func(n *model.Node)
		walk = func(n *model.Node) {
			if !n.Leaf {
				thresholds[n.Feature] = append(thresholds[n.Feature], n.Threshold)
				walk(n.Left)
				walk(n.Right)
			}
		}
		for _, tr := range f.Trees {
			walk(tr.Root)
		}
		b := heclear.New(256, 65537)
		c, err := core.Compile(f, core.Options{Slots: b.Slots()})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(uint64(p), 17))
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("p%d/%s", p, sc.name), func(t *testing.T) {
				m, err := core.Prepare(b, c, sc.encModel, sc.encQuery, false)
				if err != nil {
					t.Fatal(err)
				}
				e := &core.Engine{Backend: b}
				for fill := 1; fill <= c.Meta.BatchCapacity(); fill++ {
					batch := make([][]uint64, fill)
					for i := range batch {
						batch[i] = comparatorQuery(rng, f, thresholds)
					}
					q, err := core.PrepareQueryBatch(b, &m.Meta, batch, sc.encQuery)
					if err != nil {
						t.Fatal(err)
					}
					out, _, _, err := e.Classify(context.Background(), m, q, 0)
					if err != nil {
						t.Fatalf("batch of %d: %v", fill, err)
					}
					slots, err := he.Reveal(b, out)
					if err != nil {
						t.Fatal(err)
					}
					results, err := core.DecodeResultBatch(&m.Meta, slots, fill)
					if err != nil {
						t.Fatal(err)
					}
					for k, feats := range batch {
						for ti, want := range f.Classify(feats) {
							if got := results[k].PerTree[ti]; got != want {
								t.Errorf("batch of %d at packing %d, query %v tree %d: L%d, plaintext L%d", fill, q.PlanesPerCiphertext, feats, ti, got, want)
							}
						}
					}
				}
			})
		}
		t.Run(fmt.Sprintf("p%d/baseline", p), func(t *testing.T) {
			m, err := baseline.Prepare(f, b.Slots(), "clear", 0)
			if err != nil {
				t.Fatal(err)
			}
			for range c.Meta.BatchCapacity() {
				feats := comparatorQuery(rng, f, thresholds)
				q, err := baseline.PrepareQuery(m.Backend, &m.Meta, feats)
				if err != nil {
					t.Fatal(err)
				}
				out, _, err := baseline.Classify(context.Background(), m, q, 0)
				if err != nil {
					t.Fatal(err)
				}
				slots, err := he.Reveal(m.Backend, out)
				if err != nil {
					t.Fatal(err)
				}
				got, err := baseline.DecodeResult(&m.Meta, slots)
				if err != nil {
					t.Fatal(err)
				}
				for ti, want := range f.Classify(feats) {
					if got[ti] != want {
						t.Errorf("query %v tree %d: L%d, plaintext L%d", feats, ti, got[ti], want)
					}
				}
			}
		})
	}
}
