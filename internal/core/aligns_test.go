package core

import (
	"context"
	"fmt"
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

// alignCase is one model of the corpus; shuffle marks one compiled with
// Options.PlanShuffle and served by a shuffling service, its programs
// ending in the result shuffle stage.
type alignCase struct {
	f       *model.Forest
	c       *Compiled
	shuffle bool
}

// alignCorpus is every Table 6 forest (one or two level lanes), the
// four-lane model, wide8 whole and split two ways, and Figure 1 and wide8
// shuffled; the short suite keeps one model of each pipeline shape.
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
		corpus[name] = alignCase{f: f, c: c}
	}
	shuffled := map[string]*model.Forest{"figure1": model.Figure1()}
	if !testing.Short() {
		shuffled["wide8"] = forests["wide8"]
	}
	for name, f := range shuffled {
		c, err := Compile(f, Options{Slots: 1024, PlanShuffle: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		corpus[name+"/shuffled"] = alignCase{f, c, true}
	}
	if lanes, ops := corpus["lanes4"].c.Meta.LevelLanes(); lanes != 4 || ops != 2 {
		t.Fatalf("lanes4 stacks %d operands of %d lanes, want 2 of 4", ops, lanes)
	}
	shards, _, err := ShardForest(corpus["wide8"].c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range shards {
		corpus[fmt.Sprintf("wide8-shard%d", i)] = alignCase{f: forests["wide8"], c: sc}
	}
	return corpus
}

// classifyCase runs one pass of q through m, shuffled when m was prepared
// for it (under a seed fixed by the batch), and returns the result, the
// codebooks of a shuffled pass and the trace.
func classifyCase(t *testing.T, e *Engine, m *ModelOperands, q *Query) (he.Operand, []*ShuffledCodebook, *Trace) {
	t.Helper()
	out, cbs, trace, err := e.Classify(context.Background(), m, q, uint64(q.Batch))
	if err != nil {
		t.Fatal(err)
	}
	return out, cbs, trace
}

// checkVotes decodes a pass of batch and holds every query's votes — and,
// unshuffled, its per-tree labels — to the forest's trees [start, start+n).
func checkVotes(t *testing.T, b he.Backend, f *model.Forest, m *ModelOperands, out he.Operand, cbs []*ShuffledCodebook, batch [][]uint64, start int) {
	t.Helper()
	slots, err := he.Reveal(b, out)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	if cbs != nil {
		results, err = DecodeShuffledBatch(cbs, len(f.Labels), slots, m.Meta.BatchBlock())
	} else {
		results, err = DecodeResultBatch(&m.Meta, slots, len(batch))
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		want := f.Classify(batch[i])[start : start+m.Meta.NumTrees]
		votes := make([]int, len(f.Labels))
		for _, label := range want {
			votes[label]++
		}
		if !slices.Equal(res.Votes, votes) || cbs == nil && !slices.Equal(res.PerTree, want) {
			t.Fatalf("batch of %d, query %d: votes %v trees %v, forest says %v", len(batch), i, res.Votes, res.PerTree, want)
		}
	}
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
