package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// shardTestForest builds a forest with enough trees to split.
func shardTestForest(t *testing.T, seed uint64) *model.Forest {
	t.Helper()
	f, err := synth.Generate(synth.ForestSpec{
		NumFeatures:     3,
		NumLabels:       3,
		Precision:       4,
		MaxDepth:        3,
		BranchesPerTree: []int{5, 3, 6, 3, 4},
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// mergeShardResults adds the per-shard result operands slot-wise — the
// gateway's merge.
func mergeShardResults(t *testing.T, b he.Backend, outs []he.Operand) he.Operand {
	t.Helper()
	merged := outs[0]
	for _, o := range outs[1:] {
		var err error
		merged, err = he.Add(b, merged, o)
		if err != nil {
			t.Fatalf("merging shard results: %v", err)
		}
	}
	return merged
}

// TestShardForestLayout pins the structural invariants of a tree-wise
// split: ranges partition the forest, every shard keeps the parent's
// slot geometry, and branch/leaf totals are preserved.
func TestShardForestLayout(t *testing.T) {
	f := shardTestForest(t, 41)
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 5} {
		shards, manifest, err := ShardForest(c, k)
		if err != nil {
			t.Fatalf("ShardForest(%d): %v", k, err)
		}
		if len(shards) != k || manifest.Shards != k {
			t.Fatalf("ShardForest(%d): got %d shards, manifest %d", k, len(shards), manifest.Shards)
		}
		trees, branches, leaves := 0, 0, 0
		for i, s := range shards {
			info := s.Shard
			if info == nil || info.Index != i || info.Count != k {
				t.Fatalf("k=%d shard %d: bad ShardInfo %+v", k, i, info)
			}
			if i == 0 && info.TreeStart != 0 {
				t.Errorf("k=%d: first shard starts at tree %d", k, info.TreeStart)
			}
			if i > 0 && info.TreeStart != shards[i-1].Shard.TreeEnd {
				t.Errorf("k=%d shard %d: tree gap %d..%d", k, i, shards[i-1].Shard.TreeEnd, info.TreeStart)
			}
			trees += info.TreeEnd - info.TreeStart
			branches += info.BranchEnd - info.BranchStart
			leaves += info.LeafEnd - info.LeafStart
			m := &s.Meta
			if m.SPad() != c.Meta.SPad() || m.BatchBlock() != c.Meta.BatchBlock() || m.BatchCapacity() != c.Meta.BatchCapacity() {
				t.Errorf("k=%d shard %d: layout (SPad=%d block=%d) diverged from parent (SPad=%d block=%d)",
					k, i, m.SPad(), m.BatchBlock(), c.Meta.SPad(), c.Meta.BatchBlock())
			}
			if m.QPad != c.Meta.QPad || m.K != c.Meta.K || m.NumFeatures != c.Meta.NumFeatures || m.NumLeaves != c.Meta.NumLeaves {
				t.Errorf("k=%d shard %d: query-facing meta diverged", k, i)
			}
			if m.B != info.BranchEnd-info.BranchStart || m.NumTrees != info.TreeEnd-info.TreeStart {
				t.Errorf("k=%d shard %d: B=%d trees=%d inconsistent with range %+v", k, i, m.B, m.NumTrees, info)
			}
			if m.D > c.Meta.D {
				t.Errorf("k=%d shard %d: depth %d exceeds parent %d", k, i, m.D, c.Meta.D)
			}
			if m.TreeLeafOffsets[0] != info.LeafStart || m.TreeLeafOffsets[len(m.TreeLeafOffsets)-1] != info.LeafEnd {
				t.Errorf("k=%d shard %d: TreeLeafOffsets %v not the global range %+v", k, i, m.TreeLeafOffsets, info)
			}
		}
		if trees != c.Meta.NumTrees || branches != c.Meta.B || leaves != c.Meta.NumLeaves {
			t.Errorf("k=%d: ranges cover %d trees %d branches %d leaves, want %d/%d/%d",
				k, trees, branches, leaves, c.Meta.NumTrees, c.Meta.B, c.Meta.NumLeaves)
		}
	}
}

// TestShardMergeEquivalenceClear is the tentpole correctness property on
// the exact backend: for random forests, shard counts and batch sizes,
// evaluating every shard on the same encrypted query batch and adding
// the result ciphertexts is bit-identical (leaf bits, votes, per-tree
// labels) to the single-node pipeline.
func TestShardMergeEquivalenceClear(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 3))
	for trial := 0; trial < 3; trial++ {
		f := shardTestForest(t, uint64(50+trial))
		b := heclear.New(512, 65537)
		c, err := Compile(f, Options{Slots: b.Slots()})
		if err != nil {
			t.Fatal(err)
		}
		single, err := Prepare(b, c, false, true, false)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Backend: b}
		for _, k := range []int{2, 3, 5} {
			shards, _, err := ShardForest(c, k)
			if err != nil {
				t.Fatalf("trial %d ShardForest(%d): %v", trial, k, err)
			}
			for _, batchSize := range []int{1, min(3, c.Meta.BatchCapacity())} {
				batch := make([][]uint64, batchSize)
				for i := range batch {
					batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
				}
				// Single-node reference pass.
				q, err := PrepareQueryBatch(b, &c.Meta, batch, true)
				if err != nil {
					t.Fatal(err)
				}
				refOut, _, _, err := e.Classify(context.Background(), single, q, 0)
				if err != nil {
					t.Fatalf("single-node Classify: %v", err)
				}
				refSlots, err := he.Reveal(b, refOut)
				if err != nil {
					t.Fatal(err)
				}
				refResults, err := DecodeResultBatch(&c.Meta, refSlots, batchSize)
				if err != nil {
					t.Fatal(err)
				}

				// Shard passes over the same encrypted queries, merged
				// with plain adds.
				outs := make([]he.Operand, len(shards))
				for i, sc := range shards {
					ops, err := Prepare(b, sc, false, true, false)
					if err != nil {
						t.Fatalf("preparing shard %d: %v", i, err)
					}
					var trace *Trace
					outs[i], _, trace, err = e.Classify(context.Background(), ops, q, 0)
					if err != nil {
						t.Fatalf("shard %d Classify: %v", i, err)
					}
					if trace.Executor != "program" {
						t.Errorf("shard %d ran executor %q, want program", i, trace.Executor)
					}
				}
				merged := mergeShardResults(t, b, outs)
				mergedSlots, err := he.Reveal(b, merged)
				if err != nil {
					t.Fatal(err)
				}
				// Bit-identity inside every query's result window.
				for qi := 0; qi < batchSize; qi++ {
					off := qi * c.Meta.BatchBlock()
					if !reflect.DeepEqual(mergedSlots[off:off+c.Meta.NumLeaves], refSlots[off:off+c.Meta.NumLeaves]) {
						t.Errorf("trial %d k=%d batch=%d query %d: merged leaf bits differ from single-node", trial, k, batchSize, qi)
					}
				}
				mergedResults, err := DecodeResultBatch(&c.Meta, mergedSlots, batchSize)
				if err != nil {
					t.Fatalf("decoding merged result: %v", err)
				}
				for qi := range batch {
					if !reflect.DeepEqual(mergedResults[qi], refResults[qi]) {
						t.Errorf("trial %d k=%d query %d: merged result %+v != single-node %+v", trial, k, qi, mergedResults[qi], refResults[qi])
					}
					want := f.Classify(batch[qi])
					for ti, lbl := range mergedResults[qi].PerTree {
						if lbl != want[ti] {
							t.Errorf("trial %d k=%d query %d tree %d: merged L%d, plaintext L%d", trial, k, qi, ti, lbl, want[ti])
						}
					}
				}

				// Each shard's result also decodes standalone against its
				// own meta, yielding exactly its trees' labels.
				for i, sc := range shards {
					slots, err := he.Reveal(b, outs[i])
					if err != nil {
						t.Fatal(err)
					}
					for qi := range batch {
						res, err := DecodeResultAt(&sc.Meta, slots, qi, sc.Meta.QueryCapacity(q.PlanesPerCiphertext))
						if err != nil {
							t.Fatalf("trial %d k=%d shard %d query %d standalone decode: %v", trial, k, i, qi, err)
						}
						want := f.Classify(batch[qi])
						info := sc.Shard
						for ti, lbl := range res.PerTree {
							if lbl != want[info.TreeStart+ti] {
								t.Errorf("trial %d k=%d shard %d query %d tree %d: standalone L%d, plaintext L%d",
									trial, k, i, qi, ti, lbl, want[info.TreeStart+ti])
							}
						}
					}
				}
			}
		}
	}
}

// TestShardMergeEquivalenceBGV runs the merge property on real BGV
// ciphertexts: one key set (the manifest's union step budget) serves
// both shards, and the added result ciphertexts decrypt to the
// single-node bits.
func TestShardMergeEquivalenceBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV shard equivalence is slow")
	}
	f := shardTestForest(t, 77)
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, manifest, err := ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(manifest.Meta.ChainLevels(false)), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(31, 8))
	batch := make([][]uint64, min(3, c.Meta.BatchCapacity()))
	for i := range batch {
		batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
	}
	q, err := PrepareQueryBatch(b, &c.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 4}
	outs := make([]he.Operand, len(shards))
	for i, sc := range shards {
		ops, err := Prepare(b, sc, false, true, false)
		if err != nil {
			t.Fatalf("preparing shard %d: %v", i, err)
		}
		var trace *Trace
		outs[i], _, trace, err = e.Classify(context.Background(), ops, q, 0)
		if err != nil {
			t.Fatalf("shard %d Classify: %v", i, err)
		}
		if trace.Executor != "program" {
			t.Errorf("shard %d ran executor %q, want program", i, trace.Executor)
		}
	}
	merged := mergeShardResults(t, b, outs)
	slots, err := he.Reveal(b, merged)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeResultBatch(&c.Meta, slots, len(batch))
	if err != nil {
		t.Fatalf("decoding merged BGV result: %v", err)
	}
	for qi, feats := range batch {
		want := f.Classify(feats)
		for ti, lbl := range results[qi].PerTree {
			if lbl != want[ti] {
				t.Errorf("query %d tree %d: merged L%d, plaintext L%d", qi, ti, lbl, want[ti])
			}
		}
	}
}

// TestShardManifestRoundTrip pins the manifest file format.
func TestShardManifestRoundTrip(t *testing.T) {
	f := shardTestForest(t, 63)
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	_, manifest, err := ShardForest(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := manifest.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, manifest) {
		t.Errorf("manifest round trip:\n got %+v\nwant %+v", got, manifest)
	}
	// A manifest written when it carried the chain and the query level
	// beside Meta, a version number and the shard ranges loads to the
	// same manifest: the chain the worker stages comes from Meta's plan,
	// and each shard's range from its own artifact, whatever those fields
	// say.
	var legacy map[string]any
	if err := json.Unmarshal(buf.Bytes(), &legacy); err != nil {
		t.Fatal(err)
	}
	chain := c.Meta.ChainLevels(false)
	legacy["chain_levels"], legacy["query_level"] = chain, c.Meta.LevelPlan.QueryLevel()
	legacy["version"], legacy["ranges"] = 1, []ShardInfo{{Index: 0, Count: 3}, {Index: 1, Count: 3}, {Index: 2, Count: 3}}
	old, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = ReadManifest(bytes.NewReader(old)); err != nil || !reflect.DeepEqual(got, manifest) {
		t.Errorf("manifest with chain_levels and query_level: %v\n got %+v\nwant %+v", err, got, manifest)
	} else if got.Meta.ChainLevels(false) != chain {
		t.Errorf("manifest with chain_levels %d stages a chain of %d", chain, got.Meta.ChainLevels(false))
	}
	if _, err := ReadManifest(bytes.NewReader([]byte(`{"magic":"nope"}`))); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestManifestWithoutPlanRefused: a manifest whose Meta has no level plan
// — the key contract every worker derives its chain from — is refused by
// ReadManifest with the *UnsupportedModelError of Meta.Validate, before a
// worker stages anything from it.
func TestManifestWithoutPlanRefused(t *testing.T) {
	c, err := Compile(shardTestForest(t, 63), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	_, manifest, err := ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	manifest.Meta.LevelPlan = nil
	var buf bytes.Buffer
	if err := manifest.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = ReadManifest(&buf)
	var unsupported *UnsupportedModelError
	if !errors.As(err, &unsupported) {
		t.Fatalf("ReadManifest of a manifest without a plan: %v, want *UnsupportedModelError", err)
	}
}

// TestShardArtifactRoundTrip checks that shard artifacts (v4: ForcedSPad
// + ShardInfo) survive serialization.
func TestShardArtifactRoundTrip(t *testing.T) {
	f := shardTestForest(t, 29)
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, _, err := ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, shards[1]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, shards[1]) {
		t.Error("shard artifact round trip lost data")
	}
	if got.Meta.ForcedSPad != c.Meta.SPad() {
		t.Errorf("ForcedSPad %d, want %d", got.Meta.ForcedSPad, c.Meta.SPad())
	}
	if got.Shard == nil || got.Shard.Index != 1 {
		t.Errorf("ShardInfo lost: %+v", got.Shard)
	}
}

// TestShardForestErrors pins the argument validation.
func TestShardForestErrors(t *testing.T) {
	f := shardTestForest(t, 11)
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ShardForest(c, 0); err == nil {
		t.Error("shards=0 accepted")
	}
	if _, _, err := ShardForest(c, c.Meta.NumTrees+1); err == nil {
		t.Error("more shards than trees accepted")
	}
	shards, _, err := ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ShardForest(shards[0], 1); err == nil {
		t.Error("re-sharding a shard accepted")
	}
}
