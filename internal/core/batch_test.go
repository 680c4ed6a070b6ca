package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// TestBatchGeometry pins the derived slot-packing parameters: the
// Figure 1 model (QPad=8, BPad=8, LPad=8) packs Slots/16 queries.
func TestBatchGeometry(t *testing.T) {
	for _, tc := range []struct {
		slots              int
		wantBlock, wantCap int
	}{
		{16, 16, 1}, // 2·SPad == slots: one doubled block
		{64, 16, 4},
		{1024, 16, 64},
	} {
		c, err := Compile(model.Figure1(), Options{Slots: tc.slots})
		if err != nil {
			t.Fatalf("slots=%d: %v", tc.slots, err)
		}
		m := &c.Meta
		if m.SPad() != 8 {
			t.Errorf("slots=%d: SPad=%d, want 8", tc.slots, m.SPad())
		}
		if m.BatchBlock() != tc.wantBlock {
			t.Errorf("slots=%d: BatchBlock=%d, want %d", tc.slots, m.BatchBlock(), tc.wantBlock)
		}
		if m.BatchCapacity() != tc.wantCap {
			t.Errorf("slots=%d: BatchCapacity=%d, want %d", tc.slots, m.BatchCapacity(), tc.wantCap)
		}
	}
}

// randomFeatures draws a feature vector within the model's precision.
func randomFeatures(rng *rand.Rand, numFeatures, precision int) []uint64 {
	f := make([]uint64, numFeatures)
	for i := range f {
		f[i] = rng.Uint64N(1 << uint(precision))
	}
	return f
}

// runBatchVsSingle packs batch queries into one pass and checks every
// decoded entry against an independent single-query classification and
// against the plaintext forest walk.
func runBatchVsSingle(t *testing.T, b he.Backend, f *model.Forest, c *Compiled, batch [][]uint64, encryptModel, encryptQuery bool) {
	t.Helper()
	m, err := Prepare(b, c, encryptModel, encryptQuery, false)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	e := &Engine{Backend: b}

	q, err := PrepareQueryBatch(b, &m.Meta, batch, encryptQuery)
	if err != nil {
		t.Fatalf("PrepareQueryBatch(%d): %v", len(batch), err)
	}
	if q.Batch != len(batch) {
		t.Fatalf("query batch size %d, want %d", q.Batch, len(batch))
	}
	out, _, _, err := e.Classify(context.Background(), m, q, 0)
	if err != nil {
		t.Fatalf("batched Classify: %v", err)
	}
	slots, err := he.Reveal(b, out)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeResultBatch(&m.Meta, slots, len(batch))
	if err != nil {
		t.Fatalf("DecodeResultBatch: %v", err)
	}

	for k, feats := range batch {
		want := f.Classify(feats)
		single, err := PrepareQuery(b, &m.Meta, feats, encryptQuery)
		if err != nil {
			t.Fatal(err)
		}
		sout, _, _, err := e.Classify(context.Background(), m, single, 0)
		if err != nil {
			t.Fatalf("single Classify(%v): %v", feats, err)
		}
		sslots, err := he.Reveal(b, sout)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := DecodeResult(&m.Meta, sslots)
		if err != nil {
			t.Fatalf("single decode(%v): %v", feats, err)
		}
		for ti, lbl := range results[k].PerTree {
			if lbl != want[ti] {
				t.Errorf("batch[%d]=%v tree %d: batched label L%d, plaintext L%d", k, feats, ti, lbl, want[ti])
			}
			if lbl != sres.PerTree[ti] {
				t.Errorf("batch[%d]=%v tree %d: batched label L%d, single-query label L%d", k, feats, ti, lbl, sres.PerTree[ti])
			}
		}
		if results[k].Plurality() != sres.Plurality() {
			t.Errorf("batch[%d]=%v: plurality %d vs single %d", k, feats, results[k].Plurality(), sres.Plurality())
		}
	}
}

// TestBatchVsSingleEquivalenceClear is the batch-equivalence property
// test on the exact backend: for random forests and random query
// batches — including the B=1 and B=BatchCapacity edge cases — a
// slot-packed ClassifyBatch must equal B independent Classify runs.
func TestBatchVsSingleEquivalenceClear(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 4; trial++ {
		f, err := synth.Generate(synth.ForestSpec{
			NumFeatures:     2 + trial%3,
			NumLabels:       3,
			Precision:       4,
			MaxDepth:        3,
			BranchesPerTree: []int{4 + trial, 3 + trial%3},
			Seed:            uint64(100 + trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		b := heclear.New(256, 65537)
		c, err := Compile(f, Options{Slots: b.Slots()})
		if err != nil {
			t.Fatal(err)
		}
		capacity := c.Meta.BatchCapacity()
		if capacity < 2 {
			t.Fatalf("trial %d: batch capacity %d, test wants ≥ 2 (SPad=%d)", trial, capacity, c.Meta.SPad())
		}
		sizes := []int{1, 2, capacity}
		for _, encModel := range []bool{true, false} {
			for _, size := range sizes {
				batch := make([][]uint64, size)
				for i := range batch {
					batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
				}
				runBatchVsSingle(t, b, f, c, batch, encModel, true)
			}
		}
	}
}

// TestBatchVsSingleEquivalenceBGV runs the same property on real BGV
// ciphertexts: a full-capacity batch on the Figure 1 model, plus the
// B=1 edge case, in the encrypted-model offload scenario.
func TestBatchVsSingleEquivalenceBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV batch equivalence is slow")
	}
	f := model.Figure1()
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.RecommendedLevels), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(23, 5))
	capacity := c.Meta.BatchCapacity()
	if capacity != 64 {
		t.Fatalf("capacity %d, want 64", capacity)
	}
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
	}
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 4}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	out, _, _, err := e.Classify(context.Background(), m, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := he.Reveal(b, out)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeResultBatch(&m.Meta, slots, capacity)
	if err != nil {
		t.Fatal(err)
	}
	for k, feats := range batch {
		want := f.Classify(feats)
		if results[k].PerTree[0] != want[0] {
			t.Errorf("batch[%d]=%v: L%d, want L%d", k, feats, results[k].PerTree[0], want[0])
		}
	}
	// B=1 edge case on the same staged model.
	runBatchVsSingle(t, b, f, c, [][]uint64{{3, 9}}, true, true)
}

// TestBatchCapacityErrors pins the typed error: oversized batches and
// out-of-range decode indexes report the staged capacity.
func TestBatchCapacityErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	c, err := Compile(model.Figure1(), Options{Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	meta := &c.Meta
	capacity := meta.BatchCapacity() // 4

	over := make([][]uint64, capacity+1)
	for i := range over {
		over[i] = []uint64{1, 2}
	}
	_, err = PrepareQueryBatch(b, meta, over, true)
	var bce *BatchCapacityError
	if !errors.As(err, &bce) {
		t.Fatalf("oversized batch: got %v, want *BatchCapacityError", err)
	}
	if bce.Index != capacity+1 || bce.Capacity != capacity {
		t.Errorf("error %+v, want index=%d capacity=%d", bce, capacity+1, capacity)
	}

	slots := make([]uint64, b.Slots())
	if _, err := DecodeResultAt(meta, slots, capacity, capacity); !errors.As(err, &bce) {
		t.Errorf("DecodeResultAt(%d): got %v, want *BatchCapacityError", capacity, err)
	}
	if _, err := DecodeResultAt(meta, slots, -1, capacity); !errors.As(err, &bce) {
		t.Errorf("DecodeResultAt(-1): got %v, want *BatchCapacityError", err)
	}
	if _, err := DecodeResultBatch(meta, slots, capacity+3); !errors.As(err, &bce) {
		t.Errorf("DecodeResultBatch over capacity: got %v, want *BatchCapacityError", err)
	}
	// A lone query's layout holds one query: index 1 is a bit-plane block.
	lone := meta.QueryCapacity(meta.PlanesPerCiphertext(1))
	if _, err := DecodeResultAt(meta, slots, lone, lone); lone >= capacity || !errors.As(err, &bce) || bce.Capacity != lone {
		t.Errorf("DecodeResultAt(%d) under a %d-query layout of capacity %d: got %v, want *BatchCapacityError", lone, lone, capacity, err)
	}
	var empty *EmptyBatchError
	if _, err := PrepareQueryBatch(b, meta, nil, true); !errors.As(err, &empty) {
		t.Errorf("empty batch: got %v, want *EmptyBatchError", err)
	}
	if _, err := DecodeResultBatch(meta, slots, 0); err == nil {
		t.Error("zero-count decode accepted")
	}
}
