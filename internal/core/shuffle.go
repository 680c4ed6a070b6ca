package core

import (
	"fmt"
	"math/rand/v2"

	"copse/internal/bits"
	"copse/internal/he"
	"copse/internal/matrix"
)

// Result shuffling (paper §7.2.2). Returning the raw leaf bitvector
// reveals the order of the labels in the forest's trees; the paper
// proposes — but does not implement — having the server apply a random
// permutation to the result vector (a plaintext-matrix × ciphertext-
// vector product) and permute the codebook identically, optionally
// padding both with random extra labels so leaf-per-label counts are
// hidden too. This file implements that extension, in two shapes: the
// single-query ShuffleResult, and ShuffleResultBatch, which permutes
// every packed query of a slot-packed batch in one block-diagonal
// kernel pass (DESIGN.md §10).

// ShuffledCodebook is the public decoding table for a shuffled result.
type ShuffledCodebook struct {
	// Slots maps each result slot to a label index. Real leaves and
	// padding slots are indistinguishable to the data owner.
	Slots []int
	// NumTrees lets the data owner sanity-check the vote count.
	NumTrees int
}

// shuffleRNG returns the deterministic permutation stream for one batch
// block under a base seed. Block 0's stream is exactly the single-query
// ShuffleResult stream, so batch entry 0 of ShuffleResultBatch
// reproduces the single-query shuffle bit for bit; later blocks get
// independent streams (distinct PCG sequence constants), so no
// cross-query linkage exists between the per-block permutations.
func shuffleRNG(seed uint64, block int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5f17+uint64(block)*0x9e3779b97f4a7c15))
}

// blockPermutation draws one block's permutation and matching codebook
// from rng: a permutation of padTo slots, padding slots filled with
// random labels, real leaves mapped through the model codebook. Both
// shuffle paths share this, which pins their streams together.
func blockPermutation(rng *rand.Rand, meta *Meta, padTo int) ([]int, *ShuffledCodebook) {
	perm := rng.Perm(padTo)
	cb := &ShuffledCodebook{Slots: make([]int, padTo), NumTrees: meta.NumTrees}
	for i := range cb.Slots {
		cb.Slots[i] = rng.IntN(len(meta.LabelNames)) // padding: random labels
	}
	for j := 0; j < meta.NumLeaves; j++ {
		cb.Slots[perm[j]] = meta.Codebook[j]
	}
	return perm, cb
}

// shuffleEntryDrop lowers a classification result to the shuffle's
// scheduled entry level (DESIGN.md §8): results arriving above it
// (reactive pipelines) are dropped first, so the permutation's rotations
// and multiplies touch a fraction of the chain. A result below the entry
// level cannot be raised — reserving that headroom is a staging decision
// (Options.PlanShuffle). Returns the dropped operand and the level the
// permutation diagonals should be staged at (-1 without a plan).
func shuffleEntryDrop(b he.Backend, meta *Meta, result he.Operand) (he.Operand, int, error) {
	level := -1
	if meta.LevelPlan == nil || !result.IsCipher() {
		return result, level, nil
	}
	level = meta.LevelPlan.ShuffleLevel()
	if ld, ok := b.(he.LevelDropper); ok {
		cur, err := ld.CiphertextLevel(result.Ct)
		if err == nil && cur < level {
			return he.Operand{}, 0, fmt.Errorf(
				"core: result at level %d is below the shuffle's scheduled entry level %d; recompile with Options.PlanShuffle to reserve the headroom",
				cur, level)
		}
	}
	result, err := he.DropToLevel(b, result, level)
	if err != nil {
		return he.Operand{}, 0, err
	}
	return result, level, nil
}

// ShuffleResult permutes the leaf slots of an inference result and
// returns the permuted operand along with the matching codebook. padTo
// (≥ NumLeaves, ≤ slots) adds indistinguishable padding slots carrying
// random labels; 0 means NumLeaves (no padding). The permutation is
// drawn fresh from seed for each call; servers should use a different
// seed per query. This is the single-query path: it shuffles batch
// entry 0 and discards the other blocks; ShuffleResultBatch shuffles
// every packed query in one pass.
func ShuffleResult(b he.Backend, meta *Meta, result he.Operand, padTo int, seed uint64) (he.Operand, *ShuffledCodebook, error) {
	n := meta.NumLeaves
	if padTo == 0 {
		padTo = n
	}
	if padTo < n || padTo > b.Slots() {
		return he.Operand{}, nil, fmt.Errorf("core: shuffle padding %d out of range [%d, %d]", padTo, n, b.Slots())
	}
	perm, cb := blockPermutation(shuffleRNG(seed, 0), meta, padTo)

	result, level, err := shuffleEntryDrop(b, meta, result)
	if err != nil {
		return he.Operand{}, nil, err
	}

	// Permutation matrix P: slot j of the result lands in slot perm[j].
	// The BSGS layout keeps the rotation count at ~2·√nPad; its baby and
	// giant steps are a subset of the staged rotation-step set whether
	// the model was compiled with BSGS or not.
	nPad := bits.NextPow2(n)
	p := matrix.NewBool(padTo, nPad)
	for j := 0; j < n; j++ {
		p.Set(perm[j], j, 1)
	}
	baby, giant := matrix.BSGSSplit(nPad)
	diag, err := matrix.PrepareDiagonalsBSGSSpanAt(b, p, nPad, baby, giant, b.Slots(), false, level)
	if err != nil {
		return he.Operand{}, nil, err
	}
	// ShuffleResult permutes one classification: under the slot-packed
	// batch layout (capacity > 1) the blocks beyond entry 0 carry other
	// queries' results, idle-block residue or the residue of the level
	// stage's lane groups, and a block of several level lanes the residue
	// of its lanes past the first, which a whole-ciphertext replicate would
	// fold into the sum — so select entry 0's leaf slots first. With one
	// block of one lane the result is already zero outside [0, NumLeaves)
	// and the plaintext multiply (and its BGV noise) is skipped.
	if sh := shuffleShapeOf(meta); sh.selector {
		if result, err = selectLeafSlots(b, meta, result, 1); err != nil {
			return he.Operand{}, nil, err
		}
	}
	replicated, err := matrix.Replicate(b, result, nPad)
	if err != nil {
		return he.Operand{}, nil, err
	}
	// The permutation is server-local plaintext: zero diagonals can be
	// skipped without leaking anything about the model.
	shuffled, err := matrix.MatVecBSGS(b, diag, replicated, true, 1)
	if err != nil {
		return he.Operand{}, nil, err
	}
	return shuffled, cb, nil
}

// ShuffleResultBatch permutes every packed query of a batched inference
// result in one homomorphic pass: each BatchBlock-wide slot block gets
// its own independently seeded permutation, staged together as a
// block-diagonal matrix through the span-blocked BSGS kernel, so one
// set of ≤ 2·√P+1 rotations shuffles all BatchCapacity blocks at once —
// the per-query shuffle cost drops by the batch factor. batch is the
// number of packed queries (Query.Batch); codebooks are returned for
// exactly those blocks, in packing order, with no cross-query linkage
// between their permutations. Idle blocks beyond the batch are permuted
// too (their residue stays hidden the same way), but their codebooks
// are discarded; when the level stage leaves residue (below) they are
// zeroed first. padTo (0 means NumLeaves) may add padding slots up to
// Meta.SPad per block — the widest permutation one block can absorb
// without its diagonal reads crossing into the neighbouring query —
// or up to the full slot count when the layout is single-block. workers
// parallelizes the kernel's giant-step groups (1 = sequential).
//
// The result operand must come from the classification pipeline (each
// block zero outside its leaf slots and, with several level lanes, the
// lanes past its first; with several lane groups, 0/1 residue in blocks
// past the batch); under a level schedule it is dropped to the
// shuffle's scheduled entry level first, exactly like ShuffleResult.
func ShuffleResultBatch(b he.Backend, meta *Meta, result he.Operand, batch, padTo int, seed uint64, workers int) (he.Operand, []*ShuffledCodebook, error) {
	n := meta.NumLeaves
	if padTo == 0 {
		padTo = n
	}
	capacity := meta.BatchCapacity()
	if batch < 1 || batch > capacity {
		return he.Operand{}, nil, &BatchCapacityError{Index: batch, Capacity: capacity}
	}
	span := meta.BatchBlock()
	maxPad := meta.SPad()
	if span == b.Slots() {
		maxPad = b.Slots() // single block: the rotation wrap covers wide paddings
	}
	if padTo < n || padTo > maxPad {
		return he.Operand{}, nil, fmt.Errorf("core: batched shuffle padding %d out of range [%d, %d]", padTo, n, maxPad)
	}

	result, level, err := shuffleEntryDrop(b, meta, result)
	if err != nil {
		return he.Operand{}, nil, err
	}

	// One permutation matrix per block, every block independently seeded.
	nPad := bits.NextPow2(n)
	mats := make([]*matrix.Bool, capacity)
	cbs := make([]*ShuffledCodebook, batch)
	for k := 0; k < capacity; k++ {
		perm, cb := blockPermutation(shuffleRNG(seed, k), meta, padTo)
		p := matrix.NewBool(padTo, nPad)
		for j := 0; j < n; j++ {
			p.Set(perm[j], j, 1)
		}
		mats[k] = p
		if k < batch {
			cbs[k] = cb
		}
	}
	baby, giant := matrix.BSGSSplit(nPad)
	diag, err := matrix.PrepareDiagonalsBSGSBlocksAt(b, mats, nil, nPad, baby, giant, span, false, level)
	if err != nil {
		return he.Operand{}, nil, err
	}
	// A block of one level lane is zero outside its leaf slots, so the
	// block-local replication needs no selector; one of several carries
	// the 0/1 residue of the accumulate rounds in its lanes past the first
	// (DESIGN.md §13.5) and takes the per-block form of ShuffleResult's,
	// over the batch's own blocks. So does a batch small enough to have run
	// over lane groups: the groups past the first leave their residue —
	// partial products of the batch's level results — in blocks past the
	// batch, which the selector zeroes with the lanes. A batch too large for
	// the groups ran the ungrouped program and pays no selector for them.
	// Every query's payload is then made nPad-periodic within its own block
	// (log2(span/nPad) rotations for the whole batch), blocks never mix,
	// and the block-diagonal kernel applies each block's own permutation.
	// The permutations are server-local plaintext, so zero diagonals are
	// skippable.
	if lanes, groups, _ := meta.LevelLayout(meta.PlanesPerCiphertext(batch)); lanes*groups > 1 {
		if result, err = selectLeafSlots(b, meta, result, batch); err != nil {
			return he.Operand{}, nil, err
		}
	}
	replicated, err := matrix.ReplicateWithin(b, result, nPad, span)
	if err != nil {
		return he.Operand{}, nil, err
	}
	shuffled, err := matrix.MatVecBSGS(b, diag, replicated, true, workers)
	if err != nil {
		return he.Operand{}, nil, err
	}
	return shuffled, cbs, nil
}

// selectLeafSlots multiplies result by the selector of the leaf slots of
// its first blocks — public shape information the server already holds
// (it prepares the permutation from the same meta).
func selectLeafSlots(b he.Backend, meta *Meta, result he.Operand, blocks int) (he.Operand, error) {
	sel := make([]uint64, b.Slots())
	for k := 0; k < blocks; k++ {
		for i := 0; i < meta.NumLeaves; i++ {
			sel[k*meta.BatchBlock()+i] = 1
		}
	}
	selOp, err := he.NewPlain(b, sel)
	if err != nil {
		return he.Operand{}, err
	}
	return he.Mul(b, result, selOp)
}

// DecodeShuffled tallies votes from a shuffled result. Per-tree labels
// are unrecoverable by design (the tree boundaries are hidden); only the
// label vote counts — what the data owner legitimately learns — remain.
func DecodeShuffled(cb *ShuffledCodebook, numLabels int, slots []uint64) (*Result, error) {
	if len(slots) < len(cb.Slots) {
		return nil, fmt.Errorf("core: result has %d slots, codebook has %d", len(slots), len(cb.Slots))
	}
	r := &Result{Votes: make([]int, numLabels)}
	total := 0
	for i, label := range cb.Slots {
		bit := slots[i]
		if bit > 1 {
			return nil, fmt.Errorf("core: slot %d holds %d, not a bit", i, bit)
		}
		if bit == 1 {
			if label < 0 || label >= numLabels {
				return nil, fmt.Errorf("core: codebook slot %d label %d out of range", i, label)
			}
			r.Votes[label]++
			total++
		}
	}
	if total != cb.NumTrees {
		return nil, fmt.Errorf("core: %d leaves selected, want one per tree (%d)", total, cb.NumTrees)
	}
	return r, nil
}

// DecodeShuffledBatch tallies votes for every packed query of a batched
// shuffled result: entry k decodes the window starting at slot k·block
// (block is Meta.BatchBlock) through its own codebook, in the order the
// batch was packed and the codebooks were returned.
func DecodeShuffledBatch(cbs []*ShuffledCodebook, numLabels int, slots []uint64, block int) ([]*Result, error) {
	if len(cbs) == 0 {
		return nil, fmt.Errorf("core: batch decode with no codebooks")
	}
	if block <= 0 {
		return nil, fmt.Errorf("core: batch decode with block width %d", block)
	}
	out := make([]*Result, len(cbs))
	for k, cb := range cbs {
		off := k * block
		if cb == nil {
			return nil, fmt.Errorf("core: batch entry %d has no codebook", k)
		}
		if len(slots) < off+len(cb.Slots) {
			return nil, fmt.Errorf("core: result has %d slots, batch entry %d needs %d", len(slots), k, off+len(cb.Slots))
		}
		r, err := DecodeShuffled(cb, numLabels, slots[off:])
		if err != nil {
			return nil, fmt.Errorf("core: batch entry %d: %w", k, err)
		}
		out[k] = r
	}
	return out, nil
}
