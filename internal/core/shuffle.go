package core

import (
	"fmt"
	"math/rand/v2"

	"copse/internal/he"
	"copse/internal/matrix"
)

// Result shuffling (paper §7.2.2). Returning the raw leaf bitvector
// reveals the order of the labels in the forest's trees; the paper
// proposes — but does not implement — having the server apply a random
// permutation to the result vector (a plaintext-matrix × ciphertext-
// vector product) and permute the codebook identically. Here it is the
// op program's fifth stage (program.go), built when the model is prepared
// for a shuffling service; this file draws what varies per pass — one
// independently seeded permutation per batch block and the selector of
// the batch's leaf slots — and stages it for the pass to bind, like the
// query planes (DESIGN.md §10).

// ShuffledCodebook is the public decoding table for a shuffled result.
type ShuffledCodebook struct {
	// Slots maps each leaf slot of the query's shuffled block to a label
	// index.
	Slots []int
	// NumTrees lets the data owner sanity-check the vote count.
	NumTrees int
}

// shuffleRNG returns the deterministic permutation stream for one batch
// block under a base seed. Blocks get independent streams (distinct PCG
// sequence constants), so no cross-query linkage exists between the
// per-block permutations.
func shuffleRNG(seed uint64, block int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x5f17+uint64(block)*0x9e3779b97f4a7c15))
}

// blockPermutation draws one block's permutation of the leaf slots from
// rng and the codebook it leaves: leaf j lands in slot perm[j].
func blockPermutation(rng *rand.Rand, meta *Meta) ([]int, *ShuffledCodebook) {
	perm := rng.Perm(meta.NumLeaves)
	cb := &ShuffledCodebook{Slots: make([]int, meta.NumLeaves), NumTrees: meta.NumTrees}
	for j, to := range perm {
		cb.Slots[to] = meta.Codebook[j]
	}
	return perm, cb
}

// passShuffle is what one pass's shuffle stage binds: the block-diagonal
// permutation matrix, staged like the model's matrices over the LPad
// period at the stage's entry level, and the selector of the leaf slots of
// the batch's queries (read only where level lanes or lane groups leave
// residue to clear).
type passShuffle struct {
	perm *matrix.Diagonals
	sel  he.Operand
}

// stageShuffle draws a pass's permutations from seed — one per block, the
// blocks past the batch permuted too, their codebooks discarded — and
// stages them with the selector, returning the codebooks of the batch's
// queries in packing order.
func stageShuffle(b he.Backend, m *ModelOperands, batch int, seed uint64) (*passShuffle, []*ShuffledCodebook, error) {
	meta := &m.Meta
	n, block := meta.NumLeaves, meta.BatchBlock()
	mats := make([]*matrix.Bool, meta.BatchCapacity())
	cbs := make([]*ShuffledCodebook, 0, batch)
	sel := make([]uint64, b.Slots())
	for k := range mats {
		perm, cb := blockPermutation(shuffleRNG(seed, k), meta)
		mats[k] = matrix.NewBool(n, meta.LPad())
		for j, to := range perm {
			mats[k].Set(to, j, 1)
		}
		if k < batch {
			cbs = append(cbs, cb)
			for i := range n {
				sel[k*block+i] = 1
			}
		}
	}
	baby, giant := matrix.BSGSSplit(meta.LPad())
	perm, err := matrix.PrepareDiagonalsBSGSBlocksAt(b, mats, nil, meta.LPad(), baby, giant, block, false, m.Plan.Shuffle)
	if err != nil {
		return nil, nil, err
	}
	selOp, err := he.NewPlainAtLevel(b, sel, m.Plan.Shuffle)
	if err != nil {
		return nil, nil, err
	}
	return &passShuffle{perm, selOp}, cbs, nil
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
