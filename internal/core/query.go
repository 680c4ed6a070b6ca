package core

import (
	"fmt"

	"copse/internal/bits"
	"copse/internal/he"
)

// Query is a prepared feature-vector batch: p MSB-first bit planes in
// the slot-blocked layout matching the model's padded threshold vector,
// PlanesPerCiphertext of them to an operand (Meta.PlanesPerCiphertext).
// Batch records how many independent feature vectors are packed (1 for
// PrepareQuery); query k occupies the span-aligned slot block
// [k·BatchBlock, (k+1)·BatchBlock) of every block group. NumFeatures, K,
// QPad and Block record the packing layout the query was prepared for,
// so the engine can reject a query prepared for a different model (zero
// values — hand-built queries — skip the check).
type Query struct {
	Bits  []he.Operand
	Batch int

	NumFeatures int
	K           int
	QPad        int
	Block       int
	// PlanesPerCiphertext is the plane packing g of Bits; zero (a
	// hand-built query) means one plane per operand.
	PlanesPerCiphertext int

	// Next chains an overflow continuation: a logical batch larger than
	// Meta.BatchCapacity is prepared as a linked list of capacity-sized
	// Query links, each packed from slot block 0 and classified in its
	// own pass. PrepareQueryBatch itself never chains (it keeps the
	// one-pass BatchCapacityError contract); the serving layer builds
	// and walks chains.
	Next *Query
}

// BatchCapacityError reports a batch index or size exceeding the staged
// batch capacity of a compiled model.
type BatchCapacityError struct {
	// Index is the offending batch index (or requested batch size).
	Index int
	// Capacity is the model's staged capacity (Meta.BatchCapacity).
	Capacity int
}

func (e *BatchCapacityError) Error() string {
	return fmt.Sprintf("core: batch index %d exceeds staged batch capacity %d", e.Index, e.Capacity)
}

// QueryPacking is the slot layout a query's features are packed in:
// NumFeatures features at multiplicity K within a QPad-periodic plane, one
// Block-wide slot block per query.
type QueryPacking struct {
	NumFeatures, K, QPad, Block int
}

// QueryLayoutError reports a query laid out for something other than the
// model it was handed to: features packed for another model's slot layout
// (a registry makes that an easy mistake, and the pass would misclassify
// silently), a plane packing the model stages no program for, an operand
// count that is not the packing's, or bit planes of the other kind than
// the ones the model's programs are levelled for (the program would run
// mis-levelled).
type QueryLayoutError struct {
	// Planes is the number of bit-plane operands the query carries.
	Planes int
	// PlanesPerCiphertext is the packing the query records.
	PlanesPerCiphertext int
	// Block is the query's block width.
	Block int
	// Want is the operand count the model stages for that packing; zero
	// when it admits no such packing.
	Want int
	// Packed and Model are the feature packing the query is stamped with
	// and the model's; they differ exactly when that is what is wrong.
	Packed, Model QueryPacking
	// Encrypted is whether the query's offending bit plane is a
	// ciphertext and WantEncrypted whether the model was prepared for
	// encrypted planes; they differ exactly when that is what is wrong.
	Encrypted, WantEncrypted bool
}

func (e *QueryLayoutError) Error() string {
	switch {
	case e.Packed != e.Model:
		return fmt.Sprintf("core: query packed for layout features=%d K=%d q̂=%d block=%d, model wants features=%d K=%d q̂=%d block=%d (query prepared for a different model?)",
			e.Packed.NumFeatures, e.Packed.K, e.Packed.QPad, e.Packed.Block,
			e.Model.NumFeatures, e.Model.K, e.Model.QPad, e.Model.Block)
	case e.Want == 0:
		return fmt.Sprintf("core: query packs %d bit planes per ciphertext (block %d), a layout the model stages no program for",
			e.PlanesPerCiphertext, e.Block)
	case e.Encrypted != e.WantEncrypted:
		kind := map[bool]string{true: "encrypted", false: "plaintext"}
		return fmt.Sprintf("core: query carries %s bit planes, model prepared for %s ones", kind[e.Encrypted], kind[e.WantEncrypted])
	}
	return fmt.Sprintf("core: query has %d bit-plane operands at %d planes per ciphertext (block %d), model wants %d",
		e.Planes, e.PlanesPerCiphertext, e.Block, e.Want)
}

// FeatureError reports a feature vector the model cannot take: the wrong
// number of features, or a value at or past 2^Precision. It is the
// client's fault, and is reported before anything is encrypted.
type FeatureError struct {
	// Query is the vector's index in its batch.
	Query int
	// Features is its feature count and Want the model's; they differ
	// exactly when the count is what is wrong.
	Features, Want int
	// Feature is the index of the first value out of range, Value that
	// value and Precision the model's bit width.
	Feature   int
	Value     uint64
	Precision int
}

func (e *FeatureError) Error() string {
	if e.Features != e.Want {
		return fmt.Sprintf("core: query %d has %d features, model wants %d", e.Query, e.Features, e.Want)
	}
	return fmt.Sprintf("core: query %d feature %d value %d exceeds %d-bit precision", e.Query, e.Feature, e.Value, e.Precision)
}

// CheckFeatures returns a *FeatureError for the first vector of batch
// the model cannot take, nil when it can take them all.
func (m *Meta) CheckFeatures(batch [][]uint64) error {
	limit := uint64(1) << uint(m.Precision)
	for k, features := range batch {
		if len(features) != m.NumFeatures {
			return &FeatureError{Query: k, Features: len(features), Want: m.NumFeatures}
		}
		for f, v := range features {
			if v >= limit {
				return &FeatureError{Query: k, Features: len(features), Want: m.NumFeatures, Feature: f, Value: v, Precision: m.Precision}
			}
		}
	}
	return nil
}

// PrepareQuery performs Diane's side of Step 0 (§3.3) for a single
// feature vector: it is PrepareQueryBatch of a one-element batch.
func PrepareQuery(b he.Backend, meta *Meta, features []uint64, encrypt bool) (*Query, error) {
	return PrepareQueryBatch(b, meta, [][]uint64{features}, encrypt)
}

// PrepareQueryBatch packs up to Meta.BatchCapacity independent feature
// vectors into one ciphertext set: each vector is replicated to the
// model's maximum multiplicity K (so the feature vector and the padded
// threshold vector are in one-to-one correspondence), bit-transposed,
// laid out QPad-periodically within its own BatchBlock-wide slot block,
// and the combined planes are encrypted once — one homomorphic pass then
// classifies the whole batch. The batch size alone fixes the plane
// packing (Meta.PlanesPerCiphertext): a batch that leaves block groups
// idle lays its bit planes into them, so a lone query of a model with
// capacity ≥ p is a single ciphertext. With encrypt=false the planes
// stay plaintext (the D=S configuration, where the evaluator owns the
// features). Unused blocks are zero, as are planes past the precision
// (they compare equal); the decode output of blocks that hold no query
// is garbage and DecodeResultBatch never reads them.
func PrepareQueryBatch(b he.Backend, meta *Meta, batch [][]uint64, encrypt bool) (*Query, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	if cap := meta.BatchCapacity(); len(batch) > cap {
		return nil, &BatchCapacityError{Index: len(batch), Capacity: cap}
	}
	if err := meta.CheckFeatures(batch); err != nil {
		return nil, err
	}
	block := meta.BatchBlock()
	g := meta.PlanesPerCiphertext(len(batch))
	planes := make([][]uint64, meta.QueryCiphertexts(g))
	for p := range planes {
		planes[p] = make([]uint64, b.Slots())
	}
	replicated := make([]uint64, meta.Q)
	for k, features := range batch {
		clear(replicated)
		for f, v := range features {
			for j := 0; j < meta.K; j++ {
				replicated[f*meta.K+j] = v
			}
		}
		qPlanes, err := bits.Transpose(replicated, meta.Precision)
		if err != nil {
			return nil, err
		}
		// QPad-periodic within the query's own block of the plane's
		// block group only.
		for j, plane := range qPlanes {
			ct, base := meta.planeAt(j, g)
			base += k * block
			for off := 0; off < block; off += meta.QPad {
				copy(planes[ct][base+off:base+off+len(plane)], plane)
			}
		}
	}
	q := &Query{
		Batch:               len(batch),
		NumFeatures:         meta.NumFeatures,
		K:                   meta.K,
		QPad:                meta.QPad,
		Block:               block,
		PlanesPerCiphertext: g,
	}
	// The planes are encrypted directly at the deeper of the two compare
	// entry levels (Diane does not learn whether the model is encrypted);
	// the engine drops them the last step on the shallower path.
	for _, plane := range planes {
		op, err := makeOperand(b, plane, encrypt, meta.LevelPlan.QueryLevel())
		if err != nil {
			return nil, err
		}
		q.Bits = append(q.Bits, op)
	}
	return q, nil
}

// Result is a decoded classification: the raw leaf bitvector plus its
// interpretations.
type Result struct {
	// LeafBits is the N-hot bitvector over leaf slots (§4.1.2).
	LeafBits []uint64
	// Votes counts, per label index, how many set leaf slots map to it
	// through the codebook — what Diane can compute (§7.2.2).
	Votes []int
	// PerTree gives each tree's chosen label index; deriving it needs
	// the tree boundaries, which only the model owner knows.
	PerTree []int
}

// DecodeResult interprets the decrypted label-mask slots of a
// single-query classification (batch index 0).
func DecodeResult(meta *Meta, slots []uint64) (*Result, error) {
	return DecodeResultAt(meta, slots, 0, 1)
}

// DecodeResultAt interprets the decrypted label-mask slots of batch
// entry k, reading the k-th BatchBlock-wide slot block. capacity is the
// query capacity of the layout the pass ran under (Meta.QueryCapacity of
// the query's packing): the blocks past it carried bit planes, not
// queries, so an index there is a *BatchCapacityError, not a label.
func DecodeResultAt(meta *Meta, slots []uint64, k, capacity int) (*Result, error) {
	if capacity = min(capacity, meta.BatchCapacity()); k < 0 || k >= capacity {
		return nil, &BatchCapacityError{Index: k, Capacity: capacity}
	}
	off := k * meta.BatchBlock()
	if len(slots) < off+meta.NumLeaves {
		return nil, fmt.Errorf("core: result has %d slots, batch entry %d needs %d", len(slots), k, off+meta.NumLeaves)
	}
	window := slots[off : off+meta.NumLeaves]
	r := &Result{
		LeafBits: append([]uint64(nil), window...),
		Votes:    make([]int, len(meta.LabelNames)),
	}
	for i, bit := range r.LeafBits {
		if bit > 1 {
			return nil, fmt.Errorf("core: batch entry %d leaf slot %d holds %d, not a bit", k, i, bit)
		}
		if bit == 1 {
			r.Votes[meta.Codebook[i]]++
		}
	}
	for t := 0; t < meta.NumTrees; t++ {
		lo, hi := meta.TreeLeafOffsets[t], meta.TreeLeafOffsets[t+1]
		chosen := -1
		for i := lo; i < hi; i++ {
			if r.LeafBits[i] == 1 {
				if chosen >= 0 {
					return nil, fmt.Errorf("core: batch entry %d tree %d selected more than one leaf", k, t)
				}
				chosen = meta.Codebook[i]
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("core: batch entry %d tree %d selected no leaf", k, t)
		}
		r.PerTree = append(r.PerTree, chosen)
	}
	return r, nil
}

// DecodeResultBatch decodes the first count batch entries of the
// decrypted label-mask slots. It returns a *BatchCapacityError when
// count exceeds capacity, the query capacity of the pass's layout (see
// DecodeResultAt).
func DecodeResultBatch(meta *Meta, slots []uint64, count, capacity int) ([]*Result, error) {
	if count <= 0 {
		return nil, fmt.Errorf("core: batch decode of %d results", count)
	}
	if capacity = min(capacity, meta.BatchCapacity()); count > capacity {
		return nil, &BatchCapacityError{Index: count, Capacity: capacity}
	}
	out := make([]*Result, count)
	for k := range out {
		r, err := DecodeResultAt(meta, slots, k, capacity)
		if err != nil {
			return nil, err
		}
		out[k] = r
	}
	return out, nil
}

// Plurality returns the label index with the most votes (ties break low).
func (r *Result) Plurality() int {
	best := 0
	for i, v := range r.Votes {
		if v > r.Votes[best] {
			best = i
		}
	}
	return best
}
