// Package core implements the paper's primary contribution: the COPSE
// staging compiler (§5), which restructures a decision forest into the
// vectorizable primitives of §4.2 (padded threshold vector, reshuffling
// matrix, level matrices, level masks), and the vectorized evaluation
// engine running Algorithm 1 over any he.Backend.
package core

import (
	"fmt"

	"copse/internal/matrix"
)

// Meta carries the public and structural parameters of a compiled model.
// Which fields are revealed to which party depends on the scenario; see
// leakage.go (paper §7.1).
type Meta struct {
	NumFeatures int
	Precision   int // p: fixed-point bits
	NumTrees    int

	K    int // maximum feature multiplicity (revealed to the data owner)
	Q    int // quantized branching: K · NumFeatures
	QPad int // Q padded to a power of two (threshold-vector period)
	B    int // total branches
	BPad int // B padded to a power of two (branch-vector period)
	D    int // number of levels (max node level)

	NumLeaves  int      // label slots in the result bitvector
	LabelNames []string // public label names
	// Codebook maps each leaf slot to its label index — the map the
	// paper's §7.2.2 discusses revealing to Diane.
	Codebook []int
	// TreeLeafOffsets[i] is the first leaf slot of tree i (plus a final
	// sentinel). This is Maurice-private: revealing it would expose the
	// boundaries between trees.
	TreeLeafOffsets []int

	// Slots is the packing width the model was staged for.
	Slots int
	// RotationSteps are the Galois rotations the evaluation needs; the
	// model owner generates exactly these keys. With UseBSGS the set is
	// the reduced baby-step/giant-step one (~2·√period per matrix period
	// instead of period−1 steps).
	RotationSteps []int
	// UseBSGS records that the model was staged for the baby-step/
	// giant-step diagonal kernel: Prepare lays matrix diagonals out
	// pre-rotated by their giant step and RotationSteps holds only the
	// reduced step set. Zero-value (old artifacts) means the naive
	// one-rotation-per-diagonal kernel.
	UseBSGS bool
	// BSGSPlans is the staged baby/giant split for each matrix period
	// (QPad for the reshuffle, BPad for the level matrices, padded
	// NumLeaves for result shuffling).
	BSGSPlans []BSGSPlan

	// Circuit-shape estimates (ciphertext-ciphertext multiplicative
	// depth) used to choose encryption parameters — the staging
	// compiler's parameter selection (§5).
	CtDepthCipherModel int
	CtDepthPlainModel  int
	RecommendedLevels  int

	// LevelPlan is the static level schedule the compiler derived by
	// running its noise model forward over the pipeline (DESIGN.md §8):
	// per-stage target levels that let the back half of Algorithm 1 run
	// on a fraction of the modulus chain. Every model has one: Compile
	// and ShardForest refuse a model without a feasible schedule, and
	// ReadArtifact plans an artifact older than v3 at load.
	LevelPlan *LevelPlan

	// ForcedSPad, when non-zero, pins SPad (and therefore BatchBlock /
	// BatchCapacity) to at least this value. Shard artifacts produced by
	// ShardForest set it to the parent forest's SPad so every shard keeps
	// the parent's slot layout: queries encrypted once against the global
	// layout evaluate on any shard, and per-shard result ciphertexts
	// occupy disjoint slot supports that merge with plain adds. Zero on
	// unsharded models (and artifacts older than v4).
	ForcedSPad int
}

// LPad returns the leaf count padded to a power of two — the period of
// the result vector (and of the optional result shuffle, §7.2.2).
func (m *Meta) LPad() int {
	return 1 << log2Ceil(max(m.NumLeaves, 1))
}

// SPad returns the widest per-query slot period of the pipeline: the
// padded threshold period (QPad), the padded branch period (BPad) and
// the padded leaf period (LPad) all have to fit inside one query's slot
// region for the batched layout. Shard artifacts pin it via ForcedSPad
// so a shard whose own periods shrank below the parent's keeps the
// parent's block layout.
func (m *Meta) SPad() int {
	return max(m.QPad, m.BPad, m.LPad(), m.ForcedSPad)
}

// BatchBlock returns the width W of one query's slot block under the
// slot-packed batching layout. Each block holds its query's data
// replicated twice over SPad slots (W = 2·SPad), so that every wrapped
// diagonal read r + i < 2·SPad of the matrix kernels lands on the
// block's own copy instead of the neighbouring query — the blocked
// equivalent of the wrap-around the fully periodic single-query layout
// gets from ciphertext rotation. When the model is too large for two
// queries (2·SPad > Slots) the block is the whole ciphertext and the
// layout degenerates to the original fully periodic one.
func (m *Meta) BatchBlock() int {
	return m.Slots / m.BatchCapacity()
}

// BatchCapacity returns how many independent queries one ciphertext set
// can carry: Slots / (2·SPad), at least 1. This is the headroom COPSE's
// periodic replication leaves idle on a single query — a model with
// SPad = 8 on a 1024-slot backend answers 64 queries per homomorphic
// pass.
func (m *Meta) BatchCapacity() int {
	if m.Slots <= 0 {
		return 1
	}
	return max(m.Slots/(2*m.SPad()), 1)
}

// The plane axis of the query layout. A batch that fills no more than
// half of the BatchCapacity blocks leaves whole block groups idle, and
// the comparison's p bit planes ride them: under packing g the slots
// split into g block groups of BatchCapacity/g query blocks each, query k
// keeps the low block index k in every group, and MSB-first plane j sits
// in block group j / m of ciphertext j mod m, m = ⌈p/g⌉ (DESIGN.md §13.4).
// g = 1 is the one-plane-per-ciphertext layout of a full batch.

// PlanesPerCiphertext returns the plane packing g of a batch of n queries:
// the largest power of two the idle blocks leave room for, at most the
// precision rounded up to a power of two. It is a function of the batch
// size alone, so whoever packs a query and whoever receives it agree on
// the layout without a word on the wire.
func (m *Meta) PlanesPerCiphertext(batch int) int {
	return max(min(1<<log2Ceil(max(m.Precision, 1)), m.BatchCapacity()>>log2Ceil(max(batch, 1))), 1)
}

// QueryCiphertexts is the number of ciphertexts (or plaintext vectors) a
// query carries under packing g: ⌈p/g⌉.
func (m *Meta) QueryCiphertexts(g int) int {
	return (m.Precision + g - 1) / g
}

// QueryCapacity is how many queries one pass answers under packing g:
// the blocks of one block group.
func (m *Meta) QueryCapacity(g int) int {
	return max(m.BatchCapacity()/max(g, 1), 1)
}

// planeAt locates bit plane j under packing g: the ciphertext that
// carries it and the first slot of its block group.
func (m *Meta) planeAt(j, g int) (ct, base int) {
	n := m.QueryCiphertexts(g)
	return j % n, j / n * (m.Slots / g)
}

// The lane axis of the level stage. The reshuffle's replicate chain fills
// the whole block with BPad-periodic copies of the branch vector, but a
// level product reads only rows + BPad − 1 slots of it, so a block wide
// enough holds several level matrices side by side: it splits into h
// lanes, level l sits in lane ⌊l/m⌋ of stacked operand l mod m, one
// mat-vec evaluates a level in every lane, and the accumulate stage
// finishes with log2 h rotate-and-multiply rounds inside the ciphertext
// (DESIGN.md §13.5). h = 1 is one level matrix per operand.

// LevelLanes returns the lane geometry of the level stage: the h lanes a
// block splits into and the m = ⌈D/h⌉ stacked level operands. The
// narrowest lane is the power of two that absorbs every diagonal read of
// a level product (NumLeaves − 1 + BPad − 1 < w), h the lanes of that
// width the block has room for, at most the levels rounded up to a power
// of two — the block is then split evenly, so a lane is BatchBlock ÷ h ≥ w
// wide. It follows from the compiled shape alone, so one staging serves
// every plane packing and batch fill.
func (m *Meta) LevelLanes() (lanes, operands int) {
	d := max(m.D, 1)
	w := 1 << log2Ceil(max(m.NumLeaves+m.BPad-1, 1))
	lanes = min(max(m.BatchBlock()/w, 1), 1<<log2Ceil(d))
	return lanes, (d + lanes - 1) / lanes
}

// The group axis of the level stage. A batch that fills at most 1/G of the
// blocks leaves whole slot groups idle once the compare rounds have folded
// the plane groups back into block group 0, and the level lanes ride them
// too: the slots split into G groups Slots ÷ G apart, the branch vector is
// replicated into each, lane i of group j holds the levels of lane
// j·h + i, and the accumulate stage finishes with log2 G more rounds
// across the groups (DESIGN.md §13.5). G = 1 is the lanes of a block alone.

// LevelGroups returns G: the lane groups that give every level a lane of
// its own, pow2ceil(D) ÷ h, at most the plane packing of a lone query — a
// packing below G fills more blocks than one group holds.
func (m *Meta) LevelGroups() int {
	lanes, _ := m.LevelLanes()
	return max(min((1<<log2Ceil(max(m.D, 1)))/lanes, m.PlanesPerCiphertext(1)), 1)
}

// LevelLayout returns the geometry of the level stage a query of plane
// packing g runs on: h lanes × G groups and the ⌈D/(h·G)⌉ stacked level
// operands — LevelGroups of them from packing G up, the lanes of a block
// alone (G = 1, LevelLanes) below. Like the plane packing it follows from
// the batch size alone.
func (m *Meta) LevelLayout(g int) (lanes, groups, operands int) {
	lanes, operands = m.LevelLanes()
	if groups = m.LevelGroups(); g < groups {
		return lanes, 1, operands
	}
	d := max(m.D, 1)
	return lanes, groups, (d + lanes*groups - 1) / (lanes * groups)
}

// branchSpan is how many slots of a block the reshuffle product itself
// fills with BPad-periodic copies of the branch vector, the replicate
// rotations that follow doubling it up to the block: SPad under an
// encrypted model of a batched layout, whose reshuffle rows are staged
// repeated (Prepare), BPad otherwise.
func (m *Meta) branchSpan(encModel bool) int {
	if encModel && m.BatchCapacity() > 1 {
		return m.SPad()
	}
	return m.BPad
}

// BSGSPlan is the staged baby-step/giant-step split for one matrix
// period: Baby·Giant == Period.
type BSGSPlan struct {
	Period, Baby, Giant int
}

// kernelSplit returns the baby/giant split a model matrix of the given
// period is staged and evaluated with: the compiler's staged BSGS plan,
// or — for models staged without BSGS (CompileOptions.NoBSGS, v1
// artifacts) — baby = period, giant = 1, which is the naive
// one-rotation-per-diagonal kernel written as a split: the same
// diagonals, and exactly the rotation steps 1..period−1 such a model's
// RotationSteps carry.
func (m *Meta) kernelSplit(period int) (baby, giant int) {
	if !m.UseBSGS {
		return period, 1
	}
	if baby, giant, ok := m.BSGSFor(period); ok {
		return baby, giant
	}
	return matrix.BSGSSplit(period)
}

// BSGSFor returns the staged split for a period, if one was staged.
func (m *Meta) BSGSFor(period int) (baby, giant int, ok bool) {
	for _, p := range m.BSGSPlans {
		if p.Period == period {
			return p.Baby, p.Giant, true
		}
	}
	return 0, 0, false
}

// log2Ceil returns ceil(log2(n)) for n ≥ 1.
func log2Ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}

func (m *Meta) String() string {
	return fmt.Sprintf("forest{trees=%d features=%d p=%d K=%d q=%d b=%d d=%d leaves=%d}",
		m.NumTrees, m.NumFeatures, m.Precision, m.K, m.Q, m.B, m.D, m.NumLeaves)
}
