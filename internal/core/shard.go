package core

import (
	"encoding/json"
	"fmt"
	"io"

	"copse/internal/bits"
	"copse/internal/matrix"
)

// Tree-wise forest sharding: ShardForest splits one compiled model into
// K self-contained shard artifacts whose encrypted results merge with
// plain ciphertext additions. Every shard keeps the parent's slot
// layout — same QPad/K/NumFeatures, same (Forced)SPad and therefore the
// same BatchBlock, global NumLeaves result window, and its own leaves
// at their global slot positions — so a query batch encrypted once
// against the parent layout evaluates unchanged on every shard, and
// each shard's result ciphertext carries the exact global leaf bits in
// its own trees' slots and zeros everywhere else. Disjoint supports
// make the merge a pure slot-wise add at the (cheap, ~2-limb) result
// level: the gateway needs no keys at all to combine shard results, and
// the merged plaintext is bit-identical to the single-node pipeline.
//
// Exactness of the per-shard level trim: the §4.2.3 selection rule is
// idempotent above a tree's depth — for ℓ ≥ depth(t) every leaf of t
// selects its root branch with an unchanged mask bit, so the global
// pipeline's factors at those levels are duplicates and the bit-valued
// product tree absorbs them. A shard therefore keeps only
// D_s = max depth over its trees level matrices and still reproduces
// the global bits.

// ShardInfo locates one shard inside its parent forest. All ranges are
// half-open global indices.
type ShardInfo struct {
	Index int `json:"index"`
	Count int `json:"count"`

	TreeStart   int `json:"tree_start"`
	TreeEnd     int `json:"tree_end"`
	BranchStart int `json:"branch_start"`
	BranchEnd   int `json:"branch_end"`
	LeafStart   int `json:"leaf_start"`
	LeafEnd     int `json:"leaf_end"`
}

// ShardManifest is the merge manifest accompanying a sharded model: the
// global (parent) Meta the gateway encrypts queries and decodes merged
// results with. Each shard's range is its own artifact's Compiled.Shard,
// and the file's magic versions the format. The parent's level plan is
// the key contract every worker of the cluster honours so that one key
// pair serves all shards: its plaintext-model chain, Meta.ChainLevels(false).
// Two workers constructing backends from the same manifest (and the same
// seed) derive identical secret and public keys; each makes the Galois
// keys of the shards it stages itself.
type ShardManifest struct {
	Shards int `json:"shards"`

	// Meta is the parent model's metadata (including its level plan):
	// what the gateway uses to encrypt queries and decode merged
	// results.
	Meta Meta `json:"meta"`
}

// manifestMagic versions the manifest file format.
const manifestMagic = "COPSE-manifest-v1"

type manifestFile struct {
	Magic string `json:"magic"`
	ShardManifest
}

// WriteManifest serializes the manifest as JSON.
func (m *ShardManifest) WriteManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&manifestFile{Magic: manifestMagic, ShardManifest: *m})
}

// ReadManifest deserializes a merge manifest.
func ReadManifest(r io.Reader) (*ShardManifest, error) {
	var f manifestFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding shard manifest: %w", err)
	}
	if f.Magic != manifestMagic {
		return nil, fmt.Errorf("core: not a COPSE shard manifest (magic %q)", f.Magic)
	}
	if err := f.Meta.Validate(); err != nil {
		return nil, fmt.Errorf("core: reading a shard manifest: %w", err)
	}
	return &f.ShardManifest, nil
}

// ShardForest splits a compiled forest tree-wise into the given number
// of self-contained shards plus the merge manifest. Shards are
// contiguous tree ranges balanced by branch count. The input must be an
// unsharded model with at least `shards` trees.
func ShardForest(c *Compiled, shards int) ([]*Compiled, *ShardManifest, error) {
	m := &c.Meta
	if c.Shard != nil {
		return nil, nil, fmt.Errorf("core: cannot re-shard shard %d/%d", c.Shard.Index, c.Shard.Count)
	}
	if shards < 1 {
		return nil, nil, fmt.Errorf("core: shard count %d < 1", shards)
	}
	if shards > m.NumTrees {
		return nil, nil, fmt.Errorf("core: cannot split %d trees into %d shards", m.NumTrees, shards)
	}
	if len(m.TreeLeafOffsets) != m.NumTrees+1 {
		return nil, nil, fmt.Errorf("core: malformed TreeLeafOffsets (%d entries for %d trees)", len(m.TreeLeafOffsets), m.NumTrees)
	}

	branchTree, err := branchOwners(c)
	if err != nil {
		return nil, nil, err
	}
	// Branches are enumerated in tree preorder, so each tree's branches
	// form one contiguous range.
	treeBranchOffsets := make([]int, m.NumTrees+1)
	for b, t := range branchTree {
		treeBranchOffsets[t+1] = b + 1
	}
	for t := 1; t <= m.NumTrees; t++ {
		if treeBranchOffsets[t] < treeBranchOffsets[t-1] {
			return nil, nil, fmt.Errorf("core: tree %d has no branches", t-1)
		}
		if treeBranchOffsets[t] == 0 {
			treeBranchOffsets[t] = treeBranchOffsets[t-1]
		}
	}

	branchCol, err := branchColumns(c)
	if err != nil {
		return nil, nil, err
	}
	rootDepths := treeDepths(c, treeBranchOffsets)

	bounds := shardBounds(treeBranchOffsets, shards)
	// Compile does not record Options.PlanShuffle, but a plan built with
	// it reserves Final ≥ the shuffle entry in both scenarios; re-plan
	// shards with the same headroom.
	plan := m.LevelPlan
	planShuffle := plan.Cipher.Final >= plan.ShuffleLevel() && plan.Plain.Final >= plan.ShuffleLevel()

	out := make([]*Compiled, shards)
	manifest := &ShardManifest{Shards: shards, Meta: *m}
	for i := range out {
		info := ShardInfo{
			Index:       i,
			Count:       shards,
			TreeStart:   bounds[i],
			TreeEnd:     bounds[i+1],
			BranchStart: treeBranchOffsets[bounds[i]],
			BranchEnd:   treeBranchOffsets[bounds[i+1]],
			LeafStart:   m.TreeLeafOffsets[bounds[i]],
			LeafEnd:     m.TreeLeafOffsets[bounds[i+1]],
		}
		sc, err := buildShard(c, info, branchCol, rootDepths, planShuffle)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building shard %d/%d: %w", i, shards, err)
		}
		// Queries are encrypted once against the parent plan and the
		// engine only ever drops levels, so every shard's compare entry
		// must sit at or below the parent's in both scenarios (a smaller
		// circuit schedules shallower; this guards the invariant rather
		// than establishing it).
		if sp := sc.Meta.LevelPlan; sp.Plain.Compare > plan.Plain.Compare || sp.Cipher.Compare > plan.Cipher.Compare {
			return nil, nil, fmt.Errorf("core: shard %d/%d schedules compare at (%d,%d) above the parent's (%d,%d)",
				i, shards, sp.Cipher.Compare, sp.Plain.Compare, plan.Cipher.Compare, plan.Plain.Compare)
		}
		out[i] = sc
	}
	return out, manifest, nil
}

// buildShard constructs one shard's Compiled.
func buildShard(c *Compiled, info ShardInfo, branchCol []int, rootDepths []int, planShuffle bool) (*Compiled, error) {
	g := &c.Meta
	bS := info.BranchEnd - info.BranchStart
	if bS == 0 {
		return nil, fmt.Errorf("empty branch range")
	}
	dS := 1
	for t := info.TreeStart; t < info.TreeEnd; t++ {
		dS = max(dS, rootDepths[t])
	}

	// Threshold planes: the shard's own branch thresholds at their
	// global columns; every other column is the sentinel 0, exactly like
	// the parent's padding columns — the shard reshuffle never reads
	// them, and a worker holding this shard learns nothing about other
	// shards' thresholds.
	thresholdBits := make([][]uint64, g.Precision)
	for p := range thresholdBits {
		thresholdBits[p] = make([]uint64, g.QPad)
	}
	for r := info.BranchStart; r < info.BranchEnd; r++ {
		col := branchCol[r]
		for p := range thresholdBits {
			thresholdBits[p][col] = c.ThresholdBits[p][col]
		}
	}

	// Reshuffle: shard branches as rows (local indices), global columns.
	reshuffle := matrix.NewBool(bS, g.QPad)
	for r := info.BranchStart; r < info.BranchEnd; r++ {
		reshuffle.Set(r-info.BranchStart, branchCol[r], 1)
	}

	// Level matrices and masks: global leaf rows (so the result lands at
	// global slot positions), shard-local branch columns, rows outside
	// the shard's leaf range left zero (their product accumulates to 0),
	// trimmed to the shard's own depth.
	levels := make([]*matrix.Bool, dS)
	masks := make([][]uint64, dS)
	for l := 1; l <= dS; l++ {
		lm := matrix.NewBool(g.NumLeaves, bS)
		mask := make([]uint64, g.NumLeaves)
		src := c.Levels[l-1]
		for leaf := info.LeafStart; leaf < info.LeafEnd; leaf++ {
			for b := info.BranchStart; b < info.BranchEnd; b++ {
				if src.At(leaf, b) == 1 {
					lm.Set(leaf, b-info.BranchStart, 1)
				}
			}
			mask[leaf] = c.Masks[l-1][leaf]
		}
		levels[l-1] = lm
		masks[l-1] = mask
	}

	meta := *g
	meta.NumTrees = info.TreeEnd - info.TreeStart
	meta.B = bS
	meta.BPad = bits.NextPow2(bS)
	meta.D = dS
	meta.LabelNames = append([]string(nil), g.LabelNames...)
	meta.Codebook = append([]int(nil), g.Codebook...)
	meta.TreeLeafOffsets = append([]int(nil), g.TreeLeafOffsets[info.TreeStart:info.TreeEnd+1]...)
	meta.ForcedSPad = g.SPad()
	if meta.SPad() != g.SPad() || meta.BatchBlock() != g.BatchBlock() {
		return nil, fmt.Errorf("shard layout diverged from parent (SPad %d vs %d)", meta.SPad(), g.SPad())
	}

	meta.RotationSteps = rotationSteps(g.QPad, meta.BPad, bits.NextPow2(g.NumLeaves), g.Slots)

	meta.estimateDepth()
	var err error
	if meta.LevelPlan, err = computeLevelPlan(&meta, planShuffle); err != nil {
		return nil, err
	}

	return &Compiled{
		Meta:          meta,
		ThresholdBits: thresholdBits,
		Reshuffle:     reshuffle,
		Levels:        levels,
		Masks:         masks,
		Shard:         &info,
	}, nil
}

// branchOwners recovers each branch's tree from the level matrices:
// every branch is selected (at the level equal to its own) by at least
// one leaf below it, and leaves are tree-partitioned by
// TreeLeafOffsets.
func branchOwners(c *Compiled) ([]int, error) {
	m := &c.Meta
	owner := make([]int, m.B)
	for i := range owner {
		owner[i] = -1
	}
	for t := 0; t < m.NumTrees; t++ {
		for leaf := m.TreeLeafOffsets[t]; leaf < m.TreeLeafOffsets[t+1]; leaf++ {
			for _, lm := range c.Levels {
				for b := 0; b < m.B; b++ {
					if lm.At(leaf, b) != 1 {
						continue
					}
					if owner[b] >= 0 && owner[b] != t {
						return nil, fmt.Errorf("core: branch %d claimed by trees %d and %d", b, owner[b], t)
					}
					owner[b] = t
				}
			}
		}
	}
	for b, t := range owner {
		if t < 0 {
			return nil, fmt.Errorf("core: branch %d appears in no level matrix", b)
		}
	}
	return owner, nil
}

// branchColumns recovers each branch's threshold column from the
// reshuffle matrix (one 1 per row).
func branchColumns(c *Compiled) ([]int, error) {
	cols := make([]int, c.Meta.B)
	for r := 0; r < c.Meta.B; r++ {
		cols[r] = -1
		for col := 0; col < c.Meta.QPad; col++ {
			if c.Reshuffle.At(r, col) == 1 {
				if cols[r] >= 0 {
					return nil, fmt.Errorf("core: reshuffle row %d has multiple columns", r)
				}
				cols[r] = col
			}
		}
		if cols[r] < 0 {
			return nil, fmt.Errorf("core: reshuffle row %d is empty", r)
		}
	}
	return cols, nil
}

// treeDepths recovers each tree's depth from the level matrices: the
// root branch (the tree's first, in preorder) has level = depth, and
// for ℓ ≥ depth every leaf of the tree selects it — so the depth is one
// past the last level at which some leaf still selects a non-root
// ancestor (1 when even level 1 selects the root everywhere).
func treeDepths(c *Compiled, treeBranchOffsets []int) []int {
	m := &c.Meta
	depths := make([]int, m.NumTrees)
	for t := range depths {
		root := treeBranchOffsets[t]
		depth := 1
		for l := m.D; l >= 1; l-- {
			nonRoot := false
			for leaf := m.TreeLeafOffsets[t]; leaf < m.TreeLeafOffsets[t+1] && !nonRoot; leaf++ {
				for b := treeBranchOffsets[t]; b < treeBranchOffsets[t+1]; b++ {
					if b != root && c.Levels[l-1].At(leaf, b) == 1 {
						nonRoot = true
						break
					}
				}
			}
			if nonRoot {
				depth = l + 1
				break
			}
		}
		depths[t] = min(depth, m.D)
	}
	return depths
}

// shardBounds splits the trees into contiguous ranges balanced by
// branch count: bounds[i] is shard i's first tree, bounds[shards] is
// NumTrees. Every shard gets at least one tree.
func shardBounds(treeBranchOffsets []int, shards int) []int {
	numTrees := len(treeBranchOffsets) - 1
	bounds := make([]int, shards+1)
	bounds[shards] = numTrees
	t := 0
	for i := 0; i < shards; i++ {
		bounds[i] = t
		remainingShards := shards - i
		remainingBranches := treeBranchOffsets[numTrees] - treeBranchOffsets[t]
		target := (remainingBranches + remainingShards - 1) / remainingShards
		took := 0
		// Take trees until the branch target is met, always leaving one
		// tree per remaining shard.
		for t < numTrees-(remainingShards-1) {
			if took > 0 && took+branchesOf(treeBranchOffsets, t) > target {
				break
			}
			took += branchesOf(treeBranchOffsets, t)
			t++
			if took >= target {
				break
			}
		}
		if t == bounds[i] { // always advance
			t++
		}
	}
	return bounds
}

func branchesOf(treeBranchOffsets []int, t int) int {
	return treeBranchOffsets[t+1] - treeBranchOffsets[t]
}
