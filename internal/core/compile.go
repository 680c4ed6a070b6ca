package core

import (
	"fmt"
	"sort"

	"copse/internal/bits"
	"copse/internal/matrix"
	"copse/internal/model"
)

// Options controls compilation.
type Options struct {
	// Slots is the packing width of the target backend (the staging
	// compiler specializes the generated structures to the encryption
	// parameters, §5). Defaults to 1024.
	Slots int
	// PadMultiplicityTo, when larger than the true maximum multiplicity
	// K, pads every feature's threshold group to this bound instead, so
	// only an upper bound on K is revealed (§7.2.1). Zero means exact K.
	PadMultiplicityTo int
	// PlanShuffle reserves level headroom in the schedule so the
	// classification result can still feed the optional result shuffle
	// (§7.2.2). The default minimal schedule lands the result below the
	// shuffle's entry level.
	PlanShuffle bool
}

// Compiled is the vectorized representation of a decision forest: the
// output of the COPSE compiler, ready to be encrypted (or encoded) for a
// target backend.
type Compiled struct {
	Meta Meta
	// ThresholdBits are the p MSB-first bit planes of the padded
	// threshold vector (§4.2.1), each of length QPad, grouped by feature
	// and padded with the sentinel S=0.
	ThresholdBits [][]uint64
	// Reshuffle is the B×QPad matrix rearranging comparison results into
	// branch preorder and dropping sentinels (§4.2.2).
	Reshuffle *matrix.Bool
	// Levels[ℓ-1] is the NumLeaves×B matrix selecting, for each leaf,
	// the branch above it at level ℓ (§4.2.3).
	Levels []*matrix.Bool
	// Masks[ℓ-1] is the level-ℓ mask: 1 where the leaf hangs off the
	// false branch (§4.2.4).
	Masks [][]uint64
	// Shard, when non-nil, marks this model as one shard of a tree-wise
	// split produced by ShardForest and locates it inside the parent
	// forest. Nil on unsharded models.
	Shard *ShardInfo
}

// branchInfo records one branch during the preorder walk.
type branchInfo struct {
	node  *model.Node
	level int
}

// pathStep records one ancestor on a leaf's root path.
type pathStep struct {
	branchIdx int
	level     int
	wentRight bool // leaf lies in the true (right) subtree of this branch
}

// Compile stages a forest into its vectorized form.
func Compile(f *model.Forest, opts Options) (*Compiled, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	for ti, tr := range f.Trees {
		if tr.Root.Leaf {
			return nil, fmt.Errorf("core: tree %d is a bare leaf; COPSE requires at least one branch per tree", ti)
		}
	}
	slots := opts.Slots
	if slots == 0 {
		slots = 1024
	}

	// Preorder enumeration of branches and leaves across the forest
	// (§4.1.1), tracking each leaf's root path.
	var branches []branchInfo
	var leafLabels []int
	var leafPaths [][]pathStep
	treeLeafOffsets := []int{0}
	levelOf := map[*model.Node]int{}
	var computeLevels func(n *model.Node) int
	computeLevels = func(n *model.Node) int {
		if n.Leaf {
			levelOf[n] = 0
			return 0
		}
		l := 1 + max(computeLevels(n.Left), computeLevels(n.Right))
		levelOf[n] = l
		return l
	}
	for _, tr := range f.Trees {
		computeLevels(tr.Root)
		var walk func(n *model.Node, path []pathStep)
		walk = func(n *model.Node, path []pathStep) {
			if n.Leaf {
				leafLabels = append(leafLabels, n.Label)
				leafPaths = append(leafPaths, append([]pathStep(nil), path...))
				return
			}
			idx := len(branches)
			branches = append(branches, branchInfo{node: n, level: levelOf[n]})
			walk(n.Left, append(path, pathStep{branchIdx: idx, level: levelOf[n], wentRight: false}))
			walk(n.Right, append(path, pathStep{branchIdx: idx, level: levelOf[n], wentRight: true}))
		}
		walk(tr.Root, nil)
		treeLeafOffsets = append(treeLeafOffsets, len(leafLabels))
	}

	b := len(branches)
	numLeaves := len(leafLabels)
	d := f.Depth()

	// Threshold vector grouped by feature, padded to multiplicity K with
	// the sentinel S=0 (§4.2.1).
	k := f.MaxMultiplicity()
	if opts.PadMultiplicityTo > 0 {
		if opts.PadMultiplicityTo < k {
			return nil, fmt.Errorf("core: PadMultiplicityTo %d below true maximum multiplicity %d", opts.PadMultiplicityTo, k)
		}
		k = opts.PadMultiplicityTo
	}
	q := k * f.NumFeatures
	qPad := bits.NextPow2(q)
	bPad := bits.NextPow2(b)
	if qPad > slots || bPad > slots || numLeaves > slots {
		return nil, fmt.Errorf("core: model needs %d-slot packing (q=%d b=%d leaves=%d) but backend has %d slots",
			max(qPad, bPad, numLeaves), q, b, numLeaves, slots)
	}

	thresholds := make([]uint64, q) // sentinel 0 everywhere by default
	colToBranch := make([]int, q)
	for c := range colToBranch {
		colToBranch[c] = -1
	}
	occ := make([]int, f.NumFeatures)
	for idx, br := range branches {
		feat := br.node.Feature
		if occ[feat] >= k {
			return nil, fmt.Errorf("core: feature %d multiplicity exceeds K=%d", feat, k)
		}
		col := feat*k + occ[feat]
		occ[feat]++
		thresholds[col] = br.node.Threshold
		colToBranch[col] = idx
	}

	planes, err := bits.Transpose(thresholds, f.Precision)
	if err != nil {
		return nil, err
	}
	thresholdBits := make([][]uint64, f.Precision)
	for i, plane := range planes {
		padded := make([]uint64, qPad)
		copy(padded, plane)
		thresholdBits[i] = padded
	}

	// Reshuffling matrix (§4.2.2): exactly one 1 per row; sentinel
	// columns stay empty.
	reshuffle := matrix.NewBool(b, qPad)
	for col, brIdx := range colToBranch {
		if brIdx >= 0 {
			reshuffle.Set(brIdx, col, 1)
		}
	}

	// Level matrices and masks (§4.2.3–4.2.4). For each level ℓ and each
	// leaf, select the ancestor branch with the greatest level not
	// exceeding ℓ; if every ancestor sits above ℓ, fall back to the
	// nearest (lowest-level) ancestor so each branch is represented.
	levels := make([]*matrix.Bool, d)
	masks := make([][]uint64, d)
	for l := 1; l <= d; l++ {
		lm := matrix.NewBool(numLeaves, b)
		mask := make([]uint64, numLeaves)
		for leaf, path := range leafPaths {
			step, ok := ancestorAtLevel(path, l)
			if !ok {
				continue // cannot happen for valid forests; paths are never empty
			}
			lm.Set(leaf, step.branchIdx, 1)
			if !step.wentRight {
				mask[leaf] = 1
			}
		}
		levels[l-1] = lm
		masks[l-1] = mask
	}

	meta := Meta{
		NumFeatures:     f.NumFeatures,
		Precision:       f.Precision,
		NumTrees:        len(f.Trees),
		K:               k,
		Q:               q,
		QPad:            qPad,
		B:               b,
		BPad:            bPad,
		D:               d,
		NumLeaves:       numLeaves,
		LabelNames:      append([]string(nil), f.Labels...),
		Codebook:        leafLabels,
		TreeLeafOffsets: treeLeafOffsets,
		Slots:           slots,
	}
	meta.RotationSteps = rotationSteps(qPad, bPad, bits.NextPow2(numLeaves), slots)
	meta.estimateDepth()
	// The static level schedule (levelplan.go): per-stage target levels
	// from the level pass over the op program, so the engine executes each
	// stage on exactly the fraction of the modulus chain its remaining
	// circuit needs. A model without one is not served.
	if meta.LevelPlan, err = computeLevelPlan(&meta, opts.PlanShuffle); err != nil {
		return nil, err
	}

	return &Compiled{
		Meta:          meta,
		ThresholdBits: thresholdBits,
		Reshuffle:     reshuffle,
		Levels:        levels,
		Masks:         masks,
	}, nil
}

// ancestorAtLevel implements the branch-selection rule of §4.2.3.
func ancestorAtLevel(path []pathStep, l int) (pathStep, bool) {
	if len(path) == 0 {
		return pathStep{}, false
	}
	best := -1
	for i, s := range path {
		if s.level <= l && (best < 0 || s.level > path[best].level) {
			best = i
		}
	}
	if best >= 0 {
		return path[best], true
	}
	// All ancestors exceed l: take the nearest one (smallest level).
	best = 0
	for i, s := range path {
		if s.level < path[best].level {
			best = i
		}
	}
	return path[best], true
}

// rotationSteps returns the Galois rotation amounts Algorithm 1 needs.
// Each matrix period P contributes its baby steps 1..n1−1 and giant steps
// n1, 2n1, .. (n2−1)·n1 of the split matrix.BSGSSplit(P) — ~2·√P keys
// instead of the naive kernel's P−1 steps. The replication between stages
// rotates by negated powers of two, listed up to the slot count: the
// powers from BatchBlock up serve no stage, but they stay in every
// artifact's Meta.RotationSteps, whose wire form is pinned. No key is
// made from the list — keys follow the op programs (DESIGN.md §9.4,
// §10.2). nPad covers the optional result shuffle (§7.2.2).
func rotationSteps(qPad, bPad, nPad, slots int) []int {
	set := map[int]bool{}
	for _, period := range []int{qPad, bPad, nPad} {
		baby, giant := matrix.BSGSSplit(period)
		for j := 1; j < baby; j++ {
			set[j] = true
		}
		for g := 1; g < giant; g++ {
			set[g*baby] = true
		}
	}
	for p := min(bPad, nPad); p < slots; p <<= 1 {
		set[-p] = true
	}
	steps := make([]int, 0, len(set))
	for s := range set {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	return steps
}

// estimateDepth fills in the circuit-shape estimates from the precision,
// the depth and the branch period.
func (m *Meta) estimateDepth() {
	logp, logd := log2Ceil(m.Precision), log2Ceil(max(m.D, 1))
	// SecComp (the reduction tree's ⌈log2 p⌉ levels, after the gt product
	// of an encrypted model) + reshuffle + level (its mask is folded into
	// the matrix) + accumulate.
	m.CtDepthCipherModel = (logp + 1) + 2 + logd
	m.CtDepthPlainModel = logp + logd
	// Beyond one prime per ciphertext multiplication, the chain must
	// absorb the key-switch noise that accumulates when a matrix product
	// sums b̂ rotated terms (roughly one extra modulus switch per
	// pipeline stage) plus slack for the plaintext-multiply noise of the
	// Z_t boolean encoding.
	m.RecommendedLevels = m.CtDepthCipherModel + 5 + log2Ceil(m.BPad)/3
}
