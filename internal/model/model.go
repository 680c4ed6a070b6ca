// Package model defines decision-forest models: the tree structures, the
// paper's text serialization format, structural statistics (multiplicity,
// branching, levels — §4.1.1), and a plaintext reference evaluator that
// serves as ground truth for every secure-inference test.
package model

import (
	"fmt"
)

// Node is a decision-tree node. A branch node compares
// feature[Feature] > Threshold: false descends Left, true descends
// Right. A leaf node (Leaf=true) yields Label.
type Node struct {
	// Branch fields.
	Feature   int
	Threshold uint64
	Left      *Node
	Right     *Node

	// Leaf fields.
	Leaf  bool
	Label int
}

// Tree is a single decision tree.
type Tree struct {
	Root *Node
}

// Forest is a decision-forest model over a shared feature space. All
// thresholds are fixed-point values with Precision bits (§4.1.2).
type Forest struct {
	Labels      []string
	NumFeatures int
	Precision   int
	Trees       []*Tree
}

// MaxPrecision is the widest fixed-point precision a forest may have.
const MaxPrecision = 32

// Validate checks structural invariants: label/feature indices in range,
// thresholds within precision, complete branch nodes.
func (f *Forest) Validate() error {
	if len(f.Trees) == 0 {
		return fmt.Errorf("model: forest has no trees")
	}
	if f.NumFeatures < 1 {
		return fmt.Errorf("model: forest has %d features", f.NumFeatures)
	}
	if len(f.Labels) == 0 {
		return fmt.Errorf("model: forest has no labels")
	}
	if f.Precision < 1 || f.Precision > MaxPrecision {
		return fmt.Errorf("model: precision %d out of range [1,%d]", f.Precision, MaxPrecision)
	}
	limit := uint64(1) << uint(f.Precision)
	for ti, tree := range f.Trees {
		if tree == nil || tree.Root == nil {
			return fmt.Errorf("model: tree %d is empty", ti)
		}
		var check func(n *Node) error
		check = func(n *Node) error {
			if n.Leaf {
				if n.Label < 0 || n.Label >= len(f.Labels) {
					return fmt.Errorf("model: tree %d: leaf label %d out of range", ti, n.Label)
				}
				return nil
			}
			if n.Feature < 0 || n.Feature >= f.NumFeatures {
				return fmt.Errorf("model: tree %d: feature %d out of range", ti, n.Feature)
			}
			if n.Threshold >= limit {
				return fmt.Errorf("model: tree %d: threshold %d exceeds %d-bit precision", ti, n.Threshold, f.Precision)
			}
			if n.Left == nil || n.Right == nil {
				return fmt.Errorf("model: tree %d: branch node missing a child", ti)
			}
			if err := check(n.Left); err != nil {
				return err
			}
			return check(n.Right)
		}
		if err := check(tree.Root); err != nil {
			return err
		}
	}
	return nil
}

// Level returns the node's level per §4.1.1: the number of branches on
// the longest path from the node to a leaf, including itself; leaves are
// level 0.
func (n *Node) Level() int {
	if n.Leaf {
		return 0
	}
	return 1 + max(n.Left.Level(), n.Right.Level())
}

// Branches returns the total number of branch nodes in the forest (the
// paper's b).
func (f *Forest) Branches() int {
	total := 0
	for _, tr := range f.Trees {
		total += countBranches(tr.Root)
	}
	return total
}

func countBranches(n *Node) int {
	if n.Leaf {
		return 0
	}
	return 1 + countBranches(n.Left) + countBranches(n.Right)
}

// Leaves returns the total number of leaf (label) nodes in the forest.
func (f *Forest) Leaves() int {
	total := 0
	for _, tr := range f.Trees {
		total += countLeaves(tr.Root)
	}
	return total
}

func countLeaves(n *Node) int {
	if n.Leaf {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the forest's level count d: the maximum node level over
// all trees.
func (f *Forest) Depth() int {
	d := 0
	for _, tr := range f.Trees {
		d = max(d, tr.Root.Level())
	}
	return d
}

// Multiplicities returns κ_i for each feature: the number of branches
// thresholding on it across the whole forest (§4.1.1).
func (f *Forest) Multiplicities() []int {
	k := make([]int, f.NumFeatures)
	for _, tr := range f.Trees {
		addMultiplicities(tr.Root, k)
	}
	return k
}

func addMultiplicities(n *Node, k []int) {
	if n.Leaf {
		return
	}
	k[n.Feature]++
	addMultiplicities(n.Left, k)
	addMultiplicities(n.Right, k)
}

// MaxMultiplicity returns K, the maximum feature multiplicity — the only
// model statistic explicitly revealed to the data owner (§7.2.1).
func (f *Forest) MaxMultiplicity() int {
	m := 0
	for _, k := range f.Multiplicities() {
		m = max(m, k)
	}
	return m
}

// QuantizedBranching returns q = K · NumFeatures: the branching if every
// feature had maximum multiplicity (§4.1.1).
func (f *Forest) QuantizedBranching() int {
	return f.MaxMultiplicity() * f.NumFeatures
}

// ClassifyTree evaluates one tree on a quantized feature vector,
// returning the chosen label index.
func ClassifyTree(tr *Tree, features []uint64) int {
	n := tr.Root
	for !n.Leaf {
		if features[n.Feature] > n.Threshold {
			n = n.Right
		} else {
			n = n.Left
		}
	}
	return n.Label
}

// Classify evaluates every tree, returning the per-tree label indices —
// the same information COPSE's N-hot result bitvector carries (§4.1.2).
func (f *Forest) Classify(features []uint64) []int {
	out := make([]int, len(f.Trees))
	for i, tr := range f.Trees {
		out[i] = ClassifyTree(tr, features)
	}
	return out
}

// Plurality returns the label index chosen by the most trees (ties break
// toward the lower index), the conventional forest combining function.
func Plurality(votes []int, numLabels int) int {
	counts := make([]int, numLabels)
	for _, v := range votes {
		if v >= 0 && v < numLabels {
			counts[v]++
		}
	}
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}

// Walk visits every node of the forest in preorder (paper §4.1.1: branch
// enumeration continues across trees), calling visit with the tree index
// and node.
func (f *Forest) Walk(visit func(tree int, n *Node)) {
	for ti, tr := range f.Trees {
		var rec func(n *Node)
		rec = func(n *Node) {
			visit(ti, n)
			if !n.Leaf {
				rec(n.Left)
				rec(n.Right)
			}
		}
		rec(tr.Root)
	}
}
