// Package seccomp implements the packed secure comparison primitive
// (Aloufi et al.'s SecComp, paper §4.1.2): given two vectors of p-bit
// values in bit-transposed form, it computes the slot-wise boolean
// [x > y] as a single vectorized circuit — the paper's Step 1, whose
// cost is independent of the number of decision nodes.
//
// The circuit over MSB-first bit planes is
//
//	gt = Σ_i  x_i · (1 − y_i) · Π_{j<i} eq_j,    eq_j = ¬(x_j ⊕ y_j)
//
// with the prefix products computed by a Sklansky parallel-prefix tree,
// so the multiplicative depth is O(log p) and the multiplication count
// O(p log p), matching the shape of the paper's Table 1a.
package seccomp

import (
	"fmt"

	"copse/internal/he"
)

// CompareGT returns the slot-wise [x > y] for values presented as
// MSB-first bit planes. Either side may be plaintext; when one side is
// plaintext, the per-bit equality and greater-than terms cost no
// ciphertext multiplications (they are affine), and only the prefix
// products consume depth.
func CompareGT(b he.Backend, xBits, yBits []he.Operand) (he.Operand, error) {
	p := len(xBits)
	if p == 0 || p != len(yBits) {
		return he.Operand{}, fmt.Errorf("seccomp: mismatched bit-plane counts %d vs %d", p, len(yBits))
	}

	// eq_j = ¬(x_j ⊕ y_j); gt_j = x_j · (1 − y_j).
	eqs := make([]he.Operand, p)
	gts := make([]he.Operand, p)
	for j := 0; j < p; j++ {
		x, err := he.Xor(b, xBits[j], yBits[j])
		if err != nil {
			return he.Operand{}, err
		}
		eqs[j], err = he.Not(b, x)
		if err != nil {
			return he.Operand{}, err
		}
		notY, err := he.Not(b, yBits[j])
		if err != nil {
			return he.Operand{}, err
		}
		gts[j], err = he.Mul(b, xBits[j], notY)
		if err != nil {
			return he.Operand{}, err
		}
	}

	// pre_j = Π_{k<j} eq_k (exclusive prefix products, log depth).
	inclusive, err := prefixProducts(b, eqs)
	if err != nil {
		return he.Operand{}, err
	}
	ones := make([]uint64, b.Slots())
	for i := range ones {
		ones[i] = 1
	}
	onesOp, err := he.NewPlain(b, ones)
	if err != nil {
		return he.Operand{}, err
	}

	// gt = Σ_j gt_j · pre_j. At most one term per slot is 1 (the first
	// differing bit), so the plain sum stays in {0,1}.
	var acc he.Operand
	for j := 0; j < p; j++ {
		pre := onesOp
		if j > 0 {
			pre = inclusive[j-1]
		}
		term, err := he.Mul(b, gts[j], pre)
		if err != nil {
			return he.Operand{}, err
		}
		if j == 0 {
			acc = term
			continue
		}
		acc, err = he.Add(b, acc, term)
		if err != nil {
			return he.Operand{}, err
		}
	}
	return acc, nil
}

// prefixProducts returns the inclusive prefix products out[i] = Π_{j≤i}
// ops[j] using the Sklansky construction: ceil(log2 n) multiplicative
// depth and at most (n/2)·log2 n multiplications.
func prefixProducts(b he.Backend, ops []he.Operand) ([]he.Operand, error) {
	n := len(ops)
	out := make([]he.Operand, n)
	copy(out, ops)
	for span := 1; span < n; span <<= 1 {
		// Sklansky: blocks of 2·span; every element in the upper half of
		// a block multiplies by the top of the lower half.
		for blockStart := 0; blockStart < n; blockStart += 2 * span {
			pivot := blockStart + span - 1
			if pivot >= n {
				break
			}
			for i := pivot + 1; i <= pivot+span && i < n; i++ {
				prod, err := he.Mul(b, out[i], out[pivot])
				if err != nil {
					return nil, err
				}
				out[i] = prod
			}
		}
	}
	return out, nil
}
