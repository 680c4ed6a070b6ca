package matrix_test

import (
	"math/rand/v2"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/matrix"
)

// homMatVec evaluates M·x over d's staged operands with the backend's
// own ops, one fused diagonal sum (he.MulDiagSum) per giant step,
// multiplying every diagonal — the zero ones included, as the result
// shuffle does:
//
//	M·x = Σ_g rot(Σ_j d_{g·Baby+j} ⊙ rot(x, j), g·Baby).
func homMatVec(t *testing.T, b he.Backend, d *matrix.Diagonals, x he.Operand) he.Operand {
	t.Helper()
	must := func(op he.Operand, err error) he.Operand {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	rots := make([]he.Operand, d.Baby)
	rots[0] = x
	for j := 1; j < d.Baby; j++ {
		rots[j] = must(he.Rotate(b, x, j))
	}
	var out he.Operand
	for g := 0; g < d.Giant; g++ {
		terms := make([]he.Term, d.Baby)
		for j := range terms {
			terms[j] = he.Term{Factor: d.Ops[g*d.Baby+j], X: rots[j]}
		}
		inner := must(he.Relinearize(b, must(he.MulDiagSum(b, terms))))
		if g == 0 {
			out = inner
			continue
		}
		out = must(he.Add(b, out, must(he.Rotate(b, inner, g*d.Baby))))
	}
	return out
}

// TestZeroDiagonalsShareOneOperand: staged in plaintext, the all-zero
// diagonals of a block-diagonal matrix are one operand — the same
// encoding, lifted once — while every other diagonal is its own, and the
// product over all of them still equals Bool.MulVec block by block, on the
// clear backend and on BGV. Staged encrypted, no two diagonals share a
// ciphertext: the zero pattern an encrypted model hides would show in
// which operands are the same.
func TestZeroDiagonalsShareOneOperand(t *testing.T) {
	const period, rows, span = 8, 8, 16
	r := rand.New(rand.NewPCG(41, 1))
	// Each block matrix sets entries on diagonals 0, 3 and 5 only, so
	// diagonals 1, 2, 4, 6 and 7 are zero in every block.
	pattern := func() *matrix.Bool {
		m := matrix.NewBool(rows, period)
		for row := 0; row < rows; row++ {
			for _, i := range []int{0, 3, 5} {
				m.Set(row, (row+i)%period, uint64(r.IntN(2)))
			}
		}
		m.Set(0, 0, 1)
		m.Set(0, 3, 1)
		m.Set(0, 5, 1)
		return m
	}
	bgvBackend, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(2), Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		b    he.Backend
	}{{"clear", heclear.New(1024, 65537)}, {"bgv", bgvBackend}} {
		b := tc.b
		slots := b.Slots()
		distinct := []*matrix.Bool{pattern(), pattern(), pattern()}
		mats, vecs := make([]*matrix.Bool, slots/span), make([][]uint64, slots/span)
		packed := make([]uint64, slots)
		for k := range mats {
			mats[k] = distinct[k%len(distinct)]
			vecs[k] = make([]uint64, period)
			for i := range vecs[k] {
				vecs[k][i] = uint64(r.IntN(2))
			}
			for off := 0; off < span; off += period {
				copy(packed[k*span+off:], vecs[k])
			}
		}
		var rots []he.Rotation
		for step := 1; step < period; step++ {
			rots = append(rots, he.Rotation{Step: step, Level: b.MaxLevel()})
		}
		if err := he.EnsureRotationKeys(b, rots); err != nil {
			t.Fatal(err)
		}
		for _, encrypt := range []bool{false, true} {
			d, err := matrix.PrepareDiagonalsAt(b, mats, nil, period, span, encrypt, -1)
			if err != nil {
				t.Fatal(err)
			}
			zeros := 0
			for i, z := range d.Zero {
				if want := i != 0 && i != 3 && i != 5; z != want {
					t.Fatalf("%s: diagonal %d recorded zero=%v", tc.name, i, z)
				}
				if z {
					zeros++
				}
			}
			var zero he.Plain
			seenPt, seenCt := map[he.Plain]int{}, map[he.Ciphertext]int{}
			for i, op := range d.Ops {
				if encrypt {
					if op.Ct == nil {
						t.Fatalf("%s: encrypted diagonal %d is not a ciphertext", tc.name, i)
					}
					if j, ok := seenCt[op.Ct]; ok {
						t.Errorf("%s: encrypted diagonals %d and %d share one ciphertext", tc.name, j, i)
					}
					seenCt[op.Ct] = i
					continue
				}
				if d.Zero[i] && zero == nil {
					zero = op.Pt
				}
				if d.Zero[i] {
					if op.Pt != zero {
						t.Errorf("%s: zero diagonal %d is staged on its own", tc.name, i)
					}
					continue
				}
				if j, ok := seenPt[op.Pt]; ok {
					t.Errorf("%s: nonzero diagonals %d and %d share one operand", tc.name, j, i)
				}
				if op.Pt == zero {
					t.Errorf("%s: nonzero diagonal %d is the zero operand", tc.name, i)
				}
				seenPt[op.Pt] = i
			}
			if !encrypt && (zeros == 0 || len(seenPt) != period-zeros) {
				t.Fatalf("%s: %d zero diagonals, %d distinct nonzero operands of %d", tc.name, zeros, len(seenPt), period)
			}
			ct, err := b.Encrypt(packed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := he.Reveal(b, homMatVec(t, b, d, he.Cipher(ct)))
			if err != nil {
				t.Fatal(err)
			}
			for k := range mats {
				want, err := mats[k].MulVec(vecs[k])
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[k*span+i] != want[i] {
						t.Fatalf("%s encrypt=%v: block %d row %d: got %d, want %d", tc.name, encrypt, k, i, got[k*span+i], want[i])
					}
				}
			}
		}
	}
}
