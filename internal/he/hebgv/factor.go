package hebgv

import (
	"fmt"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/ring"
)

// The mat-vec factors (he.FactorSummer). A diagonal the program
// multiplies in every pass is staged once in Montgomery form, the fixed
// operand form of ring.Context.DotMontgomeryAdd, in place of the form the
// generic ops read: a plaintext diagonal as its Montgomery lift, which it
// holds instead of a lift, and an encrypted one as a ciphertext whose two
// halves were converted in place right after encryption. Neither holds
// more bytes than the operand it replaces. A factor is its own type, so
// any op other than MulDiagSum refuses it (errFactor) instead of reading
// Montgomery residues as ordinary ones.

// plainFactor is a staged plaintext diagonal: its NTT-domain lift at the
// staged level, in Montgomery form.
type plainFactor struct{ lift *ring.Poly }

// cipherFactor is a staged encrypted diagonal, both halves in Montgomery
// form. It is never released: the model it belongs to holds it.
type cipherFactor struct{ ct *bgv.Ciphertext }

func (*cipherFactor) Depth() int { return 0 }

var (
	// errFactor refuses a factor passed to an op other than MulDiagSum.
	errFactor = fmt.Errorf("hebgv: a staged mat-vec factor is an operand of MulDiagSum only")
	// errMixedSum refuses a diagonal sum whose terms are not all of the
	// first one's kinds: a mat-vec's diagonals are staged alike, and the
	// rotations of one vector are alike.
	errMixedSum = fmt.Errorf("hebgv: a diagonal sum mixes operand kinds")
	// errPlainSum refuses a diagonal sum with no encrypted side.
	errPlainSum = fmt.Errorf("hebgv: a diagonal sum of plaintext factors and plaintexts")
	// errNotFactor refuses a diagonal sum whose factor side was not staged
	// by StageFactorsAtLevel.
	errNotFactor = fmt.Errorf("hebgv: a diagonal sum factor that is not a staged factor")
)

// StageFactorsAtLevel implements he.FactorSummer: every vector of set
// staged at level (the chain top when negative or above it), one task
// per vector on every core, as an encrypted factor — encrypted as
// EncryptSetAtLevel encrypts the set, from seeds reserved in the set's
// order, and converted by the task that encrypted it — or as a plaintext
// one, which keeps no values: no BGV pass reads them, so they cannot be
// revealed.
func (b *Backend) StageFactorsAtLevel(set [][]uint64, encrypt bool, level int) ([]he.Operand, error) {
	if level < 0 || level > b.params.MaxLevel() {
		level = b.params.MaxLevel()
	}
	ctx := b.params.RingCtx
	ops := make([]he.Operand, len(set))
	var err error
	if encrypt {
		err = b.encryptSet(set, level, func(i int, ct *bgv.Ciphertext) {
			for _, p := range ct.C {
				ctx.MontgomeryForm(p, p)
			}
			ops[i] = he.Cipher(&cipherFactor{ct})
		})
	} else {
		err = b.encodeEach(set, func(i int, pt *bgv.Plaintext) {
			ops[i] = he.Operand{Pt: &plainFactor{pt.MontgomeryLift(ctx, level)}}
		})
	}
	if err != nil {
		return nil, err
	}
	return ops, nil
}

// MulDiagSum implements he.FactorSummer: the terms' products summed in
// one sweep of the Montgomery inner product, counted as the MulLazy and
// Add chain it replaces — n products and n − 1 additions, each of the
// result's limbs — and bit-identical to it. Against ciphertexts x_k at
// one level, plaintext factors make one pass (d = the lifts, b and a the
// halves of x_k) and encrypted factors the degree-2 sum in two
// (Evaluator.TensorSum); encrypted factors against plaintexts make one
// pass with d = the plaintexts' lifts. A sum with no encrypted side is
// refused: no mat-vec has one.
func (b *Backend) MulDiagSum(terms []he.Term) (he.Operand, error) {
	if len(terms) == 0 {
		return he.Operand{}, fmt.Errorf("hebgv: a diagonal sum of no terms")
	}
	encFactor, encX := terms[0].Factor.IsCipher(), terms[0].X.IsCipher()
	for _, t := range terms {
		if t.Factor.IsCipher() != encFactor || t.X.IsCipher() != encX {
			return he.Operand{}, errMixedSum
		}
	}
	if !encFactor && !encX {
		// No mat-vec has both a plaintext model and a plaintext query.
		return he.Operand{}, errPlainSum
	}
	n := len(terms)
	var out *bgv.Ciphertext
	depth := 0
	if encFactor && encX {
		xs, es := make([]*bgv.Ciphertext, n), make([]*bgv.Ciphertext, n)
		for k, t := range terms {
			x, err := b.cast(t.X.Ct)
			if err != nil {
				return he.Operand{}, err
			}
			f, ok := t.Factor.Ct.(*cipherFactor)
			if !ok {
				return he.Operand{}, errNotFactor
			}
			xs[k], es[k], depth = x.ct, f.ct, max(depth, x.depth+1)
		}
		var err error
		if out, err = b.evaluator.TensorSum(xs, es); err != nil {
			return he.Operand{}, err
		}
	} else {
		// One pass of the inner product: d the plaintext side, u and v the
		// halves of the ciphertext side, one of each pair in Montgomery form.
		d, u, v := make([]*ring.Poly, n), make([]*ring.Poly, n), make([]*ring.Poly, n)
		level := -1
		for k, t := range terms {
			var ct *bgv.Ciphertext
			if encX { // plaintext factors
				f, ok := t.Factor.Pt.(*plainFactor)
				if !ok {
					return he.Operand{}, errNotFactor
				}
				x, err := b.cast(t.X.Ct)
				if err != nil {
					return he.Operand{}, err
				}
				ct, d[k], depth = x.ct, f.lift, max(depth, x.depth)
			} else { // encrypted factors
				f, ok := t.Factor.Ct.(*cipherFactor)
				if !ok {
					return he.Operand{}, errNotFactor
				}
				ct = f.ct
			}
			if level < 0 {
				level = ct.Level()
			}
			if ct.Level() != level || ct.Degree() != 1 {
				return he.Operand{}, fmt.Errorf("hebgv: diagonal sum term %d: a degree-%d ciphertext at level %d in a sum at level %d", k, ct.Degree(), ct.Level(), level)
			}
			if !encX {
				pt, err := b.castPlain(t.X.Pt)
				if err != nil {
					return he.Operand{}, err
				}
				d[k] = pt.Lift(b.params.RingCtx, level)
			}
			if d[k].Level() < level {
				return he.Operand{}, &bgv.LevelMismatchError{A: d[k].Level(), B: level}
			}
			u[k], v[k] = ct.C[0], ct.C[1]
		}
		ctx := b.params.RingCtx
		out = &bgv.Ciphertext{C: []*ring.Poly{ctx.GetPolyZero(level), ctx.GetPolyZero(level)}}
		ctx.DotMontgomeryAdd(d, u, v, out.C[0], out.C[1])
	}
	limbs := out.Level() + 1
	for range n {
		if encFactor && encX {
			b.CountMul()
		} else {
			b.CountConstMul()
		}
		b.CountLimbs(limbs)
	}
	for range n - 1 {
		b.CountAdd()
		b.CountLimbs(limbs)
	}
	if encFactor && encX {
		b.NoteDepth(depth)
	}
	return he.Cipher(b.wrap(out, depth)), nil
}
