package hebgv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/ring"
)

// chainOnly is a backend as he's helpers see one without fused diagonal
// sums: he.MulDiagSum over it takes the MulLazy and Add chain.
type chainOnly struct{ he.Backend }

// sumCase is one shape of diagonal sum: which sides are encrypted, the
// level of the terms' x operands, and the level the factors are staged at.
type sumCase struct {
	encFactor, encX bool
	level, staged   int
}

func (c sumCase) String() string {
	kind := map[[2]bool]string{{false, true}: "plain×ct", {true, true}: "ct×ct", {true, false}: "ct×plain"}[[2]bool{c.encFactor, c.encX}]
	return fmt.Sprintf("%s/level%d/staged%d", kind, c.level, c.staged)
}

// sumCases covers the three operand kinds a pass multiplies, with the
// factors staged at the sum's level and above it. A plaintext x has no
// level: the sum runs at the factors'.
var sumCases = []sumCase{
	{false, true, 4, 4}, {false, true, 3, 5},
	{true, true, 4, 4}, {true, true, 3, 5},
	{true, false, 4, 4},
}

// sumTerms stages n random terms of case c on b — each factor through
// stage, then its x — drawing values from rng, and returns them with the
// operands as the chain reads them: x at the sum's level and each
// encrypted factor truncated to it (the chain refuses operands at
// different levels; a factor staged above the sum contributes only its
// low rows).
func sumTerms(t testing.TB, b *Backend, rng *rand.Rand, c sumCase, n int, stage func(vals []uint64, encrypt bool, level int) (he.Operand, error)) []he.Term {
	t.Helper()
	random := func() []uint64 {
		vals := make([]uint64, b.Slots())
		for i := range vals {
			vals[i] = rng.Uint64N(b.PlainModulus())
		}
		return vals
	}
	terms := make([]he.Term, n)
	for k := range terms {
		f, err := stage(random(), c.encFactor, c.staged)
		if err != nil {
			t.Fatal(err)
		}
		x, err := he.NewOperandAtLevel(b, random(), c.encX, c.level)
		if err != nil {
			t.Fatal(err)
		}
		terms[k] = he.Term{Factor: f, X: x}
	}
	return terms
}

// truncated is ct's first level+1 rows, as a ciphertext of b.
func truncated(b *Backend, op he.Operand, level int) he.Operand {
	c := op.Ct.(*ciphertext).ct
	out := &bgv.Ciphertext{}
	for _, p := range c.C {
		out.C = append(out.C, &ring.Poly{Coeffs: p.Coeffs[:level+1], IsNTT: p.IsNTT})
	}
	return he.Cipher(b.wrap(out, 0))
}

// dirtyPool fills rows of b's pool with ones and gives them back: a pool
// row holds whatever it last held, so a sum that adds into rows it did not
// clear reads garbage.
func dirtyPool(b *Backend) {
	ctx := b.params.RingCtx
	var ps []*ring.Poly
	for range 8 {
		p := ctx.GetPoly(ctx.MaxLevel())
		for _, row := range p.Coeffs {
			for j := range row {
				row[j] = 1
			}
		}
		ps = append(ps, p)
	}
	ctx.PutPolys(ps)
}

// TestMulDiagSumMatchesChain holds the fused diagonal sum to the chain
// it replaces byte for byte — MulLazy of each factor and x, then Add in
// term order — at 1, 7, 8, 9, 16 and 17 terms, which crosses the inner
// product's reduction group of 8 (montGroup) both ways, for plaintext
// factors against ciphertexts, ciphertexts against ciphertexts and
// ciphertexts against plaintexts, with the factors staged at the sum's
// level and above it, on the scalar kernels and on the host's tier. Two
// backends of one seed stage the same values in the same order, so they
// hold the same keys and ciphertexts, one in Montgomery form (factors)
// and one in normal form (operands); the op counters move alike too. The
// sums draw their results from pool rows left dirty.
func TestMulDiagSumMatchesChain(t *testing.T) {
	for _, vec := range []bool{false, true} {
		for _, c := range sumCases {
			for _, n := range []int{1, 7, 8, 9, 16, 17} {
				t.Run(fmt.Sprintf("vector=%v/%v/%d", vec, c, n), func(t *testing.T) {
					chain, fused := newBackend(t, 6, nil), newBackend(t, 6, nil)
					for _, b := range []*Backend{chain, fused} {
						b.params.RingCtx.SetVectorKernels(vec)
						defer b.params.RingCtx.SetVectorKernels(true)
					}
					ct := sumTerms(t, chain, rand.New(rand.NewPCG(47, uint64(n))), c, n, func(vals []uint64, encrypt bool, level int) (he.Operand, error) {
						return he.NewOperandAtLevel(chain, vals, encrypt, level)
					})
					ft := sumTerms(t, fused, rand.New(rand.NewPCG(47, uint64(n))), c, n, stageOne(fused))
					for k := range ct {
						if c.encFactor && c.encX && c.staged > c.level {
							ct[k].Factor = truncated(chain, ct[k].Factor, c.level)
						}
					}
					dirtyPool(chain)
					dirtyPool(fused)
					chain.ResetCounts()
					fused.ResetCounts()
					want, err := he.MulDiagSum(chainOnly{chain}, ct)
					if err != nil {
						t.Fatal(err)
					}
					got, err := he.MulDiagSum(fused, ft)
					if err != nil {
						t.Fatal(err)
					}
					w, _, err := chain.ExportCiphertext(want.Ct)
					if err != nil {
						t.Fatal(err)
					}
					g, _, err := fused.ExportCiphertext(got.Ct)
					if err != nil {
						t.Fatal(err)
					}
					if len(g.C) != len(w.C) {
						t.Fatalf("fused sum of degree %d, the chain's %d", g.Degree(), w.Degree())
					}
					for i := range w.C {
						if !slices.EqualFunc(g.C[i].Coeffs, w.C[i].Coeffs, slices.Equal) {
							t.Fatalf("component %d of the fused sum differs from the chain's", i)
						}
					}
					if got, want := fused.Counts(), chain.Counts(); got != want {
						t.Errorf("the fused sum counted %v, the chain %v", got, want)
					}
					if got.Ct.Depth() != want.Ct.Depth() {
						t.Errorf("the fused sum is at depth %d, the chain at %d", got.Ct.Depth(), want.Ct.Depth())
					}
				})
			}
		}
	}
}

// TestFactorRefusedOutsideSum: a staged factor is in Montgomery form, so
// every op other than MulDiagSum refuses it instead of computing with its
// residues as ordinary ones — a product, an addition, a plaintext product
// and a decryption alike, on either side — and a sum refuses operands it
// cannot have been staged for.
func TestFactorRefusedOutsideSum(t *testing.T) {
	b := newBackend(t, 3, nil)
	vals := make([]uint64, b.Slots())
	vals[0] = 1
	encF, err := stageOne(b)(vals, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	plainF, err := stageOne(b)(vals, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := b.EncryptAtLevel(vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	for what, op := range map[string]func() (he.Ciphertext, error){
		"MulLazy":              func() (he.Ciphertext, error) { return b.MulLazy(encF.Ct, x) },
		"MulLazy (second)":     func() (he.Ciphertext, error) { return b.MulLazy(x, encF.Ct) },
		"Add":                  func() (he.Ciphertext, error) { return b.Add(x, encF.Ct) },
		"MulPlain":             func() (he.Ciphertext, error) { return b.MulPlain(x, plainF.Pt) },
		"MulPlain (encrypted)": func() (he.Ciphertext, error) { return b.MulPlain(encF.Ct, plainF.Pt) },
		"AddPlain":             func() (he.Ciphertext, error) { return b.AddPlain(x, plainF.Pt) },
		"Rotate":               func() (he.Ciphertext, error) { return b.Rotate(encF.Ct, 1) },
	} {
		if _, err := op(); !errors.Is(err, errFactor) {
			t.Errorf("%s of a factor: %v, want the factor refused", what, err)
		}
	}
	if _, err := b.Decrypt(encF.Ct); !errors.Is(err, errFactor) {
		t.Errorf("Decrypt of a factor: %v, want the factor refused", err)
	}
	// A plaintext factor keeps no values to reveal.
	if vals, err := he.Reveal(b, plainF); err == nil {
		t.Errorf("Reveal of a plaintext factor: %v, want it refused", vals)
	}
	// A sum whose factor side is an ordinary operand is refused too.
	if _, err := b.MulDiagSum([]he.Term{{Factor: he.Cipher(x), X: he.Cipher(x)}}); !errors.Is(err, errNotFactor) {
		t.Errorf("MulDiagSum of an unstaged factor: %v, want it refused", err)
	}
	// So is a sum with no encrypted side, which no mat-vec makes.
	pt, err := he.NewPlain(b, vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.MulDiagSum([]he.Term{{Factor: plainF, X: pt}}); !errors.Is(err, errPlainSum) {
		t.Errorf("MulDiagSum of plaintexts only: %v, want it refused", err)
	}
}

// BenchmarkDiagSum compares the chain with the fused sum at the top of
// the 12-prime test chain's lower half (N = 2048): 16 terms at level 6
// and 8 at level 5 — the largest and the typical giant step — against
// plaintext and encrypted diagonals. It is what the scheduler's per-term
// costs (costDiagTerm, costDiagTensorTerm) are read off.
func BenchmarkDiagSum(b *testing.B) {
	for _, sc := range []struct{ n, level int }{{16, 6}, {8, 5}} {
		for _, enc := range []bool{false, true} {
			c := sumCase{encFactor: enc, encX: true, level: sc.level, staged: sc.level}
			bk, err := New(Config{Params: bgv.TestParams(11), Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(47, 1))
			chainTerms := sumTerms(b, bk, rng, c, sc.n, func(vals []uint64, encrypt bool, level int) (he.Operand, error) {
				return he.NewOperandAtLevel(bk, vals, encrypt, level)
			})
			fusedTerms := sumTerms(b, bk, rng, c, sc.n, stageOne(bk))
			for _, run := range []struct {
				name  string
				be    he.Backend
				terms []he.Term
			}{{"chain", chainOnly{bk}, chainTerms}, {"fused", bk, fusedTerms}} {
				b.Run(fmt.Sprintf("%s/%v/%d", run.name, c, sc.n), func(b *testing.B) {
					for range b.N {
						out, err := he.MulDiagSum(run.be, run.terms)
						if err != nil {
							b.Fatal(err)
						}
						he.Release(out.Ct)
					}
				})
			}
		}
	}
}

// stageOne stages one vector as a factor: StageFactorsAtLevel over a set
// of one.
func stageOne(b *Backend) func(vals []uint64, encrypt bool, level int) (he.Operand, error) {
	return func(vals []uint64, encrypt bool, level int) (he.Operand, error) {
		ops, err := b.StageFactorsAtLevel([][]uint64{vals}, encrypt, level)
		if err != nil {
			return he.Operand{}, err
		}
		return ops[0], nil
	}
}
