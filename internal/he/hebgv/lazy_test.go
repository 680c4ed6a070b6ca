package hebgv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
)

// matVec is one BSGS mat-vec, or several sharing one hoist of baby
// rotations, staged on a backend: the vector x and, per matrix and giant
// group, the factor of each baby term (nil where the diagonal is skipped).
type matVec struct {
	x      he.Operand
	babies int
	mats   [][][]he.Operand // [matrix][giant][baby]
}

// eval evaluates Σ_g rot(Σ_j f[g][j] ⊗ rot(x, j), g·babies) for every
// matrix as the op program lowers it: hoisted babies, each group one
// MulDiagSum (relinearized when the factors are encrypted), its giant
// rotation, the groups added in index order. Eager, every rotation is
// finished; lazy, the giant rotations are left unfinished and each
// matrix's sum is finished once. The intermediates are released as they
// are summed.
func (mv *matVec) eval(b he.Backend, lazy bool) ([]he.Operand, error) {
	steps := make([]int, mv.babies-1)
	for j := range steps {
		steps[j] = j + 1
	}
	rotate := he.Rotate
	if lazy {
		rotate = he.RotateLazy
	}
	hoisted, err := he.RotateHoisted(b, mv.x, steps)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, r := range hoisted {
			he.Release(r.Ct)
		}
	}()
	rots := append([]he.Operand{mv.x}, hoisted...)
	outs := make([]he.Operand, len(mv.mats))
	for m, groups := range mv.mats {
		var acc he.Operand
		for g, fs := range groups {
			var terms []he.Term
			for j, f := range fs {
				if f.Ct != nil || f.Pt != nil {
					terms = append(terms, he.Term{Factor: f, X: rots[j]})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sum, err := he.MulDiagSum(b, terms)
			if err != nil {
				return nil, err
			}
			if terms[0].Factor.IsCipher() {
				sum, err = replace(sum, func(x he.Operand) (he.Operand, error) { return he.Relinearize(b, x) })
				if err != nil {
					return nil, err
				}
			}
			if g > 0 {
				if sum, err = replace(sum, func(x he.Operand) (he.Operand, error) { return rotate(b, x, g*mv.babies) }); err != nil {
					return nil, err
				}
			}
			if acc.Ct == nil {
				acc = sum
				continue
			}
			next, err := he.Add(b, acc, sum)
			he.Release(acc.Ct)
			he.Release(sum.Ct)
			if err != nil {
				return nil, err
			}
			acc = next
		}
		if acc, err = replace(acc, func(x he.Operand) (he.Operand, error) { return he.Finish(b, x) }); err != nil {
			return nil, err
		}
		outs[m] = acc
	}
	return outs, nil
}

// replace returns op(x), releasing x unless op passed it through.
func replace(x he.Operand, op func(he.Operand) (he.Operand, error)) (he.Operand, error) {
	out, err := op(x)
	if out.Ct != x.Ct {
		he.Release(x.Ct)
	}
	return out, err
}

// matVecSteps are the rotation steps of every mat-vec shape the tests and
// the benchmark evaluate: babies 1..15 and the giant steps of each split.
func matVecSteps() []int {
	var steps []int
	for j := 1; j < 16; j++ {
		steps = append(steps, j)
	}
	for _, n := range []int{1, 2, 7, 8, 16} {
		for g := 1; g < 8; g++ {
			if !slices.Contains(steps, g*n) {
				steps = append(steps, g*n)
			}
		}
	}
	return steps
}

// stageMatVec stages random factors, encrypted or plaintext, for matrices
// of babies × len(giants[m]) groups, and an encrypted x, all at level. A
// group of giants[m] lists the babies it reads (nil: every one).
func stageMatVec(t testing.TB, b *Backend, rng *rand.Rand, babies int, giants [][][]int, enc bool, level int) (*matVec, []uint64, [][][][]uint64) {
	t.Helper()
	random := func() []uint64 {
		vals := make([]uint64, b.Slots())
		for i := range vals {
			vals[i] = rng.Uint64N(b.PlainModulus())
		}
		return vals
	}
	xv := random()
	x, err := b.EncryptAtLevel(xv, level)
	if err != nil {
		t.Fatal(err)
	}
	mv := &matVec{x: he.Cipher(x), babies: babies}
	vals := make([][][][]uint64, len(giants))
	for m, groups := range giants {
		fs := make([][]he.Operand, len(groups))
		vals[m] = make([][][]uint64, len(groups))
		for g, reads := range groups {
			fs[g] = make([]he.Operand, babies)
			vals[m][g] = make([][]uint64, babies)
			for j := range babies {
				if reads != nil && !slices.Contains(reads, j) {
					continue
				}
				v := random()
				f, err := stageOne(b)(v, enc, level)
				if err != nil {
					t.Fatal(err)
				}
				fs[g][j], vals[m][g][j] = f, v
			}
		}
		mv.mats = append(mv.mats, fs)
	}
	return mv, xv, vals
}

// wantMatVec is the mat-vec of stageMatVec's values in the clear.
func wantMatVec(x []uint64, vals [][][]uint64, babies int, t uint64) []uint64 {
	n := len(x)
	out := make([]uint64, n)
	for g, fs := range vals {
		for j, d := range fs {
			if d == nil {
				continue
			}
			for i := range out {
				// rot(Σ d ⊙ rot(x, j), g·babies)[i] = d[i'] · x[i'+j], i' = i+g·babies.
				k := (i + g*babies) % n
				out[i] = (out[i] + d[k]*x[(k+j)%n]) % t
			}
		}
	}
	return out
}

// TestLazyRotationSumMatchesChain evaluates BSGS mat-vecs of 1, 2, 7, 8
// and 16 babies × 1 to 8 giant groups, against plaintext and encrypted
// factors, on the scalar kernels and on the host's tier, twice: as the
// chain of finished rotations, and double-hoisted — the giant rotations
// unfinished over Q·P and their sum finished once. Both must decrypt to
// the mat-vec of the values. The double-hoisted sum rounds once where the
// chain rounds once per giant rotation, so its noise differs from the
// chain's by the G − 1 skipped roundings, each below t in every
// coefficient: summed over every cell its measured noise budget is no
// lower than the chain's, and in no cell is it lower by more than the one
// bit a largest coefficient near a power of two can move by either way.
// Every result is drawn from pool rows left dirty.
func TestLazyRotationSumMatchesChain(t *testing.T) {
	b := newBackend(t, 7, matVecSteps())
	const level = 5
	var total [2]int
	for _, enc := range []bool{false, true} {
		for _, babies := range []int{1, 2, 7, 8, 16} {
			rng := rand.New(rand.NewPCG(48, uint64(babies)))
			mv, x, vals := stageMatVec(t, b, rng, babies, [][][]int{make([][]int, 8)}, enc, level)
			for giants := 1; giants <= 8; giants++ {
				want := wantMatVec(x, vals[0][:giants], babies, b.PlainModulus())
				sub := *mv
				sub.mats = [][][]he.Operand{mv.mats[0][:giants]}
				for _, vec := range []bool{false, true} {
					t.Run(fmt.Sprintf("enc=%v/babies=%d/giants=%d/vector=%v", enc, babies, giants, vec), func(t *testing.T) {
						b.params.RingCtx.SetVectorKernels(vec)
						defer b.params.RingCtx.SetVectorKernels(true)
						var budget [2]int
						for i, lazy := range []bool{false, true} {
							dirtyPool(b)
							outs, err := sub.eval(b, lazy)
							if err != nil {
								t.Fatalf("lazy=%v: %v", lazy, err)
							}
							got, err := b.Decrypt(outs[0].Ct)
							if err != nil {
								t.Fatalf("lazy=%v: %v", lazy, err)
							}
							if !slices.Equal(got, want) {
								t.Fatalf("lazy=%v: the mat-vec decrypts to other slots than the values'", lazy)
							}
							if budget[i], err = b.NoiseBudget(outs[0].Ct); err != nil {
								t.Fatal(err)
							}
							he.Release(outs[0].Ct)
						}
						t.Logf("noise budget: chain %d bits, double-hoisted %d", budget[0], budget[1])
						if budget[1] < budget[0]-1 {
							t.Errorf("double-hoisted sum keeps %d bits of noise budget, the chain %d", budget[1], budget[0])
						}
						total[0], total[1] = total[0]+budget[0], total[1]+budget[1]
					})
				}
			}
		}
	}
	if total[1] < total[0] {
		t.Errorf("double-hoisted sums keep %d bits of noise budget in all, the chain %d", total[1], total[0])
	}
}

// TestUnfinishedRotationRefused: an unfinished rotation stands for P
// times its value over Q_ℓ·P, so every op that reads it as a ciphertext
// over Q_ℓ — a product, a diagonal sum, a plaintext product, a rotation, a
// level drop, a decryption, the wire export — refuses it, and the two ops
// that take one, Add and Relinearize, sum and finish it to the slots of
// the rotation.
func TestUnfinishedRotationRefused(t *testing.T) {
	b := newBackend(t, 4, []int{1})
	vals := make([]uint64, b.Slots())
	for i := range vals {
		vals[i] = uint64(i % 5)
	}
	x, err := b.EncryptAtLevel(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	u, err := b.RotateLazy(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := b.EncodePlain(vals)
	if err != nil {
		t.Fatal(err)
	}
	f, err := stageOne(b)(vals, false, 3)
	if err != nil {
		t.Fatal(err)
	}
	for what, op := range map[string]func() error{
		"Mul":         func() error { _, err := b.Mul(x, u); return err },
		"MulDiagSum":  func() error { _, err := b.MulDiagSum([]he.Term{{Factor: f, X: he.Cipher(u)}}); return err },
		"Mul (first)": func() error { _, err := b.Mul(u, x); return err },
		"MulLazy":     func() error { _, err := b.MulLazy(u, x); return err },
		"MulPlain":    func() error { _, err := b.MulPlain(u, pt); return err },
		"AddPlain":    func() error { _, err := b.AddPlain(u, pt); return err },
		"Sub":         func() error { _, err := b.Sub(u, x); return err },
		"Rotate":      func() error { _, err := b.Rotate(u, 1); return err },
		"RotateLazy":  func() error { _, err := b.RotateLazy(u, 1); return err },
		"DropToLevel": func() error { _, err := b.DropToLevel(u, 1); return err },
		"Decrypt":     func() error { _, err := b.Decrypt(u); return err },
		"NoiseBudget": func() error { _, err := b.NoiseBudget(u); return err },
		"export":      func() error { _, _, err := b.ExportCiphertext(u); return err },
	} {
		if err := op(); !errors.Is(err, bgv.ErrUnfinished) {
			t.Errorf("%s of an unfinished rotation: %v, want it refused", what, err)
		}
	}
	// Add takes it, with a finished addend scaled by P, and Relinearize
	// finishes the sum: rot(x, 1) + x.
	sum, err := b.Add(x, u)
	if err != nil {
		t.Fatal(err)
	}
	done, err := b.Relinearize(sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Decrypt(done)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := (vals[(i+1)%len(vals)] + vals[i]) % b.PlainModulus(); got[i] != want {
			t.Fatalf("slot %d of rot(x, 1) + x finished: %d, want %d", i, got[i], want)
		}
	}
}

// BenchmarkMatVec times the two mat-vec shapes of the benchmark's wide8
// shards at N = 2048, each as the chain of finished rotations and double-
// hoisted (the giant rotations unfinished, their sum finished once),
// against plaintext and encrypted factors: the reshuffle's, 16 babies × 8
// giant groups at level 6, and the level stage's, 8 babies shared by 5
// matrices of 13 rotated groups at level 5. It is what the scheduler's
// lazy-rotation and finish costs (costRotLazy, costFinish) are read off.
func BenchmarkMatVec(b *testing.B) {
	levelStage := make([][][]int, 5)
	for m, rotated := range []int{3, 3, 3, 2, 2} {
		levelStage[m] = make([][]int, rotated+1)
	}
	for _, sc := range []struct {
		name          string
		babies, level int
		giants        [][][]int
	}{
		{"reshuffle", 16, 6, [][][]int{make([][]int, 8)}},
		{"levels", 8, 5, levelStage},
	} {
		for _, enc := range []bool{false, true} {
			bk, err := New(Config{Params: bgv.TestParams(7), Seed: 7})
			if err != nil {
				b.Fatal(err)
			}
			if err := bk.EnsureRotationKeys(rotationsAt(matVecSteps(), sc.level)); err != nil {
				b.Fatal(err)
			}
			mv, _, _ := stageMatVec(b, bk, rand.New(rand.NewPCG(48, 1)), sc.babies, sc.giants, enc, sc.level)
			kind := map[bool]string{false: "plain", true: "encrypted"}[enc]
			for _, lazy := range []bool{false, true} {
				name := map[bool]string{false: "chain", true: "double-hoisted"}[lazy]
				b.Run(fmt.Sprintf("%s/%s/%s", sc.name, kind, name), func(b *testing.B) {
					for range b.N {
						outs, err := mv.eval(bk, lazy)
						if err != nil {
							b.Fatal(err)
						}
						for _, o := range outs {
							he.Release(o.Ct)
						}
					}
				})
			}
		}
	}
}
