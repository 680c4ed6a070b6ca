package bgv

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// TestMisalignedOpsRefused: a binary op on ciphertexts at different
// levels is refused with a *LevelMismatchError naming both levels, in
// either operand order; the evaluator switches neither operand down.
func TestMisalignedOpsRefused(t *testing.T) {
	kit := newTestKit(t, 4, nil)
	r := rand.New(rand.NewPCG(31, 1))
	pt, err := kit.enc.Encode(randVec(r, kit.params.Slots(), kit.params.T))
	if err != nil {
		t.Fatal(err)
	}
	hi, lo := kit.encr.EncryptAtLevel(pt, 3), kit.encr.EncryptAtLevel(pt, 2)
	ops := map[string]func(a, b *Ciphertext) (*Ciphertext, error){
		"Add":        kit.eval.Add,
		"Sub":        kit.eval.Sub,
		"Mul":        kit.eval.Mul,
		"MulNoRelin": kit.eval.MulNoRelin,
	}
	for name, op := range ops {
		for _, pair := range [][2]*Ciphertext{{hi, lo}, {lo, hi}} {
			out, err := op(pair[0], pair[1])
			var mismatch *LevelMismatchError
			if !errors.As(err, &mismatch) || out != nil {
				t.Fatalf("%s at levels %d and %d: %v, %v; want a *LevelMismatchError", name, pair[0].Level(), pair[1].Level(), out, err)
			}
			if mismatch.A != pair[0].Level() || mismatch.B != pair[1].Level() {
				t.Errorf("%s: refusal names levels %d and %d, operands sit at %d and %d", name, mismatch.A, mismatch.B, pair[0].Level(), pair[1].Level())
			}
		}
		if hi.Level() != 3 || lo.Level() != 2 {
			t.Fatalf("%s moved an operand: levels %d and %d", name, hi.Level(), lo.Level())
		}
	}
	// Aligned by an explicit drop, the same ops run.
	if err := kit.eval.DropToLevel(hi, lo.Level()); err != nil {
		t.Fatal(err)
	}
	for name, op := range ops {
		if _, err := op(hi, lo); err != nil {
			t.Errorf("%s after the drop: %v", name, err)
		}
	}
}

// TestDecryptRefusesOverflow: plaintext products at the bottom of the
// chain grow the noise ~23 bits each until it passes the one prime left;
// decryption measures the phase and refuses the overflowed ciphertext with
// a *NoiseOverflowError instead of returning wrong slots, while every
// product it does decrypt is exact.
func TestDecryptRefusesOverflow(t *testing.T) {
	kit := newTestKit(t, 3, nil)
	r := rand.New(rand.NewPCG(31, 2))
	vals := randVec(r, kit.params.Slots(), kit.params.T)
	pt, err := kit.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	ct := kit.encr.EncryptAtLevel(pt, 0)
	want := vals
	for i := 0; i < 8; i++ {
		if ct, err = kit.eval.MulPlain(ct, pt); err != nil {
			t.Fatal(err)
		}
		next := make([]uint64, len(want))
		for j := range want {
			next[j] = want[j] * vals[j] % kit.params.T
		}
		want = next
		got, err := kit.dec.Decrypt(ct)
		var overflow *NoiseOverflowError
		if errors.As(err, &overflow) {
			if overflow.Level != 0 || overflow.Budget > 0 {
				t.Errorf("product %d: refusal %+v, want level 0 and a budget ≤ 0", i+1, overflow)
			}
			if budget := kit.dec.NoiseBudget(ct); budget != overflow.Budget {
				t.Errorf("product %d: refusal budget %d, NoiseBudget %d", i+1, overflow.Budget, budget)
			}
			t.Logf("refused after %d plaintext products: %v", i+1, err)
			return
		}
		if err != nil {
			t.Fatalf("product %d: %v", i+1, err)
		}
		for j, v := range kit.enc.Decode(got) {
			if v != want[j] {
				t.Fatalf("product %d decrypted with a %d-bit budget to a wrong slot %d", i+1, kit.dec.NoiseBudget(ct), j)
			}
		}
	}
	t.Fatal("eight plaintext products at level 0 still decrypt: no overflow to refuse")
}
