package bgv

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"copse/internal/ring"
)

// TestKeySwitchEveryLevel is the seeded property test of the hybrid key
// switch: at every level 0..L — a 7-prime chain, so levels 0, 1, 3, 4
// and 6 cut a three-prime digit group short — relinearization, Rotate
// and RotateHoisted decrypt to the plaintext product and rotations,
// hoisted equals unhoisted slot for slot, and the measured noise never
// exceeds the ciphertext's NoiseBits estimate.
func TestKeySwitchEveryLevel(t *testing.T) {
	const levels = 7
	steps := []int{1, 5, -3}
	kit := newTestKit(t, levels, steps)
	slots := kit.params.Slots()
	r := rand.New(rand.NewPCG(2021, 12))

	checkNoise := func(level int, op string, ct *Ciphertext) {
		t.Helper()
		measured := kit.params.QBits(ct.Level()) - kit.dec.NoiseBudget(ct) - 1
		if float64(measured) > ct.NoiseBits {
			t.Errorf("level %d %s: measured noise %d bits exceeds the estimate %.1f", level, op, measured, ct.NoiseBits)
		}
	}
	for level := 0; level < levels; level++ {
		a, b := randVec(r, slots, kit.params.T), randVec(r, slots, kit.params.T)
		encrypt := func(vals []uint64) *Ciphertext {
			pt, err := kit.enc.Encode(vals)
			if err != nil {
				t.Fatal(err)
			}
			return kit.encr.EncryptAtLevel(pt, level)
		}
		cta, ctb := encrypt(a), encrypt(b)

		if level > 0 { // a product needs a prime to rescale into
			deg2, err := kit.eval.MulNoRelin(cta, ctb)
			if err != nil {
				t.Fatalf("level %d MulNoRelin: %v", level, err)
			}
			if deg2.Level() != level {
				t.Fatalf("level %d: tensor landed at level %d", level, deg2.Level())
			}
			prod, err := kit.eval.Relinearize(deg2)
			if err != nil {
				t.Fatalf("level %d Relinearize: %v", level, err)
			}
			checkNoise(level, "relinearize", prod)
			for i, got := range kit.decryptVec(t, prod) {
				if want := a[i] * b[i] % kit.params.T; got != want {
					t.Fatalf("level %d product slot %d: got %d, want %d", level, i, got, want)
				}
			}
		}

		hoisted, err := kit.eval.RotateHoisted(cta, steps)
		if err != nil {
			t.Fatalf("level %d RotateHoisted: %v", level, err)
		}
		for k, step := range steps {
			rot, err := kit.eval.Rotate(cta, step)
			if err != nil {
				t.Fatalf("level %d Rotate(%d): %v", level, step, err)
			}
			checkNoise(level, "rotate", rot)
			checkNoise(level, "rotate-hoisted", hoisted[k])
			plain, hoist := kit.decryptVec(t, rot), kit.decryptVec(t, hoisted[k])
			for i := range plain {
				want := a[((i+step)%slots+slots)%slots]
				if plain[i] != want || hoist[i] != want {
					t.Fatalf("level %d step %d slot %d: Rotate %d, RotateHoisted %d, want %d",
						level, step, i, plain[i], hoist[i], want)
				}
			}
		}
	}
}

// TestLeveledKeyServesEveryLowerLevel: a Galois key generated at level ℓ
// rotates correctly at every level ≤ ℓ — including the levels where the
// truncated view cuts its top digit group — and is refused above ℓ.
func TestLeveledKeyServesEveryLowerLevel(t *testing.T) {
	const levels, step = 6, 3
	for keyLevel := 0; keyLevel < levels; keyLevel++ {
		kit := leveledKit(t, levels, keyLevel)
		slots := kit.params.Slots()
		elt := kit.params.GaloisElt(step)
		vals := randVec(rand.New(rand.NewPCG(7, uint64(keyLevel))), slots, kit.params.T)
		pt, err := kit.enc.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level <= keyLevel; level++ {
			rot, err := kit.eval.applyGalois(kit.encr.EncryptAtLevel(pt, level), elt)
			if err != nil {
				t.Fatalf("key level %d at level %d: %v", keyLevel, level, err)
			}
			for i, got := range kit.decryptVec(t, rot) {
				if want := vals[(i+step)%slots]; got != want {
					t.Fatalf("key level %d at level %d slot %d: got %d, want %d", keyLevel, level, i, got, want)
				}
			}
		}
		if keyLevel+1 < levels {
			_, err := kit.eval.applyGalois(kit.encr.EncryptAtLevel(pt, keyLevel+1), elt)
			if err == nil || !strings.Contains(err.Error(), "cannot serve") {
				t.Fatalf("key level %d used at level %d: err %v, want a level error", keyLevel, keyLevel+1, err)
			}
		}
	}
}

// measuredNoise is the bit length of |t·e + m| read off with the secret
// key.
func (k *testKit) measuredNoise(ct *Ciphertext) int {
	return k.params.QBits(ct.Level()) - k.dec.NoiseBudget(ct) - 1
}

// TestMultiPrimeDropMatchesSingleSwitches: dropping k = 1..5 primes in
// one rounding, from every level of a 14-prime chain, decrypts to the
// plaintext k single-prime switches decrypt to, with measured noise no
// larger; and the estimate either way is the same.
func TestMultiPrimeDropMatchesSingleSwitches(t *testing.T) {
	const levels = 14
	kit := newTestKit(t, levels, nil)
	r := rand.New(rand.NewPCG(15, 3))
	vals := randVec(r, kit.params.Slots(), kit.params.T)
	pt, err := kit.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	for level := 1; level < levels; level++ {
		ct := kit.encr.EncryptAtLevel(pt, level)
		for k := 1; k <= min(level, 5); k++ {
			stepwise := ct.Copy()
			for i := 0; i < k; i++ {
				if err := kit.eval.ModSwitch(stepwise); err != nil {
					t.Fatal(err)
				}
			}
			once, err := kit.eval.SwitchDown(ct, level-k)
			if err != nil {
				t.Fatal(err)
			}
			if once.Level() != level-k || once.NoiseBits != stepwise.NoiseBits {
				t.Fatalf("level %d drop %d: landed at level %d with estimate %.1f, stepwise at %d with %.1f",
					level, k, once.Level(), once.NoiseBits, stepwise.Level(), stepwise.NoiseBits)
			}
			if got, want := kit.decryptVec(t, once), kit.decryptVec(t, stepwise); !slices.Equal(got, want) || !slices.Equal(got, vals) {
				t.Fatalf("level %d drop %d: one rounding and %d switches decrypt differently", level, k, k)
			}
			if one, many := kit.measuredNoise(once), kit.measuredNoise(stepwise); one > many {
				t.Errorf("level %d drop %d: one rounding leaves %d bits of noise, %d switches %d", level, k, one, k, many)
			}
		}
	}
}

// TestFusedRelinearizeMatchesRelinThenSwitch: Relinearize, which divides
// by P·q_ℓ at once, decrypts to what the key switch's divide-by-P
// followed by a modulus switch decrypts to, with no more noise, at every
// level of a 7-prime chain (levels 1, 3, 4 and 6 cut a digit group).
func TestFusedRelinearizeMatchesRelinThenSwitch(t *testing.T) {
	const levels = 7
	kit := newTestKit(t, levels, nil)
	ctx := kit.params.RingCtx
	r := rand.New(rand.NewPCG(15, 4))
	for level := 1; level < levels; level++ {
		a, b := randVec(r, kit.params.Slots(), kit.params.T), randVec(r, kit.params.Slots(), kit.params.T)
		pa, _ := kit.enc.Encode(a)
		pb, _ := kit.enc.Encode(b)
		deg2, err := kit.eval.MulNoRelin(kit.encr.EncryptAtLevel(pa, level), kit.encr.EncryptAtLevel(pb, level))
		if err != nil {
			t.Fatal(err)
		}
		fused, err := kit.eval.Relinearize(deg2)
		if err != nil {
			t.Fatal(err)
		}

		digits := ctx.DecomposeHybrid(deg2.C[2])
		acc0, acc1 := kit.eval.keySwitch(digits, kit.eval.Keys().Relin, level, deg2.C[0], deg2.C[1])
		twoStep := &Ciphertext{C: []*ring.Poly{ctx.NewPoly(level), ctx.NewPoly(level)}, NoiseBits: deg2.NoiseBits}
		ctx.DivideByP(acc0, twoStep.C[0])
		ctx.DivideByP(acc1, twoStep.C[1])
		if err := kit.eval.ModSwitch(twoStep); err != nil {
			t.Fatal(err)
		}

		if fused.Level() != level-1 {
			t.Fatalf("level %d: fused relinearization landed at level %d", level, fused.Level())
		}
		got, want := kit.decryptVec(t, fused), kit.decryptVec(t, twoStep)
		for i := range want {
			if got[i] != want[i] || got[i] != a[i]*b[i]%kit.params.T {
				t.Fatalf("level %d slot %d: fused %d, relin-then-switch %d, product %d", level, i, got[i], want[i], a[i]*b[i]%kit.params.T)
			}
		}
		if one, two := kit.measuredNoise(fused), kit.measuredNoise(twoStep); one > two {
			t.Errorf("level %d: fused tail leaves %d bits of noise, relin-then-switch %d", level, one, two)
		}
	}
}
