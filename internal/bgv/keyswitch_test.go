package bgv

import (
	"math/rand/v2"
	"strings"
	"testing"
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
