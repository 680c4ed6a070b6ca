package bgv

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestSecretKeyEncryption: an encryption under the secret key decrypts
// exactly at every level of the chain, its measured fresh noise stays
// within the fresh bound — log2 t + logN/2 + 8 bits: t·(e0 + e·u + e1·s)
// has canonical norm about t·B·sqrt(2N), padded generously, which the
// level planner assumes of every fresh ciphertext — and it multiplies
// like any other ciphertext. The public-key path, which a party without the secret key
// encrypts through, is held to the same three checks beside it.
func TestSecretKeyEncryption(t *testing.T) {
	kit := newTestKit(t, 6, nil)
	encryptors := map[string]*Encryptor{
		"secret key": NewSeededSecretKeyEncryptor(kit.params, kit.sk, 5),
		"public key": kit.encr,
	}
	freshBound := float64(bitsOf(kit.params.T)) + float64(kit.params.LogN)/2 + 8
	r := rand.New(rand.NewPCG(5, 5))
	for name, encr := range encryptors {
		for level := 0; level <= kit.params.MaxLevel(); level++ {
			vals := randVec(r, kit.params.Slots(), kit.params.T)
			pt, err := kit.enc.Encode(vals)
			if err != nil {
				t.Fatal(err)
			}
			ct := encr.EncryptAtLevel(pt, level)
			if ct.Level() != level || ct.Degree() != 1 {
				t.Fatalf("%s: encryption at level %d is a degree-%d ciphertext at level %d", name, level, ct.Degree(), ct.Level())
			}
			if got := kit.decryptVec(t, ct); !slices.Equal(got, vals) {
				t.Errorf("%s, level %d: decrypts to something else", name, level)
			}
			noise := kit.params.RingCtx.MaxCenteredBits(kit.dec.phase(ct))
			if float64(noise) > freshBound {
				t.Errorf("%s, level %d: fresh noise %d bits, the bound is %.1f", name, level, noise, freshBound)
			}
			if level == kit.params.MaxLevel() {
				t.Logf("%s: fresh noise %d bits (bound %.1f)", name, noise, freshBound)
				sq, err := kit.eval.Mul(ct, ct)
				if err != nil {
					t.Fatal(err)
				}
				got := kit.decryptVec(t, sq)
				for i, v := range vals {
					if want := v * v % kit.params.T; got[i] != want {
						t.Fatalf("%s: slot %d squares to %d, want %d", name, i, got[i], want)
					}
				}
			}
		}
	}
}
