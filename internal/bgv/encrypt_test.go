package bgv

import (
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"copse/internal/ring"
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

// TestPublicKeyEncryptionFormula: the public-key path, which folds the
// message into e0 ahead of the transform, is bit for bit
// (B·u + NTT(t·e0) + NTT(m), A·u + NTT(t·e1)) with u, e0 and e1 replayed
// from the ciphertext's own seed — at the chain top and below it.
func TestPublicKeyEncryptionFormula(t *testing.T) {
	kit := newTestKit(t, 4, nil)
	ctx, tMod := kit.params.RingCtx, kit.params.T
	r := rand.New(rand.NewPCG(9, 9))
	for _, level := range []int{kit.params.MaxLevel(), 1} {
		pt, err := kit.enc.Encode(randVec(r, kit.params.Slots(), tMod))
		if err != nil {
			t.Fatal(err)
		}
		res := kit.encr.Reserve(2)
		ct := res.EncryptAtLevel(1, pt, level)

		replay := ring.NewSeededSampler(ctx, 0)
		replay.Reseed(res.seeds[1])
		u := replay.TernaryPoly(level)
		ctx.NTT(u)
		noise := func() *ring.Poly {
			e := replay.ErrorPoly(level)
			ctx.MulScalar(e, tMod, e)
			ctx.NTT(e)
			return e
		}
		e0, e1 := noise(), noise()
		m := ctx.NewPoly(level)
		for i := range m.Coeffs {
			copy(m.Coeffs[i], pt.Coeffs)
		}
		ctx.NTT(m)
		pk := kit.encr.pk
		c0, c1 := ctx.NewPoly(level), ctx.NewPoly(level)
		ctx.MulCoeffs(pk.B, u, c0)
		ctx.Add(c0, e0, c0)
		ctx.Add(c0, m, c0)
		ctx.MulCoeffs(pk.A, u, c1)
		ctx.Add(c1, e1, c1)
		for k, want := range []*ring.Poly{c0, c1} {
			if !slices.EqualFunc(ct.C[k].Coeffs, want.Coeffs, slices.Equal) {
				t.Fatalf("level %d: c%d differs from the four-transform formula", level, k)
			}
		}
	}
}

// TestReservationOrder: a reservation's encryptions depend on their index
// alone — made in reverse, or concurrently, they are the ciphertexts a
// second encryptor on the same seed makes one EncryptAtLevel at a time.
func TestReservationOrder(t *testing.T) {
	kit := newTestKit(t, 3, nil)
	kinds := map[string]func() *Encryptor{
		"public key": func() *Encryptor { return NewSeededEncryptor(kit.params, kit.encr.pk, 31) },
		"secret key": func() *Encryptor { return NewSeededSecretKeyEncryptor(kit.params, kit.sk, 31) },
	}
	r := rand.New(rand.NewPCG(3, 3))
	pts := make([]*Plaintext, 6)
	for i := range pts {
		pt, err := kit.enc.Encode(randVec(r, kit.params.Slots(), kit.params.T))
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = pt
	}
	for name, mk := range kinds {
		one, set := mk(), mk()
		res := set.Reserve(len(pts))
		got := make([]*Ciphertext, len(pts))
		var wg sync.WaitGroup
		for i := len(pts) - 1; i >= 0; i-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = res.EncryptAtLevel(i, pts[i], 2)
			}()
		}
		wg.Wait()
		for i, pt := range pts {
			want := one.EncryptAtLevel(pt, 2)
			for k := range want.C {
				if !slices.EqualFunc(got[i].C[k].Coeffs, want.C[k].Coeffs, slices.Equal) {
					t.Fatalf("%s: encryption %d of the reservation differs from the %d-th single one", name, i, i)
				}
			}
		}
	}
}
