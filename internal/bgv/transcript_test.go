package bgv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"testing"
)

// transcriptHash is the SHA-256 of the ciphertexts' residues, component
// by component, row by row, each word little-endian.
func transcriptHash(cts ...*Ciphertext) string {
	h := sha256.New()
	var w [8]byte
	for _, ct := range cts {
		for _, p := range ct.C {
			for _, row := range p.Coeffs {
				for _, c := range row {
					binary.LittleEndian.PutUint64(w[:], c)
					h.Write(w[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedTranscripts pins the exact ciphertexts of three seeded
// computations: a public-key encryption at the chain top, the
// relinearization of its square, and a three-step hoisted rotation of an
// encryption at level 4, whose top-level Galois keys serve it through
// their level views (two digits, the second cut short). A label oracle
// cannot see an error of a few bits; these hashes can. Every change that
// claims to be exact — a kernel, a key representation, a scheduling
// change — must reproduce them on the scalar kernels and on the host's
// vector tier alike. Only a change that means to alter a rounding may
// re-pin them, and says which and why.
func TestPinnedTranscripts(t *testing.T) {
	const (
		wantEncrypt = "e43395df25ed5435cab70a0c9be015a70d7cf0388f6b49c78c893d57354233e4"
		wantRelin   = "d573001ce2a4c8c774183f353d47d2f6e36d189857c5dbbdc3a9d423c9125231"
		wantRotate  = "5bccea2012fe724c5f93798208dcf917ecebf10c78121d4a7d56db9d7d871002"
	)
	steps := []int{1, 5, -3}
	for _, vec := range []bool{false, true} {
		name := "scalar"
		if vec {
			name = "vector"
		}
		t.Run(name, func(t *testing.T) {
			kit := newTestKit(t, 7, steps)
			ctx := kit.params.RingCtx
			ctx.SetVectorKernels(vec)
			defer ctx.SetVectorKernels(true)
			r := rand.New(rand.NewPCG(46, 46))
			pt, err := kit.enc.Encode(randVec(r, kit.params.Slots(), kit.params.T))
			if err != nil {
				t.Fatal(err)
			}
			ct := kit.encr.Encrypt(pt)
			low := kit.encr.EncryptAtLevel(pt, 4)
			sq, err := kit.eval.Mul(ct, ct)
			if err != nil {
				t.Fatal(err)
			}
			rots, err := kit.eval.RotateHoisted(low, steps)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what, got, want string
			}{
				{"public-key encryption", transcriptHash(ct), wantEncrypt},
				{"relinearization", transcriptHash(sq), wantRelin},
				{"hoisted rotation", transcriptHash(rots...), wantRotate},
			} {
				if c.got != c.want {
					t.Errorf("%s: transcript %s, pinned %s", c.what, c.got, c.want)
				}
			}
		})
	}
}
