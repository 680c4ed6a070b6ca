package bgv

import (
	"testing"

	"copse/internal/ring"
)

// leveledKit builds a BGV instance whose one Galois key, for step 3, is
// generated at the given level — the shape WithGaloisKeys produces for a
// step a staged program rotates only at a scheduled-down level.
func leveledKit(t *testing.T, levels, keyLevel int) *testKit {
	t.Helper()
	params, err := NewParameters(TestParams(levels))
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	kg := NewSeededKeyGenerator(params, 4321)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := kg.WithGaloisKeys(sk, &EvaluationKeys{Relin: kg.GenRelinKey(sk)}, []Rotation{{Step: 3, Level: keyLevel}})
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	return &testKit{
		params: params,
		enc:    enc,
		encr:   NewSeededEncryptor(params, pk, 77),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params, keys),
		sk:     sk,
	}
}

// TestLeveledGaloisKeyServesScheduledLevel: a key generated at level 3
// rotates a level-3 ciphertext directly and produces the right slots.
func TestLeveledGaloisKeyServesScheduledLevel(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	slots := kit.params.Slots()
	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = uint64(i % 97)
	}
	pt, err := kit.enc.Encode(vals)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	ct := kit.encr.EncryptAtLevel(pt, keyLevel)
	if ct.Level() != keyLevel {
		t.Fatalf("ciphertext at level %d, want %d", ct.Level(), keyLevel)
	}
	rot, err := kit.eval.Rotate(ct, 3)
	if err != nil {
		t.Fatalf("Rotate(3) at key level: %v", err)
	}
	got := kit.decryptVec(t, rot)
	for i := range got {
		if want := vals[(i+3)%slots]; got[i] != want {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want)
		}
	}
}

// TestLeveledGaloisKeyDirectUseAboveLevelRejected: the same rotation
// issued above the key's level is refused, one step or hoisted — not
// composed from other keys, and not served by a key that cannot reach
// the ciphertext's primes.
func TestLeveledGaloisKeyDirectUseAboveLevelRejected(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	ct := kit.encryptVec(t, make([]uint64, kit.params.Slots()))
	if ct.Level() <= keyLevel {
		t.Fatalf("test needs a ciphertext above level %d", keyLevel)
	}
	want := MissingKeyError{Step: 3, Level: ct.Level(), KeyLevel: keyLevel}
	_, err := kit.eval.Rotate(ct, 3)
	wantMissingKey(t, "Rotate(3) above the key", err, want)
	_, err = kit.eval.RotateHoisted(ct, []int{3})
	wantMissingKey(t, "RotateHoisted(3) above the key", err, want)
}

// TestLeveledKeyMaterialShrinks pins the byte accounting: a key at
// level 3 of an 6-prime chain holds fewer digits × fewer limbs than a
// top-level key, and MaterialBytes/TopLevelBytes see the difference.
// A key is two polynomials per digit and nothing beside them: at level
// 3, two digits of 4 chain and 3 special limbs of N words.
func TestLeveledKeyMaterialShrinks(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	key := kit.eval.Keys().Galois[kit.params.GaloisElt(3)]
	if key.Level() != keyLevel {
		t.Fatalf("step-3 key at level %d, want %d", key.Level(), keyLevel)
	}
	want := int64(2*2*(keyLevel+1+ring.DigitPrimes)*kit.params.N()) * 8
	if got := key.MaterialBytes(); got != want || kit.params.SwitchingKeyBytes(keyLevel) != want {
		t.Fatalf("leveled key bytes %d (SwitchingKeyBytes %d), want %d", got, kit.params.SwitchingKeyBytes(keyLevel), want)
	}
	ek := kit.eval.Keys()
	if ek.MaterialBytes() >= ek.TopLevelBytes(kit.params) {
		t.Fatalf("leveled key set (%d bytes) not smaller than all-top baseline (%d bytes)",
			ek.MaterialBytes(), ek.TopLevelBytes(kit.params))
	}
}
