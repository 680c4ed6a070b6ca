package bgv

import (
	"strings"
	"testing"
)

// leveledKit builds a BGV instance whose Galois key for step 3 is
// generated at the given level while the power-of-two ladder stays at
// the chain top — the shape WithGaloisKeys produces for a step a
// staged program rotates only at a scheduled-down level.
func leveledKit(t *testing.T, levels, keyLevel int) *testKit {
	t.Helper()
	params, err := NewParameters(TestParams(levels))
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	kg := NewSeededKeyGenerator(params, 4321)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys, err := kg.GenEvaluationKeys(sk, PowerOfTwoSteps(params.Slots()))
	if err != nil {
		t.Fatalf("GenEvaluationKeys: %v", err)
	}
	keys = kg.WithGaloisKeys(sk, keys, []Rotation{{Step: 3, Level: keyLevel}})
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

// TestLeveledGaloisKeyFallbackAboveLevel: the same rotation issued above
// the key's level cannot use the direct key and must fall back to the
// top-level power-of-two ladder — still correct, just composed.
func TestLeveledGaloisKeyFallbackAboveLevel(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	slots := kit.params.Slots()
	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = uint64((3*i + 1) % 89)
	}
	ct := kit.encryptVec(t, vals) // top of the chain, above the step-3 key
	if ct.Level() <= keyLevel {
		t.Fatalf("test needs a ciphertext above level %d", keyLevel)
	}
	rot, err := kit.eval.Rotate(ct, 3)
	if err != nil {
		t.Fatalf("Rotate(3) above key level: %v", err)
	}
	got := kit.decryptVec(t, rot)
	for i := range got {
		if want := vals[(i+3)%slots]; got[i] != want {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want)
		}
	}
	// The hoisted path must take the same fallback.
	outs, err := kit.eval.RotateHoisted(ct, []int{3})
	if err != nil {
		t.Fatalf("RotateHoisted(3) above key level: %v", err)
	}
	got = kit.decryptVec(t, outs[0])
	for i := range got {
		if want := vals[(i+3)%slots]; got[i] != want {
			t.Fatalf("hoisted slot %d: got %d want %d", i, got[i], want)
		}
	}
}

// TestLeveledGaloisKeyDirectUseAboveLevelRejected: forcing the direct
// path above the key's level must fail loudly, not corrupt.
func TestLeveledGaloisKeyDirectUseAboveLevelRejected(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	ct := kit.encryptVec(t, make([]uint64, kit.params.Slots()))
	elt := kit.params.GaloisElt(3)
	if _, err := kit.eval.applyGalois(ct, elt); err == nil || !strings.Contains(err.Error(), "cannot serve") {
		t.Fatalf("applyGalois above key level: got err %v, want level error", err)
	}
}

// TestLeveledKeyMaterialShrinks pins the byte accounting: a key at
// level 3 of an 6-prime chain holds fewer digits × fewer limbs than a
// top-level key, and MaterialBytes/TopLevelBytes see the difference.
func TestLeveledKeyMaterialShrinks(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	key := kit.eval.Keys().Galois[kit.params.GaloisElt(3)]
	if key.Level() != keyLevel {
		t.Fatalf("step-3 key at level %d, want %d", key.Level(), keyLevel)
	}
	if got, want := key.MaterialBytes(), kit.params.SwitchingKeyBytes(keyLevel); got != want {
		t.Fatalf("leveled key bytes %d, want %d", got, want)
	}
	ek := kit.eval.Keys()
	if ek.MaterialBytes() >= ek.TopLevelBytes(kit.params) {
		t.Fatalf("leveled key set (%d bytes) not smaller than all-top baseline (%d bytes)",
			ek.MaterialBytes(), ek.TopLevelBytes(kit.params))
	}
}
