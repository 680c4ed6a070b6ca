package bgv

import (
	"errors"
	"math/rand/v2"
	"testing"
)

// wantMissingKey fails t unless err is a *MissingKeyError with exactly
// the given fields.
func wantMissingKey(t *testing.T, what string, err error, want MissingKeyError) {
	t.Helper()
	var mk *MissingKeyError
	if !errors.As(err, &mk) {
		t.Fatalf("%s: err %v, want *MissingKeyError", what, err)
	}
	if *mk != want {
		t.Fatalf("%s: refused with %+v, want %+v", what, *mk, want)
	}
}

// TestRotateMissingKeyError: a rotation by a step no key serves is
// refused with a *MissingKeyError naming the step and level — even when
// keyed steps add up to it — as is every rotation on an evaluator with no
// keys at all; a keyed step still rotates.
func TestRotateMissingKeyError(t *testing.T) {
	kit := newTestKit(t, 2, []int{1, 2})
	ct := kit.encryptVec(t, make([]uint64, kit.params.Slots()))
	top := ct.Level()
	_, err := kit.eval.Rotate(ct, 3)
	wantMissingKey(t, "Rotate(3) with keys for 1 and 2", err, MissingKeyError{Step: 3, Level: top, KeyLevel: -1})
	if _, err := kit.eval.Rotate(ct, 2); err != nil {
		t.Fatalf("Rotate(2): %v", err)
	}
	noKeys := NewEvaluator(kit.params, nil)
	_, err = noKeys.Rotate(ct, 1)
	wantMissingKey(t, "Rotate without keys", err, MissingKeyError{Step: 1, Level: top, KeyLevel: -1})
	_, err = noKeys.RotateHoisted(ct, []int{0, 1})
	wantMissingKey(t, "RotateHoisted without keys", err, MissingKeyError{Step: 1, Level: top, KeyLevel: -1})
}

// TestRotateRefusedBeforeDecomposition: a rotation above its key's
// level, or with no key, is refused before anything is decomposed — the
// refused call allocates its key list and its error and no more, where a
// served rotation draws digits, base converters and polynomials.
func TestRotateRefusedBeforeDecomposition(t *testing.T) {
	const levels, keyLevel = 6, 3
	kit := leveledKit(t, levels, keyLevel)
	pt, err := kit.enc.Encode(make([]uint64, kit.params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	ct, low := kit.encr.Encrypt(pt), kit.encr.EncryptAtLevel(pt, keyLevel)
	_, err = kit.eval.RotateHoisted(ct, []int{0, 1})
	wantMissingKey(t, "RotateHoisted(0, 1) with no step-1 key", err, MissingKeyError{Step: 1, Level: ct.Level(), KeyLevel: -1})

	const bound = 2
	for name, refused := range map[string]func(){
		"Rotate(3) above the key":           func() { kit.eval.Rotate(ct, 3) },
		"RotateHoisted(0, 3) above the key": func() { kit.eval.RotateHoisted(ct, []int{0, 3}) },
		"RotateHoisted(0, 1) with no key":   func() { kit.eval.RotateHoisted(ct, []int{0, 1}) },
	} {
		if allocs := testing.AllocsPerRun(20, refused); allocs > bound {
			t.Errorf("%s allocated %.0f times, want at most %d", name, allocs, bound)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		out, err := kit.eval.Rotate(low, 3)
		if err != nil {
			t.Fatal(err)
		}
		kit.params.RingCtx.PutPolys(out.C)
	}); allocs <= bound {
		t.Errorf("a served rotation allocated %.0f times: the bound of %d cannot tell it from a refusal", allocs, bound)
	}
}

// TestRotateHoistedMatchesRotate: hoisted rotations, step 0 included,
// decrypt to the same slot permutations as the one-step path; a batch
// with one step no key serves is refused whole.
func TestRotateHoistedMatchesRotate(t *testing.T) {
	kit := newTestKit(t, 3, []int{1, 3, 5, 12, -1})
	slots := kit.params.Slots()
	r := rand.New(rand.NewPCG(11, 11))
	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = r.Uint64N(kit.params.T)
	}
	ct := kit.encryptVec(t, vals)
	steps := []int{0, 1, 3, 5, 12, slots - 1}
	outs, err := kit.eval.RotateHoisted(ct, steps)
	if err != nil {
		t.Fatalf("RotateHoisted: %v", err)
	}
	if len(outs) != len(steps) {
		t.Fatalf("got %d outputs for %d steps", len(outs), len(steps))
	}
	for si, step := range steps {
		one, err := kit.eval.Rotate(ct, step)
		if err != nil {
			t.Fatalf("Rotate(%d): %v", step, err)
		}
		got, single := kit.decryptVec(t, outs[si]), kit.decryptVec(t, one)
		for i := range got {
			if want := vals[(i+step)%slots]; got[i] != want || single[i] != want {
				t.Fatalf("step %d slot %d: hoisted %d, Rotate %d, want %d", step, i, got[i], single[i], want)
			}
		}
	}
	// The source ciphertext must be untouched by the batch.
	got := kit.decryptVec(t, ct)
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("RotateHoisted mutated its input at slot %d", i)
		}
	}
	_, err = kit.eval.RotateHoisted(ct, []int{1, 7, 3})
	wantMissingKey(t, "RotateHoisted with keyless step 7", err, MissingKeyError{Step: 7, Level: ct.Level(), KeyLevel: -1})
}

// TestRotateHoistedEmpty: an empty batch is a no-op.
func TestRotateHoistedEmpty(t *testing.T) {
	kit := newTestKit(t, 2, nil)
	ct := kit.encryptVec(t, make([]uint64, kit.params.Slots()))
	outs, err := kit.eval.RotateHoisted(ct, nil)
	if err != nil {
		t.Fatalf("RotateHoisted(nil): %v", err)
	}
	if len(outs) != 0 {
		t.Fatalf("got %d outputs for empty steps", len(outs))
	}
}
