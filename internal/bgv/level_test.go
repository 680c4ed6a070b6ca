package bgv

import (
	"slices"
	"sync"
	"testing"

	"copse/internal/ring"
)

// TestEncryptAtLevel: a fresh encryption landed directly at a lower
// level decrypts exactly, supports arithmetic, and matches the RLWE
// instance a top-level encryption reaches after modulus switching.
func TestEncryptAtLevel(t *testing.T) {
	kit := newTestKit(t, 6, []int{3})
	vals := ramp(kit.params.Slots())
	pt, err := kit.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{0, 1, 3, kit.params.MaxLevel(), kit.params.MaxLevel() + 5} {
		ct := kit.encr.EncryptAtLevel(pt, level)
		want := min(level, kit.params.MaxLevel())
		if want < 0 {
			want = 0
		}
		if ct.Level() != want {
			t.Fatalf("EncryptAtLevel(%d): level %d, want %d", level, ct.Level(), want)
		}
		got := kit.decryptVec(t, ct)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("EncryptAtLevel(%d): slot %d = %d, want %d", level, i, got[i], vals[i])
			}
		}
	}

	// Arithmetic at a dropped level: rotate (exercising the truncated
	// switching-key views) and multiply.
	ct := kit.encr.EncryptAtLevel(pt, 2)
	rot, err := kit.eval.Rotate(ct, 3)
	if err != nil {
		t.Fatalf("Rotate at level 2: %v", err)
	}
	got := kit.decryptVec(t, rot)
	slots := kit.params.Slots()
	for i := 0; i < slots; i++ {
		if got[i] != vals[(i+3)%slots] {
			t.Fatalf("rotated slot %d = %d, want %d", i, got[i], vals[(i+3)%slots])
		}
	}
	prod, err := kit.eval.Mul(ct, ct)
	if err != nil {
		t.Fatalf("Mul at level 2: %v", err)
	}
	got = kit.decryptVec(t, prod)
	tMod := kit.params.T
	for i := range vals {
		if got[i] != vals[i]*vals[i]%tMod {
			t.Fatalf("squared slot %d = %d, want %d", i, got[i], vals[i]*vals[i]%tMod)
		}
	}
}

// TestDropToLevelThenRotate: rotations after a deep proactive drop use
// the level-truncated key views (fewer digits, fewer limbs) and must
// stay exact all the way down to level 1.
func TestDropToLevelThenRotate(t *testing.T) {
	kit := newTestKit(t, 8, []int{1})
	vals := ramp(kit.params.Slots())
	pt, err := kit.enc.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	slots := kit.params.Slots()
	for _, level := range []int{5, 2, 1} {
		ct := kit.encr.Encrypt(pt)
		if err := kit.eval.DropToLevel(ct, level); err != nil {
			t.Fatalf("DropToLevel(%d): %v", level, err)
		}
		if ct.Level() != level {
			t.Fatalf("DropToLevel(%d): level %d", level, ct.Level())
		}
		rot, err := kit.eval.Rotate(ct, 1)
		if err != nil {
			t.Fatalf("Rotate at level %d: %v", level, err)
		}
		got := kit.decryptVec(t, rot)
		for i := 0; i < slots; i++ {
			if got[i] != vals[(i+1)%slots] {
				t.Fatalf("level %d: rotated slot %d = %d, want %d", level, i, got[i], vals[(i+1)%slots])
			}
		}
	}
}

// TestSwitchingKeyViews: the truncated view shares the full key's
// residue rows, keeps exactly the digits and rows the level needs (chain
// rows 0..level plus the special rows), and is cached.
func TestSwitchingKeyViews(t *testing.T) {
	kit := newTestKit(t, 6, nil)
	key := kit.eval.Keys().Relin
	top := kit.params.MaxLevel()

	if key.AtLevel(top) != key {
		t.Error("top-level view is not the key itself")
	}
	v := key.AtLevel(1)
	if len(v.B) != ring.HybridDigits(1) {
		t.Errorf("level-1 view keeps %d digits, want %d", len(v.B), ring.HybridDigits(1))
	}
	if rows := 2 + ring.DigitPrimes; v.Level() != 1 || len(v.B[0].Coeffs) != rows || len(v.A[0].Coeffs) != rows {
		t.Errorf("level-1 view not truncated to 2 chain limbs plus the special limbs")
	}
	if &v.B[0].Coeffs[0][0] != &key.B[0].Coeffs[0][0] || &v.B[0].Coeffs[2][0] != &key.B[0].Coeffs[top+1][0] {
		t.Error("view copied the key data instead of sharing it")
	}
	if again := key.AtLevel(1); again != v {
		t.Error("view not cached")
	}
}

// TestPlaintextPreLiftConcurrent: the lock-free lift cache holds one
// lift. Concurrent reads see a lift at or above the level they asked for,
// every read at or below the cached level returns that same poly, a read
// above it swaps in a lift at its own level, and each lift's rows are the
// ones a lift made at exactly the level read would hold.
func TestPlaintextPreLiftConcurrent(t *testing.T) {
	kit := newTestKit(t, 5, nil)
	ctx := kit.params.RingCtx
	top := kit.params.MaxLevel()
	pt, err := kit.enc.Encode(ramp(kit.params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for level := 0; level <= top; level++ {
				if p := pt.Lift(ctx, (level+g)%(top+1)); p.Level() < (level+g)%(top+1) {
					t.Errorf("goroutine %d: a lift at level %d served level %d", g, p.Level(), (level+g)%(top+1))
				}
			}
		}(g)
	}
	wg.Wait()
	lift := pt.Lift(ctx, top)
	for level := 0; level <= top; level++ {
		if pt.Lift(ctx, level) != lift {
			t.Fatalf("a read at level %d did not return the cached top lift", level)
		}
		want := pt.embed(ctx, level)
		for i := range want.Coeffs {
			if !slices.Equal(lift.Coeffs[i], want.Coeffs[i]) {
				t.Fatalf("row %d of the top lift differs from a level-%d lift's", i, level)
			}
		}
	}
	// PreLift lifts at the scheduled level, clamped to the chain top, and
	// ignores a negative one; a later read above it lifts again.
	pt2, _ := kit.enc.Encode(ramp(kit.params.Slots()))
	pt2.PreLift(ctx, -1)
	if pt2.cached.Load() != nil {
		t.Error("PreLift at a negative level lifted")
	}
	pt3, _ := kit.enc.Encode(ramp(kit.params.Slots()))
	if pt3.PreLift(ctx, 99); pt3.cached.Load() == nil || pt3.cached.Load().Level() != top {
		t.Error("PreLift above the chain did not lift at the top")
	}
	pt2.PreLift(ctx, 2)
	low := pt2.cached.Load()
	if low == nil || low.Level() != 2 {
		t.Fatal("PreLift did not lift at level 2")
	}
	if pt2.Lift(ctx, 1) != low {
		t.Error("a read below the cached lift lifted again")
	}
	if high := pt2.Lift(ctx, 3); high.Level() != 3 || pt2.cached.Load() != high {
		t.Error("a read above the cached lift did not swap in a level-3 lift")
	}
}

// ramp returns 0,1,2,... mod a small bound, sized to n.
func ramp(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i % 251)
	}
	return out
}
