package bgv

import (
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
		got := kit.enc.Decode(kit.dec.Decrypt(ct))
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
	got := kit.enc.Decode(kit.dec.Decrypt(rot))
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
	got = kit.enc.Decode(kit.dec.Decrypt(prod))
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
		got := kit.enc.Decode(kit.dec.Decrypt(rot))
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
	if rows := 2 + ring.DigitPrimes; v.Level() != 1 || len(v.B[0].Coeffs) != rows || len(v.BS[0].S) != rows {
		t.Errorf("level-1 view not truncated to 2 chain limbs plus the special limbs")
	}
	if &v.B[0].Coeffs[0][0] != &key.B[0].Coeffs[0][0] || &v.B[0].Coeffs[2][0] != &key.B[0].Coeffs[top+1][0] {
		t.Error("view copied the key data instead of sharing it")
	}
	if again := key.AtLevel(1); again != v {
		t.Error("view not cached")
	}
}

// TestPlaintextPreLiftConcurrent: the lock-free lift cache returns one
// canonical poly per level under concurrent first use.
func TestPlaintextPreLiftConcurrent(t *testing.T) {
	kit := newTestKit(t, 5, nil)
	ctx := kit.params.RingCtx
	pt, err := kit.enc.Encode(ramp(kit.params.Slots()))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([][]any, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for level := 0; level <= kit.params.MaxLevel(); level++ {
				results[g] = append(results[g], pt.lift(ctx, level))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[g] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d saw a different lift at level %d", g, i)
			}
		}
	}
	// PreLift warms the scheduled levels (and tolerates out-of-range).
	pt2, _ := kit.enc.Encode(ramp(kit.params.Slots()))
	pt2.PreLift(ctx, 2, 1, -1, 99)
	if tab := pt2.lifts.Load(); tab == nil || (*tab)[2] == nil || (*tab)[1] == nil {
		t.Error("PreLift did not populate the cache")
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
