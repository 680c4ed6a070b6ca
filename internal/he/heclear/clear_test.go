package heclear

import (
	"testing"

	"copse/internal/he"
)

func TestBasicOps(t *testing.T) {
	b := New(8, 65537)
	a, err := b.Encrypt([]uint64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Encrypt([]uint64{10, 20, 30, 40, 50})
	if err != nil {
		t.Fatal(err)
	}

	sum, err := b.Add(a, c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{11, 22, 33, 44, 50, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("add slot %d: got %d want %d", i, got[i], want[i])
		}
	}

	prod, err := b.Mul(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Depth() != 1 {
		t.Errorf("product depth = %d, want 1", prod.Depth())
	}
	got, err = b.Decrypt(prod)
	if err != nil {
		t.Fatal(err)
	}
	want = []uint64{10, 40, 90, 160, 0, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mul slot %d: got %d want %d", i, got[i], want[i])
		}
	}

	rot, err := b.Rotate(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err = b.Decrypt(rot)
	if err != nil {
		t.Fatal(err)
	}
	want = []uint64{2, 3, 4, 0, 0, 0, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rotate slot %d: got %d want %d", i, got[i], want[i])
		}
	}

	rotNeg, err := b.Rotate(a, -1)
	if err != nil {
		t.Fatal(err)
	}
	got, err = b.Decrypt(rotNeg)
	if err != nil {
		t.Fatal(err)
	}
	want = []uint64{0, 1, 2, 3, 4, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rotate(-1) slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestCountsAndDepth(t *testing.T) {
	b := Default()
	a, _ := b.Encrypt([]uint64{1})
	c, _ := b.Encrypt([]uint64{1})
	p, _ := b.EncodePlain([]uint64{1})

	m1, err := b.Mul(a, c)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b.Mul(m1, m1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddPlain(m2, p); err != nil {
		t.Fatal(err)
	}
	if _, err := b.MulPlain(m2, p); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Rotate(m2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Sub(a, c); err != nil {
		t.Fatal(err)
	}

	counts := b.Counts()
	if counts.Encrypt != 2 || counts.Mul != 2 || counts.ConstAdd != 1 ||
		counts.ConstMul != 1 || counts.Rotate != 1 || counts.Add != 1 {
		t.Errorf("unexpected counts: %v", counts)
	}
	if counts.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", counts.MaxDepth)
	}
	b.ResetCounts()
	if c := b.Counts(); c != (he.OpCounts{}) {
		t.Errorf("counts after reset: %v", c)
	}

	// A hoisted batch counts as on BGV: every non-zero step one hoisted
	// rotation, the step-0 copies (0 and the slot count) nothing.
	if _, err := b.RotateHoisted(a, []int{0, 1, 3, b.Slots(), -2}); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Counts(), (he.OpCounts{Rotate: 3, RotateHoisted: 3}); got != want {
		t.Errorf("hoisted rotations counted %v, want %v", got, want)
	}
}

func TestRangeErrors(t *testing.T) {
	b := New(4, 257)
	if _, err := b.Encrypt(make([]uint64, 5)); err == nil {
		t.Error("oversized vector accepted")
	}
	if _, err := b.Encrypt([]uint64{257}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := b.EncodePlain([]uint64{300}); err == nil {
		t.Error("out-of-range plaintext accepted")
	}
}
