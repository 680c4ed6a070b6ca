package hebgv

import (
	"errors"
	"math/rand/v2"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/heclear"
)

// newBackend builds a seeded backend holding Galois keys for steps at
// the chain top.
func newBackend(t *testing.T, levels int, steps []int) *Backend {
	t.Helper()
	b, err := New(Config{Params: bgv.TestParams(levels), Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := b.EnsureRotationKeys(rotationsAt(steps, b.MaxLevel())); err != nil {
		t.Fatal(err)
	}
	return b
}

func rotationsAt(steps []int, level int) []he.Rotation {
	rots := make([]he.Rotation, len(steps))
	for i, s := range steps {
		rots[i] = he.Rotation{Step: s, Level: level}
	}
	return rots
}

func TestInterfaceCompliance(t *testing.T) {
	var _ he.Backend = (*Backend)(nil)
	var _ he.Backend = (*heclear.Backend)(nil)
}

// TestCrossBackendEquivalence runs the same random dataflow over the BGV
// backend and the clear backend and requires identical results. This is
// the conformance test that lets all higher-level COPSE properties be
// verified cheaply on the clear backend.
func TestCrossBackendEquivalence(t *testing.T) {
	bg := newBackend(t, 6, []int{1, 3})
	cl := heclear.New(bg.Slots(), bg.PlainModulus())
	r := rand.New(rand.NewPCG(11, 13))

	n := bg.Slots()
	mkBits := func() []uint64 {
		v := make([]uint64, n)
		for i := range v {
			v[i] = uint64(r.IntN(2))
		}
		return v
	}

	va, vb, vm := mkBits(), mkBits(), mkBits()
	encBoth := func(v []uint64) (he.Ciphertext, he.Ciphertext) {
		cb, err := bg.Encrypt(v)
		if err != nil {
			t.Fatal(err)
		}
		cc, err := cl.Encrypt(v)
		if err != nil {
			t.Fatal(err)
		}
		return cb, cc
	}
	ab, ac := encBoth(va)
	bb, bc := encBoth(vb)
	pmB, err := bg.EncodePlain(vm)
	if err != nil {
		t.Fatal(err)
	}
	pmC, err := cl.EncodePlain(vm)
	if err != nil {
		t.Fatal(err)
	}

	// aligned drops the top-level operand x to cur's level, as a
	// program's opDrop would: the BGV backend refuses a binary op across
	// levels. On the clear backend, which has no levels, it is a no-op.
	aligned := func(b he.Backend, x, cur he.Ciphertext) he.Ciphertext {
		op, err := he.DropToLevel(b, he.Cipher(x), he.OperandLimbs(b, he.Cipher(cur))-1)
		if err != nil {
			t.Fatal(err)
		}
		return op.Ct
	}

	type step struct {
		name string
		bgv  func() (he.Ciphertext, error)
		clr  func() (he.Ciphertext, error)
	}
	var curB, curC he.Ciphertext = ab, ac
	steps := []step{
		{"mul", func() (he.Ciphertext, error) { return bg.Mul(curB, bb) }, func() (he.Ciphertext, error) { return cl.Mul(curC, bc) }},
		{"addplain", func() (he.Ciphertext, error) { return bg.AddPlain(curB, pmB) }, func() (he.Ciphertext, error) { return cl.AddPlain(curC, pmC) }},
		{"rotate3", func() (he.Ciphertext, error) { return bg.Rotate(curB, 3) }, func() (he.Ciphertext, error) { return cl.Rotate(curC, 3) }},
		{"mulplain", func() (he.Ciphertext, error) { return bg.MulPlain(curB, pmB) }, func() (he.Ciphertext, error) { return cl.MulPlain(curC, pmC) }},
		{"sub", func() (he.Ciphertext, error) { return bg.Sub(curB, aligned(bg, bb, curB)) }, func() (he.Ciphertext, error) { return cl.Sub(curC, aligned(cl, bc, curC)) }},
		{"add", func() (he.Ciphertext, error) { return bg.Add(curB, aligned(bg, bb, curB)) }, func() (he.Ciphertext, error) { return cl.Add(curC, aligned(cl, bc, curC)) }},
		{"neg", func() (he.Ciphertext, error) { return bg.Neg(curB) }, func() (he.Ciphertext, error) { return cl.Neg(curC) }},
		{"mul2", func() (he.Ciphertext, error) { return bg.Mul(curB, curB) }, func() (he.Ciphertext, error) { return cl.Mul(curC, curC) }},
	}
	for _, s := range steps {
		nb, err := s.bgv()
		if err != nil {
			t.Fatalf("%s on bgv: %v", s.name, err)
		}
		nc, err := s.clr()
		if err != nil {
			t.Fatalf("%s on clear: %v", s.name, err)
		}
		curB, curC = nb, nc
		gb, err := bg.Decrypt(curB)
		if err != nil {
			t.Fatalf("%s decrypt: %v", s.name, err)
		}
		gc, err := cl.Decrypt(curC)
		if err != nil {
			t.Fatal(err)
		}
		for i := range gb {
			if gb[i] != gc[i] {
				t.Fatalf("%s: backends disagree at slot %d: bgv=%d clear=%d", s.name, i, gb[i], gc[i])
			}
		}
	}
}

func TestNoiseBudgetExposed(t *testing.T) {
	b := newBackend(t, 3, nil)
	ct, err := b.Encrypt([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	budget, err := b.NoiseBudget(ct)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Errorf("fresh budget %d", budget)
	}
	prod, err := b.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	budget2, err := b.NoiseBudget(prod)
	if err != nil {
		t.Fatal(err)
	}
	if budget2 <= 0 {
		t.Errorf("post-mul budget %d", budget2)
	}
}

func TestCountsOnBGV(t *testing.T) {
	b := newBackend(t, 3, []int{1})
	ct, _ := b.Encrypt([]uint64{1})
	b.ResetCounts()
	if _, err := b.Mul(ct, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Rotate(ct, 1); err != nil {
		t.Fatal(err)
	}
	c := b.Counts()
	if c.Mul != 1 || c.Rotate != 1 {
		t.Errorf("counts: %v", c)
	}
	if c.MaxDepth != 1 {
		t.Errorf("depth: %d", c.MaxDepth)
	}
}

// TestLevelCapabilities: the BGV backend implements the optional level
// interfaces — proactive drops, leveled encryption, pre-lifted plaintext
// encoding — and the CountingBackend wrapper passes them through with
// limb accounting; a binary op across levels is refused; the clear
// backend stays a no-op.
func TestLevelCapabilities(t *testing.T) {
	b := newBackend(t, 6, []int{2})
	var backend he.Backend = b
	ld, ok := backend.(he.LevelDropper)
	if !ok {
		t.Fatal("BGV backend does not implement he.LevelDropper")
	}
	if _, ok := backend.(he.LevelEncrypter); !ok {
		t.Fatal("BGV backend does not implement he.LevelEncrypter")
	}
	if ld.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", ld.MaxLevel())
	}

	vals := make([]uint64, b.Slots())
	for i := range vals {
		vals[i] = uint64(i % 17)
	}
	ct, err := he.EncryptAtLevel(backend, vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if level, err := ld.CiphertextLevel(ct); err != nil || level != 2 {
		t.Fatalf("CiphertextLevel = %d, %v; want 2", level, err)
	}
	got, err := b.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d = %d, want %d", i, got[i], vals[i])
		}
	}

	// DropToLevel is functional: the input keeps its level.
	top, err := b.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := ld.DropToLevel(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	if level, _ := ld.CiphertextLevel(dropped); level != 1 {
		t.Fatalf("dropped level = %d, want 1", level)
	}
	if level, _ := ld.CiphertextLevel(top); level != 5 {
		t.Fatalf("DropToLevel mutated its input (level %d)", level)
	}
	if same, err := ld.DropToLevel(dropped, 3); err != nil || same != dropped {
		t.Fatalf("DropToLevel below target should pass through unchanged (%v)", err)
	}
	got, err = b.Decrypt(dropped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dropped slot %d = %d, want %d", i, got[i], vals[i])
		}
	}

	// Operand helpers + counting wrapper limb integral.
	cb := he.WithCounts(b)
	op, err := he.DropToLevel(cb, he.Cipher(top), 2)
	if err != nil {
		t.Fatal(err)
	}
	if limbs := he.OperandLimbs(cb, op); limbs != 3 {
		t.Fatalf("OperandLimbs = %d, want 3", limbs)
	}
	if _, err := cb.Add(op.Ct, op.Ct); err != nil {
		t.Fatal(err)
	}
	if counts := cb.Counts(); counts.LimbOps != 3 {
		t.Fatalf("counting wrapper LimbOps = %d, want 3", counts.LimbOps)
	}
	// Operands at different levels: the backend refuses every binary op
	// on them, through the wrapper too, moves neither operand, and
	// neither counter records the op.
	before, wrapped := b.Counts(), cb.Counts()
	binary := map[string]func(x, y he.Ciphertext) (he.Ciphertext, error){
		"Add": cb.Add, "Sub": cb.Sub, "Mul": cb.Mul, "MulLazy": cb.MulLazy,
	}
	for name, f := range binary {
		out, err := f(top, op.Ct)
		var mismatch *bgv.LevelMismatchError
		if !errors.As(err, &mismatch) || out != nil || mismatch.A != 5 || mismatch.B != 2 {
			t.Fatalf("%s of levels 5 and 2: %v, %v; want a *bgv.LevelMismatchError{5, 2}", name, out, err)
		}
	}
	if level, _ := ld.CiphertextLevel(top); level != 5 {
		t.Fatalf("a refused op moved its operand to level %d", level)
	}
	if b.Counts() != before || cb.Counts() != wrapped {
		t.Fatalf("refused ops counted: backend %v → %v, wrapper %v → %v", before, b.Counts(), wrapped, cb.Counts())
	}

	// The clear backend has no level structure: helpers are no-ops.
	clear := heclear.Default()
	cct, err := clear.Encrypt(vals[:clear.Slots()])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := interface{}(clear).(he.LevelDropper); ok {
		t.Fatal("clear backend unexpectedly leveled")
	}
	cop, err := he.DropToLevel(clear, he.Cipher(cct), 1)
	if err != nil || cop.Ct != cct {
		t.Fatalf("clear DropToLevel should pass through (%v)", err)
	}
	if limbs := he.OperandLimbs(clear, cop); limbs != 0 {
		t.Fatalf("clear OperandLimbs = %d, want 0", limbs)
	}
}

// TestPublicMaterialEncrypts: a backend built from public material only —
// a gateway's — holds no secret key to encrypt under, so it encrypts through
// the public key, at the top of the chain and at a scheduled level alike;
// the key holder, which encrypts under its secret key, decrypts both kinds,
// and the public-only backend decrypts neither.
func TestPublicMaterialEncrypts(t *testing.T) {
	full := newBackend(t, 4, nil)
	pub, err := NewFromMaterial(Config{Seed: 9}, full.PublicMaterial())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(9, 9))
	vals := make([]uint64, full.Slots())
	for i := range vals {
		vals[i] = r.Uint64N(full.PlainModulus())
	}
	var cts []he.Ciphertext
	for _, b := range []*Backend{pub, full} {
		top, err := b.Encrypt(vals)
		if err != nil {
			t.Fatal(err)
		}
		low, err := b.EncryptAtLevel(vals, 1)
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, top, low)
	}
	for i, ct := range cts {
		got, err := full.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		for j := range vals {
			if got[j] != vals[j] {
				t.Fatalf("ciphertext %d, slot %d: %d, want %d", i, j, got[j], vals[j])
			}
		}
		if _, err := pub.Decrypt(ct); err == nil {
			t.Errorf("ciphertext %d: the public-only backend decrypted it", i)
		}
	}
}
