package hebgv

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"testing"

	"copse/internal/bgv"
	"copse/internal/chaos"
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

// TestLevelCapabilities: the BGV backend's level structure — proactive
// drops, leveled encryption, pre-lifted plaintext encoding — and the
// operand helpers that read it; a binary op across levels is refused; the
// clear backend, bare and wrapped in the chaos decorator, is the level-0
// instance.
func TestLevelCapabilities(t *testing.T) {
	b := newBackend(t, 6, []int{2})
	if b.MaxLevel() != 5 {
		t.Fatalf("MaxLevel = %d, want 5", b.MaxLevel())
	}

	vals := make([]uint64, b.Slots())
	for i := range vals {
		vals[i] = uint64(i % 17)
	}
	ct, err := he.EncryptAtLevel(b, vals, 2)
	if err != nil {
		t.Fatal(err)
	}
	if level, err := b.CiphertextLevel(ct); err != nil || level != 2 {
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
	dropped, err := b.DropToLevel(top, 1)
	if err != nil {
		t.Fatal(err)
	}
	if level, _ := b.CiphertextLevel(dropped); level != 1 {
		t.Fatalf("dropped level = %d, want 1", level)
	}
	if level, _ := b.CiphertextLevel(top); level != 5 {
		t.Fatalf("DropToLevel mutated its input (level %d)", level)
	}
	if same, err := b.DropToLevel(dropped, 3); err != nil || same != dropped {
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

	// Operand helpers.
	op, err := he.DropToLevel(b, he.Cipher(top), 2)
	if err != nil {
		t.Fatal(err)
	}
	if limbs := he.OperandLimbs(b, op); limbs != 3 {
		t.Fatalf("OperandLimbs = %d, want 3", limbs)
	}
	// Operands at different levels: the backend refuses every binary op
	// on them, moves neither operand, and does not count the op.
	before := b.Counts()
	binary := map[string]func(x, y he.Ciphertext) (he.Ciphertext, error){
		"Add": b.Add, "Sub": b.Sub, "Mul": b.Mul, "MulLazy": b.MulLazy,
	}
	for name, f := range binary {
		out, err := f(top, op.Ct)
		var mismatch *bgv.LevelMismatchError
		if !errors.As(err, &mismatch) || out != nil || mismatch.A != 5 || mismatch.B != 2 {
			t.Fatalf("%s of levels 5 and 2: %v, %v; want a *bgv.LevelMismatchError{5, 2}", name, out, err)
		}
	}
	if level, _ := b.CiphertextLevel(top); level != 5 {
		t.Fatalf("a refused op moved its operand to level %d", level)
	}
	if b.Counts() != before {
		t.Fatalf("refused ops counted: %v → %v", before, b.Counts())
	}

	// The clear backend, bare and wrapped, has no chain: everything is at
	// level 0, a drop is the identity, leveled encryption and encoding are
	// Encrypt and EncodePlain, noise is unmeasured and limbs are not
	// counted.
	for name, clear := range map[string]he.Backend{
		"clear":        heclear.Default(),
		"chaos(clear)": chaos.WrapBackend(heclear.Default(), chaos.NewSchedule(chaos.Config{})),
	} {
		vals := vals[:clear.Slots()]
		if top := clear.MaxLevel(); top != 0 {
			t.Errorf("%s: MaxLevel = %d, want 0", name, top)
		}
		cct, err := clear.Encrypt(vals)
		if err != nil {
			t.Fatal(err)
		}
		before := clear.Counts()
		lct, err := clear.EncryptAtLevel(vals, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got := clear.Counts().Minus(before); got != (he.OpCounts{Encrypt: 1}) {
			t.Errorf("%s: EncryptAtLevel counted %v, want one encryption", name, got)
		}
		want, _ := clear.Decrypt(cct)
		if got, err := clear.Decrypt(lct); err != nil || !slices.Equal(got, want) {
			t.Errorf("%s: EncryptAtLevel decrypts to %v (%v), Encrypt to %v", name, got, err, want)
		}
		for _, ct := range []he.Ciphertext{cct, lct} {
			if level, err := clear.CiphertextLevel(ct); err != nil || level != 0 {
				t.Errorf("%s: CiphertextLevel = %d, %v; want 0", name, level, err)
			}
			if out, err := clear.DropToLevel(ct, 1); err != nil || out != ct {
				t.Errorf("%s: DropToLevel is not the identity (%v)", name, err)
			}
		}
		pt, err := clear.EncodePlain(vals)
		if err != nil {
			t.Fatal(err)
		}
		lpt, err := clear.EncodePlainAtLevel(vals, 3)
		if err != nil {
			t.Fatal(err)
		}
		prod, _ := clear.MulPlain(cct, pt)
		lprod, _ := clear.MulPlain(cct, lpt)
		want, _ = clear.Decrypt(prod)
		if got, err := clear.Decrypt(lprod); err != nil || !slices.Equal(got, want) {
			t.Errorf("%s: EncodePlainAtLevel multiplies to %v (%v), EncodePlain to %v", name, got, err, want)
		}
		if _, err := clear.NoiseBudget(cct); err == nil {
			t.Errorf("%s: NoiseBudget measured exact arithmetic", name)
		}
		op, err := he.DropToLevel(clear, he.Cipher(cct), 1)
		if err != nil || op.Ct != cct {
			t.Errorf("%s: he.DropToLevel should pass through (%v)", name, err)
		}
		if noise := he.NoiseBudgetOf(clear, op); noise != -1 {
			t.Errorf("%s: NoiseBudgetOf = %d, want -1", name, noise)
		}
		if limbs := he.OperandLimbs(clear, op); limbs != 0 {
			t.Errorf("%s: OperandLimbs = %d, want 0", name, limbs)
		}
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

// wantMissingKey fails t unless err is a *bgv.MissingKeyError with
// exactly the given fields.
func wantMissingKey(t *testing.T, what string, err error, want bgv.MissingKeyError) {
	t.Helper()
	var mk *bgv.MissingKeyError
	if !errors.As(err, &mk) {
		t.Fatalf("%s: err %v, want *bgv.MissingKeyError", what, err)
	}
	if *mk != want {
		t.Fatalf("%s: refused with %+v, want %+v", what, *mk, want)
	}
}

// TestRotationRefusedUncounted: a rotation above its key's level, or with
// no key, is refused with the evaluator's *bgv.MissingKeyError, and the
// backend's counters do not move.
func TestRotationRefusedUncounted(t *testing.T) {
	b, err := New(Config{Params: bgv.TestParams(4), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.EnsureRotationKeys([]he.Rotation{{Step: 1, Level: 1}}); err != nil {
		t.Fatal(err)
	}
	ct, err := b.Encrypt([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b.ResetCounts()
	top := b.MaxLevel()
	_, err = b.Rotate(ct, 1)
	wantMissingKey(t, "Rotate(1) above the key", err, bgv.MissingKeyError{Step: 1, Level: top, KeyLevel: 1})
	_, err = b.RotateHoisted(ct, []int{0, 1})
	wantMissingKey(t, "RotateHoisted(0, 1) above the key", err, bgv.MissingKeyError{Step: 1, Level: top, KeyLevel: 1})
	_, err = b.RotateHoisted(ct, []int{2})
	wantMissingKey(t, "RotateHoisted(2) with no key", err, bgv.MissingKeyError{Step: 2, Level: top, KeyLevel: -1})
	if got := b.Counts(); got != (he.OpCounts{}) {
		t.Errorf("backend counted refused rotations: %v", got)
	}
}

// TestEnsureRotationKeysPublicMaterial: a backend without the secret key
// passes the rotations its key set already serves and refuses the first
// other one with a *bgv.MissingKeyError.
func TestEnsureRotationKeysPublicMaterial(t *testing.T) {
	full := newBackend(t, 4, []int{1})
	top := full.MaxLevel()
	m := full.Material()
	m.Secret = nil
	keyed, err := NewFromMaterial(Config{Seed: 9}, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := keyed.EnsureRotationKeys([]he.Rotation{{Step: 1, Level: top}, {Step: 0, Level: top}}); err != nil {
		t.Errorf("rotations the key set serves: %v", err)
	}
	err = keyed.EnsureRotationKeys([]he.Rotation{{Step: 1, Level: top}, {Step: 2, Level: top + 3}})
	wantMissingKey(t, "step 2 on keyed public material", err, bgv.MissingKeyError{Step: 2, Level: top, KeyLevel: -1})
	pub, err := NewFromMaterial(Config{Seed: 9}, full.PublicMaterial())
	if err != nil {
		t.Fatal(err)
	}
	err = pub.EnsureRotationKeys([]he.Rotation{{Step: 1, Level: 0}})
	wantMissingKey(t, "step 1 on public material", err, bgv.MissingKeyError{Step: 1, Level: 0, KeyLevel: -1})
}

// TestRotateHoistedCounts: a hoisted batch with step-0 copies — 0 and
// the slot count — counts every other step as one hoisted rotation of the
// ciphertext's limbs, and the copies as nothing: the rule a program's bill
// follows (core.Program.StageBills).
func TestRotateHoistedCounts(t *testing.T) {
	b := newBackend(t, 4, []int{1, 3, -2})
	ct, err := b.EncryptAtLevel([]uint64{5, 6, 7}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.ResetCounts()
	if _, err := b.RotateHoisted(ct, []int{0, 1, 3, b.Slots(), -2}); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Counts(), (he.OpCounts{Rotate: 3, RotateHoisted: 3, LimbOps: 3 * 3}); got != want {
		t.Errorf("counted %v, want 3 hoisted rotations of 3 limbs", got)
	}
}

// encryptionSet is eight random vectors, a query's worth of planes.
func encryptionSet(b *Backend, seed uint64) [][]uint64 {
	r := rand.New(rand.NewPCG(seed, seed))
	set := make([][]uint64, 8)
	for i := range set {
		set[i] = make([]uint64, b.Slots())
		for j := range set[i] {
			set[i][j] = r.Uint64N(b.PlainModulus())
		}
	}
	return set
}

// TestEncryptSetDeterministic: a seeded backend's set encryption is the
// same ciphertexts, coefficient for coefficient, on one encryption
// goroutine and on four, and again in a second run — under the secret key
// and through the public key (a gateway) — and they are the ciphertexts
// the backend makes one EncryptAtLevel at a time.
func TestEncryptSetDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	full := newBackend(t, 4, nil)
	kinds := map[string]func() *Backend{
		"secret key": func() *Backend { return newBackend(t, 4, nil) },
		"public key": func() *Backend {
			b, err := NewFromMaterial(Config{Seed: 9}, full.PublicMaterial())
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
	}
	set := encryptionSet(full, 4)
	const level = 2
	coeffs := func(b *Backend, cts []he.Ciphertext) [][][]uint64 {
		var out [][][]uint64
		for _, ct := range cts {
			raw, _, err := b.ExportCiphertext(ct)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range raw.C {
				out = append(out, p.Coeffs)
			}
		}
		return out
	}
	for name, mk := range kinds {
		var runs [][][][]uint64
		for _, procs := range []int{1, 4, 4} {
			runtime.GOMAXPROCS(procs)
			b := mk()
			cts, err := b.EncryptSetAtLevel(set, level)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, coeffs(b, cts))
		}
		runtime.GOMAXPROCS(4)
		one := mk()
		var single []he.Ciphertext
		for _, vals := range set {
			ct, err := one.EncryptAtLevel(vals, level)
			if err != nil {
				t.Fatal(err)
			}
			single = append(single, ct)
		}
		runs = append(runs, coeffs(one, single))
		for i, run := range runs[1:] {
			if !slices.EqualFunc(run, runs[0], func(a, b [][]uint64) bool { return slices.EqualFunc(a, b, slices.Equal) }) {
				t.Errorf("%s: run %d differs from the one-goroutine set", name, i+1)
			}
		}
	}
}

// TestEncryptConcurrent: eight goroutines encrypting sets on one backend
// at once each get ciphertexts of their own vectors (run it under -race).
func TestEncryptConcurrent(t *testing.T) {
	b := newBackend(t, 3, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				set := encryptionSet(b, uint64(10*g+round))
				cts, err := b.EncryptSetAtLevel(set, 1+round%2)
				if err != nil {
					errs <- err
					return
				}
				for i, ct := range cts {
					got, err := b.Decrypt(ct)
					if err != nil {
						errs <- err
						return
					}
					if !slices.Equal(got, set[i]) {
						errs <- fmt.Errorf("goroutine %d, round %d: ciphertext %d decrypts to another vector", g, round, i)
						return
					}
					he.Release(ct)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
