package ring

import (
	"math/big"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// testContext builds a small ring for unit tests: N=64, three ~45-bit
// primes, plaintext modulus 257.
func testContext(t *testing.T) *Context {
	t.Helper()
	const logN = 6
	const plainT = 257
	primes, err := GeneratePrimes(45, uint64(2*(1<<logN))*plainT, 3)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	ctx, err := NewContext(logN, primes, plainT)
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	return ctx
}

func TestModArithAgainstBigInt(t *testing.T) {
	const q = 576460752308273153 // any large prime-ish modulus works here
	f := func(x, y uint64) bool {
		x %= q
		y %= q
		sum := new(big.Int).Add(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		sum.Mod(sum, big.NewInt(q))
		if AddMod(x, y, q) != sum.Uint64() {
			return false
		}
		diff := new(big.Int).Sub(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		diff.Mod(diff, big.NewInt(q))
		if SubMod(x, y, q) != diff.Uint64() {
			return false
		}
		prod := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(y))
		prod.Mod(prod, big.NewInt(q))
		return MulMod(x, y, q) == prod.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulModShoupMatchesMulMod(t *testing.T) {
	const q = 1152921504606830593
	f := func(x, w uint64) bool {
		x %= q
		w %= q
		ws := ShoupPrecomp(w, q)
		return MulModShoup(x, w, ws, q) == MulMod(x, w, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowAndInvMod(t *testing.T) {
	const q = 65537
	for x := uint64(1); x < 100; x++ {
		inv := InvMod(x, q)
		if MulMod(x, inv, q) != 1 {
			t.Fatalf("InvMod(%d) = %d is not an inverse", x, inv)
		}
	}
	if PowMod(3, 0, q) != 1 {
		t.Error("x^0 != 1")
	}
	if PowMod(3, 32768, q) != 65536 { // 3 generates Z_65537^*, 3^(phi/2) = -1
		t.Errorf("PowMod(3,32768,65537) = %d, want 65536", PowMod(3, 32768, q))
	}
}

func TestGeneratePrimes(t *testing.T) {
	const step = 2 * 2048 * 65537
	primes, err := GeneratePrimes(55, step, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, p := range primes {
		if seen[p] {
			t.Fatalf("duplicate prime %d", p)
		}
		seen[p] = true
		if (p-1)%step != 0 {
			t.Errorf("prime %d not ≡ 1 mod %d", p, step)
		}
		if !new(big.Int).SetUint64(p).ProbablyPrime(30) {
			t.Errorf("%d is not prime", p)
		}
		if p >= 1<<55 {
			t.Errorf("prime %d exceeds 2^55", p)
		}
	}
}

func TestGeneratePrimesErrors(t *testing.T) {
	if _, err := GeneratePrimes(10, 4096, 1); err == nil {
		t.Error("expected error for tiny bit length")
	}
	if _, err := GeneratePrimes(21, 1<<20, 1000); err == nil {
		t.Error("expected error when not enough primes exist")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 1)
	for trial := 0; trial < 20; trial++ {
		p := s.UniformPoly(ctx.MaxLevel(), false)
		orig := p.Copy()
		ctx.NTT(p)
		ctx.INTT(p)
		for i := range p.Coeffs {
			for j := range p.Coeffs[i] {
				if p.Coeffs[i][j] != orig.Coeffs[i][j] {
					t.Fatalf("trial %d: round trip mismatch at [%d][%d]", trial, i, j)
				}
			}
		}
	}
}

// TestNTTNegacyclicConvolution checks that the pointwise product in NTT
// domain equals the schoolbook negacyclic convolution.
func TestNTTNegacyclicConvolution(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 2)
	a := s.UniformPoly(0, false)
	b := s.UniformPoly(0, false)
	q := ctx.Moduli[0].Q
	n := ctx.N

	want := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := MulMod(a.Coeffs[0][i], b.Coeffs[0][j], q)
			k := i + j
			if k < n {
				want[k] = AddMod(want[k], prod, q)
			} else {
				want[k-n] = SubMod(want[k-n], prod, q)
			}
		}
	}

	ctx.NTT(a)
	ctx.NTT(b)
	out := ctx.NewPoly(0)
	ctx.MulCoeffs(a, b, out)
	ctx.INTT(out)
	for j := 0; j < n; j++ {
		if out.Coeffs[0][j] != want[j] {
			t.Fatalf("negacyclic convolution mismatch at %d: got %d want %d", j, out.Coeffs[0][j], want[j])
		}
	}
}

func TestAddSubNegMulScalar(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 3)
	a := s.UniformPoly(ctx.MaxLevel(), false)
	b := s.UniformPoly(ctx.MaxLevel(), false)
	sum := ctx.NewPoly(ctx.MaxLevel())
	ctx.Add(a, b, sum)
	diff := ctx.NewPoly(ctx.MaxLevel())
	ctx.Sub(sum, b, diff)
	for i := range diff.Coeffs {
		for j := range diff.Coeffs[i] {
			if diff.Coeffs[i][j] != a.Coeffs[i][j] {
				t.Fatal("a+b-b != a")
			}
		}
	}
	neg := ctx.NewPoly(ctx.MaxLevel())
	ctx.Neg(a, neg)
	ctx.Add(a, neg, sum)
	for i := range sum.Coeffs {
		for j := range sum.Coeffs[i] {
			if sum.Coeffs[i][j] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
	tripled := ctx.NewPoly(ctx.MaxLevel())
	ctx.MulScalar(a, 3, tripled)
	ctx.Add(a, a, sum)
	ctx.Add(sum, a, sum)
	for i := range sum.Coeffs {
		for j := range sum.Coeffs[i] {
			if sum.Coeffs[i][j] != tripled.Coeffs[i][j] {
				t.Fatal("3a != a+a+a")
			}
		}
	}
}

// TestAutomorphism verifies x -> x^g against direct monomial mapping and
// the composition law.
func TestAutomorphism(t *testing.T) {
	ctx := testContext(t)
	n := ctx.N
	q := ctx.Moduli[0].Q

	// sigma_g(x^j) = ± x^{jg mod n}: check every monomial for g=3.
	for j := 0; j < n; j++ {
		p := ctx.NewPoly(0)
		p.Coeffs[0][j] = 1
		out := ctx.NewPoly(0)
		ctx.Automorphism(p, 3, out)
		k := (j * 3) % (2 * n)
		wantIdx := k % n
		wantVal := uint64(1)
		if k >= n {
			wantVal = q - 1
		}
		for idx, v := range out.Coeffs[0] {
			want := uint64(0)
			if idx == wantIdx {
				want = wantVal
			}
			if v != want {
				t.Fatalf("sigma_3(x^%d): coeff %d = %d, want %d", j, idx, v, want)
			}
		}
	}

	// Composition: sigma_5(sigma_3(p)) == sigma_15(p).
	s := NewSeededSampler(ctx, 4)
	p := s.UniformPoly(0, false)
	t1 := ctx.NewPoly(0)
	t2 := ctx.NewPoly(0)
	ctx.Automorphism(p, 3, t1)
	ctx.Automorphism(t1, 5, t2)
	want := ctx.NewPoly(0)
	ctx.Automorphism(p, 15, want)
	for j := range want.Coeffs[0] {
		if t2.Coeffs[0][j] != want.Coeffs[0][j] {
			t.Fatalf("composition mismatch at %d", j)
		}
	}
}

func TestSetLiftAndToCenteredMod(t *testing.T) {
	ctx := testContext(t)
	coeffs := make([]int64, ctx.N)
	r := rand.New(rand.NewPCG(7, 7))
	for j := range coeffs {
		coeffs[j] = int64(r.IntN(int(ctx.T))) - int64(ctx.T)/2
	}
	p := ctx.NewPoly(ctx.MaxLevel())
	ctx.SetLift(coeffs, p)
	got, bits := ctx.ToCenteredMod(p, ctx.T)
	if want := ctx.MaxCenteredBits(p); bits != want {
		t.Errorf("ToCenteredMod measured %d bits, MaxCenteredBits %d", bits, want)
	}
	for j, c := range coeffs {
		want := ((c % int64(ctx.T)) + int64(ctx.T)) % int64(ctx.T)
		if got[j] != uint64(want) {
			t.Fatalf("coeff %d: got %d want %d", j, got[j], want)
		}
	}
}

// TestModSwitchDown checks that switching m + t*e down a level preserves
// the plaintext and shrinks the noise.
func TestModSwitchDown(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 5)
	level := ctx.MaxLevel()

	msg := make([]int64, ctx.N)
	r := rand.New(rand.NewPCG(8, 8))
	for j := range msg {
		msg[j] = int64(r.IntN(int(ctx.T)))
	}
	p := ctx.NewPoly(level)
	ctx.SetLift(msg, p)

	e := s.ErrorPoly(level)
	te := ctx.NewPoly(level)
	ctx.MulScalar(e, ctx.T, te)
	ctx.Add(p, te, p)

	before := ctx.MaxCenteredBits(p)
	ctx.NTT(p)
	ctx.ModSwitchDown(p)
	ctx.INTT(p)
	after := ctx.MaxCenteredBits(p)

	got, bits := ctx.ToCenteredMod(p, ctx.T)
	if bits != after {
		t.Errorf("ToCenteredMod measured %d bits after the switch, MaxCenteredBits %d", bits, after)
	}
	for j, m := range msg {
		if got[j] != uint64(m) {
			t.Fatalf("plaintext changed at %d: got %d want %d", j, got[j], m)
		}
	}
	if after >= before {
		t.Errorf("noise bits did not shrink: before=%d after=%d", before, after)
	}
	if p.Level() != level-1 {
		t.Errorf("level = %d, want %d", p.Level(), level-1)
	}
}

// TestDecomposeBase2w verifies Σ digits[k]·2^{kw} == p in every residue.
func TestDecomposeBase2w(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 6)
	for _, w := range []int{13, 20, 30} {
		p := s.UniformPoly(ctx.MaxLevel(), false)
		digits := ctx.DecomposeBase2w(p, w)
		if want := (ctx.BigQ(ctx.MaxLevel()).BitLen() + w - 1) / w; len(digits) != want {
			t.Fatalf("w=%d: got %d digits, want %d", w, len(digits), want)
		}
		// Work in NTT domain (linearity).
		ref := p.Copy()
		ctx.NTT(ref)
		acc := ctx.NewPoly(ctx.MaxLevel())
		acc.IsNTT = true
		scaled := ctx.NewPoly(ctx.MaxLevel())
		for k, d := range digits {
			factor := new(big.Int).Lsh(big.NewInt(1), uint(k*w))
			for i := range acc.Coeffs {
				q := ctx.Moduli[i].Q
				f := new(big.Int).Mod(factor, new(big.Int).SetUint64(q)).Uint64()
				for j := range acc.Coeffs[i] {
					scaled.Coeffs[i][j] = MulMod(d.Coeffs[i][j], f, q)
				}
			}
			scaled.IsNTT = true
			ctx.Add(acc, scaled, acc)
		}
		for i := range acc.Coeffs {
			for j := range acc.Coeffs[i] {
				if acc.Coeffs[i][j] != ref.Coeffs[i][j] {
					t.Fatalf("w=%d: reconstruction mismatch at [%d][%d]", w, i, j)
				}
			}
		}
	}
}

func TestExtractBitsWords(t *testing.T) {
	v := new(big.Int).SetUint64(0xDEADBEEFCAFEF00D)
	v.Lsh(v, 64)
	v.Or(v, new(big.Int).SetUint64(0x0123456789ABCDEF))
	words := toWords(v, 2)
	cases := []struct {
		start, width int
		want         uint64
	}{
		{0, 16, 0xCDEF},
		{4, 16, 0xBCDE},
		{60, 8, 0xD0},
		{64, 32, 0xCAFEF00D},
		{120, 8, 0xDE},
		{124, 8, 0x0D},
		{128, 16, 0},
	}
	for _, c := range cases {
		if got := extractBitsWords(words, c.start, c.width); got != c.want {
			t.Errorf("extractBitsWords(%d,%d) = %#x, want %#x", c.start, c.width, got, c.want)
		}
	}
	if w := toWords(v, 3); w[2] != 0 || w[1] != 0xDEADBEEFCAFEF00D {
		t.Errorf("toWords padding: %#x", w)
	}
}

func TestSamplerDistributions(t *testing.T) {
	ctx := testContext(t)
	s := NewSeededSampler(ctx, 9)

	tern := s.TernaryPoly(0)
	q := ctx.Moduli[0].Q
	for _, c := range tern.Coeffs[0] {
		if c != 0 && c != 1 && c != q-1 {
			t.Fatalf("ternary coefficient %d not in {-1,0,1}", c)
		}
	}

	e := s.ErrorPoly(0)
	for _, c := range e.Coeffs[0] {
		centered := int64(c)
		if c > q/2 {
			centered = int64(c) - int64(q)
		}
		if centered < -21 || centered > 21 {
			t.Fatalf("error coefficient %d outside CBD(21) range", centered)
		}
	}

	// Deterministic for equal seeds, different for different seeds.
	a := NewSeededSampler(ctx, 42).UniformPoly(0, false)
	b := NewSeededSampler(ctx, 42).UniformPoly(0, false)
	c := NewSeededSampler(ctx, 43).UniformPoly(0, false)
	same, diff := true, false
	for j := range a.Coeffs[0] {
		if a.Coeffs[0][j] != b.Coeffs[0][j] {
			same = false
		}
		if a.Coeffs[0][j] != c.Coeffs[0][j] {
			diff = true
		}
	}
	if !same {
		t.Error("equal seeds produced different polys")
	}
	if !diff {
		t.Error("different seeds produced identical polys")
	}
}

// TestFusedNTTMatchesGeneric pins the fused radix-4-style kernels to the
// reference layer-at-a-time sweeps across transform sizes.
func TestFusedNTTMatchesGeneric(t *testing.T) {
	for _, logN := range []int{4, 5, 6, 8, 11, 13} {
		n := 1 << logN
		primes, err := GeneratePrimes(55, uint64(2*n), 1)
		if err != nil {
			t.Fatalf("GeneratePrimes(logN=%d): %v", logN, err)
		}
		m, err := NewModulus(primes[0], n)
		if err != nil {
			t.Fatalf("NewModulus(logN=%d): %v", logN, err)
		}
		a := make([]uint64, n)
		for j := range a {
			a[j] = (uint64(j)*0x9e3779b97f4a7c15 + 12345) % m.Q
		}
		fused := append([]uint64(nil), a...)
		generic := append([]uint64(nil), a...)
		m.NTT(fused)
		m.NTTGeneric(generic)
		for j := range fused {
			if fused[j] != generic[j] {
				t.Fatalf("logN=%d: fused NTT differs from generic at %d", logN, j)
			}
		}
		m.INTT(fused)
		m.INTTGeneric(generic)
		for j := range fused {
			if fused[j] != generic[j] {
				t.Fatalf("logN=%d: fused INTT differs from generic at %d", logN, j)
			}
			if fused[j] != a[j] {
				t.Fatalf("logN=%d: NTT/INTT roundtrip broke at %d", logN, j)
			}
		}
	}
}

// TestWorkersRunCoverage checks the span partition covers every index

func polysEqual(a, b *Poly) bool {
	if len(a.Coeffs) != len(b.Coeffs) || a.IsNTT != b.IsNTT {
		return false
	}
	for i := range a.Coeffs {
		if !slices.Equal(a.Coeffs[i], b.Coeffs[i]) {
			return false
		}
	}
	return true
}
