package ring

import (
	"math/big"
	"testing"
)

// hybridContext returns a key-switching context: a `levels`-prime chain
// plus DigitPrimes special primes, all 55 bits at logN 6.
func hybridContext(t testing.TB, levels int) *Context {
	t.Helper()
	const logN, plainT = 6, 257
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, levels+DigitPrimes)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
	if err != nil {
		t.Fatalf("NewContextQP: %v", err)
	}
	return ctx
}

// bigCRT reconstructs, through reconstructCoeff, the integers in [0, M)
// whose residues are the given coefficient-domain rows over moduli.
func bigCRT(t testing.TB, ctx *Context, moduli []*Modulus, rows [][]uint64) []*big.Int {
	t.Helper()
	qs := make([]uint64, len(moduli))
	for i, m := range moduli {
		qs[i] = m.Q
	}
	sub, err := NewContext(ctx.LogN, qs, ctx.T)
	if err != nil {
		t.Fatalf("NewContext over sub-basis: %v", err)
	}
	cl := sub.crt[len(qs)-1]
	out := make([]*big.Int, ctx.N)
	res := make([]uint64, len(rows))
	scratch := new(big.Int)
	for j := range out {
		for i := range rows {
			res[i] = rows[i][j]
		}
		out[j] = new(big.Int)
		cl.reconstructCoeff(res, sub.Moduli, out[j], scratch)
	}
	return out
}

func centered(x, m *big.Int) *big.Int {
	c := new(big.Int).Set(x)
	if c.Cmp(new(big.Int).Rsh(m, 1)) > 0 {
		c.Sub(c, m)
	}
	return c
}

func modU64(x *big.Int, q uint64) uint64 {
	return new(big.Int).Mod(x, new(big.Int).SetUint64(q)).Uint64()
}

func product(moduli []*Modulus) *big.Int {
	p := big.NewInt(1)
	for _, m := range moduli {
		p.Mul(p, new(big.Int).SetUint64(m.Q))
	}
	return p
}

// TestDecomposeHybridAgainstBigInt checks every extended digit at every
// level — including the levels that cut a digit group short — against
// the big.Int CRT: each row of digit j must hold the centered
// representative of [p]_{D_j}.
func TestDecomposeHybridAgainstBigInt(t *testing.T) {
	const levels = 7
	ctx := hybridContext(t, levels)
	smp := NewSeededSampler(ctx, 21)
	for level := 0; level < levels; level++ {
		p := smp.UniformPoly(level, true)
		pc := p.Copy()
		ctx.INTT(pc)
		digits := ctx.DecomposeHybrid(p)
		if len(digits) != HybridDigits(level) {
			t.Fatalf("level %d: %d digits, want %d", level, len(digits), HybridDigits(level))
		}
		qp := ctx.QP(level)
		for j, d := range digits {
			lo, hi := digitSpan(j, level)
			group := ctx.Moduli[lo:hi]
			dj := product(group)
			want := bigCRT(t, ctx, group, pc.Coeffs[lo:hi])
			qp.INTT(d)
			for r, m := range qp.Moduli {
				for c := 0; c < ctx.N; c++ {
					if got, exp := d.Coeffs[r][c], modU64(centered(want[c], dj), m.Q); got != exp {
						t.Fatalf("level %d digit %d row %d coeff %d: got %d, want %d", level, j, r, c, got, exp)
					}
				}
			}
		}
		ctx.PutPolys(digits)
	}
}

// TestDivideByPAgainstBigInt checks (acc − δ)/P with δ = t·centered(
// [acc·t^{-1}]_P) against the same computation on reconstructed integers.
func TestDivideByPAgainstBigInt(t *testing.T) {
	const levels = 5
	ctx := hybridContext(t, levels)
	bigP := product(ctx.special)
	bigT := new(big.Int).SetUint64(ctx.T)
	tInv := new(big.Int).ModInverse(bigT, bigP)
	for level := 0; level < levels; level++ {
		qp := ctx.QP(level)
		acc := NewSeededSampler(qp, uint64(40+level)).UniformPoly(len(qp.Moduli)-1, true)
		coeff := acc.Copy()
		qp.INTT(coeff)
		x := bigCRT(t, ctx, qp.Moduli, coeff.Coeffs)

		out := ctx.NewPoly(level)
		ctx.DivideByP(acc, out)
		ctx.INTT(out)
		for c := 0; c < ctx.N; c++ {
			w := new(big.Int).Mul(x[c], tInv)
			w.Mod(w, bigP)
			delta := centered(w, bigP)
			delta.Mul(delta, bigT)
			num := new(big.Int).Sub(x[c], delta)
			quo, rem := new(big.Int).QuoRem(num, bigP, new(big.Int))
			if rem.Sign() != 0 {
				t.Fatalf("level %d coeff %d: acc − δ not divisible by P", level, c)
			}
			for i := 0; i <= level; i++ {
				if got, exp := out.Coeffs[i][c], modU64(quo, ctx.Moduli[i].Q); got != exp {
					t.Fatalf("level %d row %d coeff %d: got %d, want %d", level, i, c, got, exp)
				}
			}
		}
	}
}

// TestAutomorphismNTTMatchesCoefficientDomain: permuting evaluation
// points equals transforming the coefficient-domain automorphism.
func TestAutomorphismNTTMatchesCoefficientDomain(t *testing.T) {
	ctx := hybridContext(t, 3)
	smp := NewSeededSampler(ctx, 9)
	for _, g := range []uint64{3, 5, 9, 27, uint64(2*ctx.N) - 1} {
		p := smp.UniformPoly(ctx.MaxLevel(), false)
		want := ctx.NewPoly(ctx.MaxLevel())
		ctx.Automorphism(p, g, want)
		ctx.NTT(want)
		ctx.NTT(p)
		got := ctx.NewPoly(ctx.MaxLevel())
		ctx.AutomorphismNTT(p, g, got)
		if !polysEqual(got, want) {
			t.Fatalf("g=%d: NTT-domain automorphism differs from the coefficient-domain one", g)
		}
	}
}

// TestHybridVectorMatchesScalar: the key-switching ring ops are
// bit-identical with the vector kernels on and off (under purego both
// sides run the scalar kernels and the test is a tautology).
func TestHybridVectorMatchesScalar(t *testing.T) {
	const logN, levels, plainT = 8, 5, 257
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, levels+DigitPrimes)
	if err != nil {
		t.Fatal(err)
	}
	build := func(vec bool) *Context {
		ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
		if err != nil {
			t.Fatal(err)
		}
		ctx.SetVectorKernels(vec)
		return ctx
	}
	vec, scalar := build(true), build(false)
	for level := 0; level < levels; level++ {
		run := func(ctx *Context) []*Poly {
			p := NewSeededSampler(ctx, uint64(60+level)).UniformPoly(level, true)
			outs := ctx.DecomposeHybrid(p)
			acc := outs[0].Copy()
			quo := ctx.NewPoly(level)
			ctx.DivideByP(acc, quo)
			return append(outs, quo)
		}
		got, want := run(vec), run(scalar)
		for k := range want {
			if !polysEqual(got[k], want[k]) {
				t.Fatalf("level %d output %d: vector and scalar kernels disagree", level, k)
			}
		}
	}
}

func TestNewContextQPRejectsBadSpecialPrimes(t *testing.T) {
	const logN, plainT = 6, 257
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewContextQP(logN, primes[:2], primes[1:], plainT); err == nil {
		t.Error("a special prime shared with the chain was accepted")
	}
}
