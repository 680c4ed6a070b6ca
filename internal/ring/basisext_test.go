package ring

import (
	"fmt"
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

// checkRounding asserts out = (x − δ)/D over out's primes, with
// δ = t·centered([x·t^{-1}]_D) computed on the reconstructed integers x
// of the polynomial the rounding started from (coefficient-domain rows
// over moduli) and D the product of dropped.
func checkRounding(t *testing.T, ctx *Context, what string, moduli []*Modulus, rows [][]uint64, dropped []*Modulus, out *Poly) {
	t.Helper()
	x := bigCRT(t, ctx, moduli, rows)
	bigD := product(dropped)
	bigT := new(big.Int).SetUint64(ctx.T)
	tInv := new(big.Int).ModInverse(bigT, bigD)
	got := out.Copy()
	ctx.INTT(got)
	for c := 0; c < ctx.N; c++ {
		w := new(big.Int).Mul(x[c], tInv)
		w.Mod(w, bigD)
		delta := centered(w, bigD)
		delta.Mul(delta, bigT)
		quo, rem := new(big.Int).QuoRem(new(big.Int).Sub(x[c], delta), bigD, new(big.Int))
		if rem.Sign() != 0 {
			t.Fatalf("%s coeff %d: x − δ not divisible by the dropped modulus", what, c)
		}
		for i := range got.Coeffs {
			if g, exp := got.Coeffs[i][c], modU64(quo, ctx.Moduli[i].Q); g != exp {
				t.Fatalf("%s row %d coeff %d: got %d, want %d", what, i, c, g, exp)
			}
		}
	}
}

// TestRoundingAgainstBigInt checks every call of the rounding kernel —
// dropping 1..maxConvPrimes chain primes (and more, in steps) from every
// level of a 14-prime chain, the special modulus, and the special
// modulus with a chain prime — against the same rounding on big.Int.
func TestRoundingAgainstBigInt(t *testing.T) {
	const levels = 14
	ctx := hybridContext(t, levels)
	for level := 0; level < levels; level++ {
		p := NewSeededSampler(ctx, uint64(30+level)).UniformPoly(level, true)
		coeff := p.Copy()
		ctx.INTT(coeff)
		for k := 1; k <= min(level, maxConvPrimes+2); k++ {
			before := p.Copy()
			out := ctx.GetPoly(level - k)
			ctx.ModSwitchDownTo(p, out)
			if !polysEqual(p, before) {
				t.Fatalf("level %d drop %d: input modified", level, k)
			}
			checkRounding(t, ctx, fmt.Sprintf("level %d drop %d", level, k),
				ctx.Moduli[:level+1], coeff.Coeffs, ctx.Moduli[level-k+1:level+1], out)
			ctx.PutPoly(out)
		}

		qp := ctx.QP(level)
		acc := NewSeededSampler(qp, uint64(60+level)).UniformPoly(len(qp.Moduli)-1, true)
		accCoeff := acc.Copy()
		qp.INTT(accCoeff)
		out := ctx.NewPoly(level)
		ctx.DivideByP(acc.Copy(), out)
		checkRounding(t, ctx, fmt.Sprintf("level %d divide by P", level), qp.Moduli, accCoeff.Coeffs, ctx.special, out)
		if level > 0 {
			out := ctx.NewPoly(level - 1)
			ctx.DivideByPQ(acc, out)
			checkRounding(t, ctx, fmt.Sprintf("level %d divide by P·q", level), qp.Moduli, accCoeff.Coeffs, qp.Moduli[level:], out)
		}
	}
}

// modSwitchDownReference is the single-prime switch as it was written
// before every level move became one call of the rounding kernel: the
// centered [c·t^{-1}]_{q_l} carried shifted by +q_l, δ built and
// transformed per remaining prime.
func modSwitchDownReference(ctx *Context, p *Poly) {
	l := p.Level()
	ql, t := ctx.Moduli[l].Q, ctx.T
	top := append([]uint64(nil), p.Coeffs[l]...)
	ctx.Moduli[l].INTT(top)
	tInv, half := InvMod(t%ql, ql), ql>>1
	vu := make([]uint64, ctx.N)
	for j := range vu {
		if v := MulMod(top[j], tInv, ql); v > half {
			vu[j] = v
		} else {
			vu[j] = v + ql
		}
	}
	delta := make([]uint64, ctx.N)
	for i := 0; i < l; i++ {
		qi := ctx.Moduli[i].Q
		tq, qInv := t%qi, InvMod(ql%qi, qi)
		for j, u := range vu {
			delta[j] = SubMod(MulMod(u%qi, tq, qi), MulMod(tq, ql%qi, qi), qi)
		}
		ctx.Moduli[i].NTT(delta)
		for j := range delta {
			p.Coeffs[i][j] = MulMod(SubMod(p.Coeffs[i][j], delta[j], qi), qInv, qi)
		}
	}
	p.Coeffs = p.Coeffs[:l]
}

// TestSinglePrimeDropBitIdentical: dropping one prime through the
// rounding kernel, in place or into a destination, yields the residues
// the dedicated single-prime loop produced, bit for bit.
func TestSinglePrimeDropBitIdentical(t *testing.T) {
	const levels = 14
	ctx := hybridContext(t, levels)
	for level := 1; level < levels; level++ {
		p := NewSeededSampler(ctx, uint64(90+level)).UniformPoly(level, true)
		want := p.Copy()
		modSwitchDownReference(ctx, want)
		into := ctx.NewPoly(level - 1)
		ctx.ModSwitchDownTo(p, into)
		ctx.ModSwitchDown(p)
		if !polysEqual(p, want) || !polysEqual(into, want) {
			t.Fatalf("level %d: one-prime drop differs from the reference switch", level)
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

// TestHybridVectorMatchesScalar: the key-switching ring ops — digit
// decomposition, the divides by P and P·q_l, a multi-prime level drop —
// are bit-identical on every tier and on the scalar kernels.
func TestHybridVectorMatchesScalar(t *testing.T) {
	const logN, levels, plainT = 8, 5, 257
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, levels+DigitPrimes)
	if err != nil {
		t.Fatal(err)
	}
	build := func(tier kernelTier) *Context {
		ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
		if err != nil {
			t.Fatal(err)
		}
		ctx.pinTier(tier)
		return ctx
	}
	run := func(ctx *Context, level int) []*Poly {
		p := NewSeededSampler(ctx, uint64(60+level)).UniformPoly(level, true)
		outs := ctx.DecomposeHybrid(p)
		quo := ctx.NewPoly(level)
		ctx.DivideByP(outs[0].Copy(), quo)
		outs = append(outs, quo)
		if level > 0 {
			fused, low := ctx.NewPoly(level-1), ctx.NewPoly(0)
			ctx.DivideByPQ(outs[0].Copy(), fused)
			ctx.ModSwitchDownTo(p, low)
			outs = append(outs, fused, low)
		}
		return outs
	}
	scalar := build(tierScalar)
	forEachTier(t, func(t *testing.T, tier kernelTier) {
		vec := build(tier)
		for level := 0; level < levels; level++ {
			got, want := run(vec, level), run(scalar, level)
			for k := range want {
				if !polysEqual(got[k], want[k]) {
					t.Fatalf("level %d output %d: %s and scalar kernels disagree", level, k, tier)
				}
			}
		}
	})
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
