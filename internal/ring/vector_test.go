package ring

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// vectorTiers are the tiers the equivalence tests check against the
// scalar kernels.
var vectorTiers = []kernelTier{tierAVX2, tierAVX512}

// forEachTier runs f as one subtest per vector tier, named after it; a
// tier the host (or build) lacks is a skip that names it.
func forEachTier(t *testing.T, f func(t *testing.T, tier kernelTier)) {
	t.Helper()
	for _, tier := range vectorTiers {
		t.Run(tier.String(), func(t *testing.T) {
			if tier > hostTier {
				t.Skipf("no %s tier on this host/build (host tier %s)", tier, hostTier)
			}
			f(t, tier)
		})
	}
}

// vectorTestModulus builds a Modulus over a fresh 55-bit prime for the
// given logN pinned to the given tier.
func vectorTestModulus(t *testing.T, logN int, tier kernelTier) *Modulus {
	t.Helper()
	n := 1 << logN
	primes, err := GeneratePrimes(55, uint64(2*n), 1)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	m, err := NewModulus(primes[0], n)
	if err != nil {
		t.Fatalf("NewModulus: %v", err)
	}
	m.pinTier(tier)
	if m.kernels() != tier {
		t.Fatalf("tier %s did not engage for q=%d n=%d (got %s)", tier, primes[0], n, m.kernels())
	}
	return m
}

func randRow(rng *rand.Rand, n int, q uint64) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		row[i] = rng.Uint64() % q
	}
	return row
}

func rowsEqual(t *testing.T, what string, want, got []uint64) {
	t.Helper()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s diverges at %d: scalar %d vector %d", what, i, want[i], got[i])
		}
	}
}

// TestVectorKernelsMatchScalar asserts bit-identity of each tier's
// transform kernels against the fused scalar reference across sizes,
// including the sizes where the 8-lane tier hands the transform to the
// 4-lane kernels (n = 32) and where its t = 4 layer meets the head and
// tail (n = 64, 128), on reduced inputs and on the forward transform's
// lazy input range [0, 4q).
func TestVectorKernelsMatchScalar(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier kernelTier) {
		rng := rand.New(rand.NewSource(7))
		for _, logN := range []int{5, 6, 7, 8, 11, 12, 13} {
			m := vectorTestModulus(t, logN, tier)
			n := m.N
			for trial := 0; trial < 4; trial++ {
				bound := m.Q
				if trial == 3 {
					bound = 4 * m.Q
				}
				a := randRow(rng, n, bound)
				want := append([]uint64(nil), a...)
				got := append([]uint64(nil), a...)
				m.nttScalar(want)
				m.NTT(got)
				rowsEqual(t, fmt.Sprintf("logN=%d NTT", logN), want, got)
				m.inttScalar(want)
				m.INTT(got)
				rowsEqual(t, fmt.Sprintf("logN=%d INTT", logN), want, got)
				if trial < 3 && got[0] != a[0] {
					t.Fatalf("logN=%d round trip failed", logN)
				}
			}
		}
	})
}

// rowCase is one set of inputs for every pointwise and level-move
// kernel over modulus q: a, b and acc reduced, c < q, lazy the Shoup
// rows' multiplicand, montGroup reduced digit rows dig and key rows kb
// and ka for the inner product, and a base conversion to q with its
// source rows y and overflow counts v. A Shoup product takes any 64-bit
// multiplicand, so lazy, y and v may hold any value.
type rowCase struct {
	q               uint64
	a, b, acc, lazy []uint64
	c               uint64
	dig, kb, ka     [][]uint64
	conv            *baseConv
	y               [][]uint64
	v               []uint64
}

// montRows draws the inner product's montGroup digit rows and key rows:
// reduced values, from row.
func montRows(row func() []uint64) (dig, kb, ka [][]uint64) {
	for range montGroup {
		dig, kb, ka = append(dig, row()), append(kb, row()), append(ka, row())
	}
	return dig, kb, ka
}

// checkRowKernels runs every pointwise and level-move kernel on tier
// and on the scalar path over in, failing at the first output that
// differs.
func checkRowKernels(t *testing.T, tier kernelTier, in rowCase) {
	t.Helper()
	q, a, b, acc, lazy, c := in.q, in.a, in.b, in.acc, in.lazy, in.c
	n := len(a)
	cs := ShoupPrecomp(c, q)
	check := func(name string, scalar, vec func(out []uint64)) {
		t.Helper()
		want := make([]uint64, n)
		got := make([]uint64, n)
		scalar(want)
		vec(got)
		rowsEqual(t, fmt.Sprintf("%s %s q=%d n=%d", tier, name, q, n), want, got)
	}
	check("add",
		func(out []uint64) { addRowScalar(q, a, b, out) },
		func(out []uint64) { addVecAsm(tier, q, a, b, out) })
	check("sub",
		func(out []uint64) { subRowScalar(q, a, b, out) },
		func(out []uint64) { subVecAsm(tier, q, a, b, out) })
	check("neg",
		func(out []uint64) { negRowScalar(q, a, out) },
		func(out []uint64) { negVecAsm(tier, q, a, out) })
	check("mul",
		func(out []uint64) { mulRowScalar(q, a, b, out) },
		func(out []uint64) { mulVecAsm(tier, q, a, b, out) })
	// The inner product from 1 to montGroup digits, into acc and b.
	qInv := montInv(q)
	for k := 1; k <= montGroup; k++ {
		dig, kb, ka := in.dig[:k], in.kb[:k], in.ka[:k]
		dot := func(vec bool) [2][]uint64 {
			out := [2][]uint64{append([]uint64(nil), acc...), append([]uint64(nil), b...)}
			if vec {
				dotMontVecAsm(tier, q, qInv, dig, kb, ka, out[0], out[1])
			} else {
				dotMontRowScalar(q, qInv, dig, kb, ka, out[0], out[1], make([]uint64, n), make([]uint64, n))
			}
			return out
		}
		want, got := dot(false), dot(true)
		for h := range want {
			rowsEqual(t, fmt.Sprintf("%s dotMont of %d digits, output %d, q=%d n=%d", tier, k, h, q, n), want[h], got[h])
		}
	}
	check("mulScalar",
		func(out []uint64) { mulScalarRowScalar(q, c, cs, lazy, out) },
		func(out []uint64) { mulScalarVecAsm(tier, q, c, cs, lazy, out) })
	check("rescale",
		func(out []uint64) { rescaleRow(tierScalar, q, c, cs, a, b, out) },
		func(out []uint64) { rescaleRow(tier, q, c, cs, a, b, out) })
	check(fmt.Sprintf("target from %d primes", len(in.y)),
		func(out []uint64) { in.conv.target(tierScalar, 0, in.y, in.v, out) },
		func(out []uint64) { in.conv.target(tier, 0, in.y, in.v, out) })
}

// newConv builds a base conversion from the source primes to q.
func newConv(src []uint64, q uint64) *baseConv {
	mods := make([]*Modulus, len(src))
	for k, s := range src {
		mods[k] = &Modulus{Q: s}
	}
	one := func(uint64) uint64 { return 1 }
	return newBaseConv(mods, []*Modulus{{Q: q}}, one, one)
}

// TestVectorRowKernelsMatchScalar asserts bit-identity of every
// pointwise and level-move kernel of each tier against its scalar row,
// including ragged lengths that exercise the scalar tail in the
// wrappers, and the conversion from every source count.
func TestVectorRowKernelsMatchScalar(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier kernelTier) {
		rng := rand.New(rand.NewSource(11))
		primes, err := GeneratePrimes(55, 1<<13, 2+maxConvPrimes)
		if err != nil {
			t.Fatalf("GeneratePrimes: %v", err)
		}
		for _, q := range primes[:2] {
			for _, n := range []int{16, 64, 67, 71, 256, 1024} {
				// Full-range multiplicands make the lazy products'
				// [q, 2q) outcomes common. Every fourth column of the
				// conversion takes the source values with the largest
				// lazy products, and extremeConv's tables then carry
				// the sums to their bound.
				for k := 1; k <= maxConvPrimes; k++ {
					for _, conv := range []*baseConv{newConv(primes[2:2+k], q), extremeConv(rng, k, q)} {
						y := make([][]uint64, k)
						for i := range y {
							y[i] = randRow(rng, n, ^uint64(0))
							for j := 0; j < n; j += 4 {
								y[i][j] = largestLazy(rng, conv.mat[0].v[i], conv.mat[0].s[i], q)
							}
						}
						dig, kb, ka := montRows(func() []uint64 { return randRow(rng, n, q) })
						checkRowKernels(t, tier, rowCase{
							q: q, a: randRow(rng, n, q), b: randRow(rng, n, q),
							acc: randRow(rng, n, q), lazy: randRow(rng, n, ^uint64(0)),
							c: rng.Uint64() % q, dig: dig, kb: kb, ka: ka, conv: conv, y: y,
							v: randRow(rng, n, ^uint64(0)),
						})
					}
				}
			}
		}
	})
}

// extremeConv is a conversion to q from k sources whose tables push its
// sums to their bound. A lazy Shoup product by c stays below
// (1 + f)·q, f the fraction c·2^64/q rounds away in c's companion, so
// each constant is the one of 256 random draws with the largest f, and
// every correction is q−1. The tables of real primes rarely come near,
// so only these reach the 8q step of the four- and five-source
// reductions (sums up to 11q).
func extremeConv(rng *rand.Rand, k int, q uint64) *baseConv {
	bc := &baseConv{
		dst:  []*Modulus{{Q: q}},
		mat:  make([]shoupVec, 1),
		corr: make([]corrTable, 1),
	}
	for range k {
		best, bestC := uint64(0), uint64(0)
		for range 256 {
			c := rng.Uint64() % q
			if _, f := bits.Div64(c, 0, q); f > best {
				best, bestC = f, c
			}
		}
		bc.mat[0].v = append(bc.mat[0].v, bestC)
		bc.mat[0].s = append(bc.mat[0].s, ShoupPrecomp(bestC, q))
	}
	for u := range bc.corr[0] {
		bc.corr[0][u] = q - 1
	}
	return bc
}

// largestLazy returns, of 256 random multiplicands, the one whose lazy
// Shoup product by w is largest (close to 2q).
func largestLazy(rng *rand.Rand, w, ws, q uint64) uint64 {
	best, bestY := uint64(0), uint64(0)
	for range 256 {
		y := rng.Uint64()
		if r := MulModShoupLazy(y, w, ws, q); r > best {
			best, bestY = r, y
		}
	}
	return bestY
}

// TestVectorNegZero pins the x=0 edge of the vectorized NegMod.
func TestVectorNegZero(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier kernelTier) {
		q := uint64(1)<<55 - 55
		a := []uint64{0, 1, q - 1, 0, 0, q / 2, 3, 0, q - 1, 0, 0, 0, 7, 0, 1, 0}
		want := make([]uint64, len(a))
		got := make([]uint64, len(a))
		negRowScalar(q, a, want)
		negVecAsm(tier, q, a, got)
		rowsEqual(t, "neg", want, got)
	})
}

// TestVectorKernelVariant logs the tier this host runs and checks the
// probe's reports agree with one another.
func TestVectorKernelVariant(t *testing.T) {
	t.Logf("ring.KernelVariant() = %s", KernelVariant())
	if KernelVariant() != hostTier.String() || VectorKernelsAvailable() != (hostTier != tierScalar) {
		t.Fatalf("KernelVariant %s, VectorKernelsAvailable %v, host tier %s disagree",
			KernelVariant(), VectorKernelsAvailable(), hostTier)
	}
}

// TestModulusVectorGate checks that out-of-range primes and tiny
// transforms keep the scalar kernels.
func TestModulusVectorGate(t *testing.T) {
	if vectorOKForModulus(uint64(12289), 4096) {
		t.Fatal("q < 2^32 must not take the vector path")
	}
	if vectorOKForModulus(uint64(1)<<61+9, 4096) {
		t.Fatal("q >= 2^61 must not take the vector path")
	}
	if vectorOKForModulus(uint64(1)<<55-55, 16) {
		t.Fatal("n < 32 must not take the vector path")
	}
	if !vectorOKForModulus(uint64(1)<<55-55, 32) {
		t.Fatal("55-bit prime at n=32 should be vector-eligible")
	}
}

// TestSetVectorKernelsConcurrent switches a context between tiers while
// other goroutines transform, multiply and rescale through it: every
// result must equal the scalar one (each op runs wholly on one backend,
// and every backend computes the same bits), and under -race the
// switching must not race with the kernels' dispatch.
func TestSetVectorKernelsConcurrent(t *testing.T) {
	const logN, levels, plainT = 8, 4, 257
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, levels+DigitPrimes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSeededSampler(ctx, 9)
	a, b := s.UniformPoly(ctx.MaxLevel(), true), s.UniformPoly(ctx.MaxLevel(), true)
	run := func() *Poly {
		p := ctx.NewPoly(ctx.MaxLevel())
		ctx.MulCoeffs(a, b, p)
		ctx.INTT(p)
		ctx.NTT(p)
		ctx.ModSwitchDown(p)
		return p
	}
	ctx.SetVectorKernels(false)
	want := run()

	var stop atomic.Bool
	var toggler sync.WaitGroup
	toggler.Add(1)
	go func() {
		defer toggler.Done()
		for i := 0; !stop.Load(); i++ {
			switch i % 3 {
			case 0:
				ctx.SetVectorKernels(true)
			case 1:
				ctx.SetVectorKernels(false)
			default:
				ctx.pinTier(tierAVX2)
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				if !polysEqual(run(), want) {
					t.Error("a result computed while the tier switched differs from the scalar one")
					return
				}
			}
		}()
	}
	workers.Wait()
	stop.Store(true)
	toggler.Wait()
}

// TestVectorDotMontgomeryAdd holds the key-switch inner product, on the
// scalar kernel and on each vector tier, to an independent formula:
// acc + Σ_j d_j·(b_j·2^-64) by MulMod, on a QP context's rows. It runs 1
// to 8 digits, and 9 and 17, which the kernel reduces in groups of
// montGroup; every third case takes every operand at q−1, where the
// products and their 32-bit partial sums are largest.
func TestVectorDotMontgomeryAdd(t *testing.T) {
	const logN, levels, plainT = 6, 3, 257
	primes, err := GeneratePrimes(59, uint64(2<<logN)*plainT, levels+DigitPrimes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
	if err != nil {
		t.Fatal(err)
	}
	qp := ctx.QP(ctx.MaxLevel())
	top := len(qp.Moduli) - 1
	s := NewSeededSampler(qp, 17)
	poly := func(edge bool) *Poly {
		p := s.UniformPoly(top, true)
		if edge {
			for i, row := range p.Coeffs {
				for j := range row {
					row[j] = qp.Moduli[i].Q - 1
				}
			}
		}
		return p
	}
	tiers := append([]kernelTier{tierScalar}, vectorTiers...)
	for c, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
		edge := c%3 == 2
		d, b, a := make([]*Poly, k), make([]*Poly, k), make([]*Poly, k)
		for j := range k {
			d[j], b[j], a[j] = poly(edge), poly(edge), poly(edge)
		}
		acc0, acc1 := poly(edge), poly(false)
		want0, want1 := acc0.Copy(), acc1.Copy()
		for i, m := range qp.Moduli {
			for j := range want0.Coeffs[i] {
				for h := range k {
					x := d[h].Coeffs[i][j]
					want0.Coeffs[i][j] = AddMod(want0.Coeffs[i][j], MulMod(x, MulMod(b[h].Coeffs[i][j], m.rInv, m.Q), m.Q), m.Q)
					want1.Coeffs[i][j] = AddMod(want1.Coeffs[i][j], MulMod(x, MulMod(a[h].Coeffs[i][j], m.rInv, m.Q), m.Q), m.Q)
				}
			}
		}
		for _, tier := range tiers {
			if tier > hostTier {
				continue
			}
			qp.pinTier(tier)
			got0, got1 := acc0.Copy(), acc1.Copy()
			qp.DotMontgomeryAdd(d, b, a, got0, got1)
			if !polysEqual(got0, want0) || !polysEqual(got1, want1) {
				t.Errorf("%s, %d digits (edge operands %v): the inner product differs from the MulMod formula", tier, k, edge)
			}
		}
		qp.pinTier(hostTier)
	}
}
