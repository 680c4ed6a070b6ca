package ring

import "testing"

func benchContext(b *testing.B, logN int) *Context {
	b.Helper()
	const plainT = 65537
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, 4+DigitPrimes)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContextQP(logN, primes[:4], primes[4:], plainT)
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// benchTiers are the kernel tiers the ring benchmarks run on, one row
// each; the rows of tiers the host lacks are left out.
func benchTiers() []kernelTier {
	tiers := []kernelTier{tierScalar}
	for _, t := range vectorTiers {
		if t <= hostTier {
			tiers = append(tiers, t)
		}
	}
	return tiers
}

// BenchmarkNTT measures a forward + inverse transform at the two
// deployed ring sizes with each kernel: the unfused layer-at-a-time
// reference (generic), the fused scalar kernels (scalar) and, on hosts
// that have them, the vector tiers (avx2, avx512). Every row computes
// the same bits; the last three are the vectorization ablation.
func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{11, 12} {
		ctx := benchContext(b, logN)
		s := NewSeededSampler(ctx, 1)
		p := s.UniformPoly(0, false)
		m := ctx.Moduli[0]
		b.Run(sizeName(logN)+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.NTTGeneric(p.Coeffs[0])
				m.INTTGeneric(p.Coeffs[0])
			}
		})
		for _, tier := range benchTiers() {
			b.Run(sizeName(logN)+"/"+tierName(tier), func(b *testing.B) {
				m.pinTier(tier)
				defer m.pinTier(hostTier)
				for i := 0; i < b.N; i++ {
					m.NTT(p.Coeffs[0])
					m.INTT(p.Coeffs[0])
				}
			})
		}
	}
}

// BenchmarkDotMontgomery measures the key-switch inner product at the
// top level of the N=4096 chain: every digit of a decomposition times
// both halves of a switching key (over Q·P, in Montgomery form),
// accumulated into the two QP products in one pass per row — the key
// switch's pointwise work, bound by streaming the key rows.
func BenchmarkDotMontgomery(b *testing.B) {
	ctx := benchContext(b, 12)
	level := ctx.MaxLevel()
	qp := ctx.QP(level)
	s := NewSeededSampler(ctx, 4)
	digits := ctx.DecomposeHybrid(s.UniformPoly(level, true))
	rows := len(qp.Moduli)
	keyB, keyA := make([]*Poly, len(digits)), make([]*Poly, len(digits))
	for j := range digits {
		keyB[j] = NewSeededSampler(qp, uint64(10+2*j)).UniformPoly(rows-1, true)
		keyA[j] = NewSeededSampler(qp, uint64(11+2*j)).UniformPoly(rows-1, true)
		qp.MontgomeryForm(keyB[j], keyB[j])
		qp.MontgomeryForm(keyA[j], keyA[j])
	}
	acc0, acc1 := qp.NewPoly(rows-1), qp.NewPoly(rows-1)
	for _, tier := range benchTiers() {
		b.Run("N=4096/"+tierName(tier), func(b *testing.B) {
			ctx.pinTier(tier)
			defer ctx.pinTier(hostTier)
			for i := 0; i < b.N; i++ {
				qp.DotMontgomeryAdd(digits, keyB, keyA, acc0, acc1)
			}
		})
	}
}

// BenchmarkDivideByP measures the rounding that ends a key switch at
// the top level of the N=4096 chain: the special rows' INTT, the base
// conversion to every chain prime, its NTT and the rescale.
func BenchmarkDivideByP(b *testing.B) {
	ctx := benchContext(b, 12)
	level := ctx.MaxLevel()
	qp := ctx.QP(level)
	acc := NewSeededSampler(qp, 5).UniformPoly(len(qp.Moduli)-1, true)
	work, out := acc.Copy(), ctx.NewPoly(level)
	for _, tier := range benchTiers() {
		b.Run("N=4096/"+tierName(tier), func(b *testing.B) {
			ctx.pinTier(tier)
			defer ctx.pinTier(hostTier)
			for i := 0; i < b.N; i++ {
				ctx.CopyInto(acc, work)
				ctx.DivideByP(work, out)
			}
		})
	}
}

// BenchmarkModSwitchDown measures the exact BGV rescale.
func BenchmarkModSwitchDown(b *testing.B) {
	ctx := benchContext(b, 12)
	s := NewSeededSampler(ctx, 2)
	base := s.UniformPoly(ctx.MaxLevel(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := base.Copy()
		ctx.ModSwitchDown(p)
	}
}

// BenchmarkDecomposeHybrid measures the key-switching digit split and
// base extension (INTT, RNS conversion, one NTT per extended row).
func BenchmarkDecomposeHybrid(b *testing.B) {
	ctx := benchContext(b, 12)
	s := NewSeededSampler(ctx, 3)
	p := s.UniformPoly(ctx.MaxLevel(), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.PutPolys(ctx.DecomposeHybrid(p))
	}
}

func sizeName(logN int) string {
	return map[int]string{11: "N=2048", 12: "N=4096"}[logN]
}

// tierName names a benchmark row: the fused scalar kernels are "scalar".
func tierName(t kernelTier) string {
	if t == tierScalar {
		return "scalar"
	}
	return t.String()
}

// BenchmarkLentKeySwitch measures a key switch's ring half — the
// decomposition, the inner product with a key and the division by P —
// at the top of a 14-prime chain, as a pass worker runs it alone
// (unlent) and with an idle worker's slot lent (ring.Run starts one
// helper per set of rows). On one core the two rows read the same.
func BenchmarkLentKeySwitch(b *testing.B) {
	for _, logN := range []int{11, 12} {
		const plainT = 65537
		primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, 14+DigitPrimes)
		if err != nil {
			b.Fatal(err)
		}
		ctx, err := NewContextQP(logN, primes[:14], primes[14:], plainT)
		if err != nil {
			b.Fatal(err)
		}
		level := ctx.MaxLevel()
		qp := ctx.QP(level)
		s := NewSeededSampler(ctx, 6)
		p := s.UniformPoly(level, true)
		digits := ctx.DecomposeHybrid(p)
		keyB, keyA := make([]*Poly, len(digits)), make([]*Poly, len(digits))
		for j := range digits {
			keyB[j] = NewSeededSampler(qp, uint64(10+2*j)).UniformPoly(qp.MaxLevel(), true)
			keyA[j] = NewSeededSampler(qp, uint64(11+2*j)).UniformPoly(qp.MaxLevel(), true)
		}
		ctx.PutPolys(digits)
		for _, lent := range []bool{false, true} {
			name := sizeName(logN) + "/unlent"
			if lent {
				name = sizeName(logN) + "/lent"
			}
			b.Run(name, func(b *testing.B) {
				if lent {
					Lend()
					defer Reclaim()
				}
				for i := 0; i < b.N; i++ {
					digits := ctx.DecomposeHybrid(p)
					acc0, acc1 := qp.GetPolyZero(qp.MaxLevel()), qp.GetPolyZero(qp.MaxLevel())
					acc0.IsNTT, acc1.IsNTT = true, true
					qp.DotMontgomeryAdd(digits, keyB, keyA, acc0, acc1)
					out := ctx.GetPoly(level)
					ctx.DivideByP(acc0, out)
					ctx.PutPolys(digits)
					qp.PutPolys([]*Poly{acc0, acc1})
					ctx.PutPoly(out)
				}
			})
		}
	}
}
