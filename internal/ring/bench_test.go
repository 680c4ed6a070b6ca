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

// BenchmarkNTT measures the core transform at the two deployed ring
// sizes.
func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{11, 12} {
		ctx := benchContext(b, logN)
		s := NewSeededSampler(ctx, 1)
		p := s.UniformPoly(0, false)
		b.Run(sizeName(logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx.Moduli[0].NTT(p.Coeffs[0])
				ctx.Moduli[0].INTT(p.Coeffs[0])
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
