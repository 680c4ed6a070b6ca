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

// BenchmarkNTT measures a forward + inverse transform at the two
// deployed ring sizes with each kernel: the unfused layer-at-a-time
// reference (generic), the fused scalar kernels (scalar) and, on hosts
// that have them, the vector kernels (avx2). The last two are the
// vectorization ablation: SetVectorKernels pins one Modulus to the
// scalar path, bit-identical either way.
func BenchmarkNTT(b *testing.B) {
	for _, logN := range []int{11, 12} {
		ctx := benchContext(b, logN)
		s := NewSeededSampler(ctx, 1)
		p := s.UniformPoly(0, false)
		m := ctx.Moduli[0]
		kernels := []struct {
			name     string
			vec      bool
			fwd, inv func([]uint64)
		}{
			{"generic", false, m.NTTGeneric, m.INTTGeneric},
			{"scalar", false, m.NTT, m.INTT},
			{"avx2", true, m.NTT, m.INTT},
		}
		for _, k := range kernels {
			if k.vec && !VectorKernelsAvailable() {
				continue
			}
			b.Run(sizeName(logN)+"/"+k.name, func(b *testing.B) {
				m.SetVectorKernels(k.vec)
				defer m.SetVectorKernels(true)
				for i := 0; i < b.N; i++ {
					k.fwd(p.Coeffs[0])
					k.inv(p.Coeffs[0])
				}
			})
		}
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
