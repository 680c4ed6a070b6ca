package ring

import (
	crand "crypto/rand"
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// Sampler draws the random polynomials used by the BGV scheme: uniform
// masks, ternary secrets, and centered-binomial errors. It is
// deterministic given a seed, which keeps tests and benchmarks
// reproducible; NewSampler seeds from crypto/rand.
type Sampler struct {
	ctx *Context
	rng *rand.Rand
	cbd int // centered binomial parameter: sum of cbd bits minus cbd bits
}

// NewSampler returns a sampler seeded from the operating system's entropy
// source.
func NewSampler(ctx *Context) *Sampler {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// crypto/rand failing is unrecoverable; fall back would silently
		// weaken keys, so crash loudly instead.
		panic("ring: cannot read entropy: " + err.Error())
	}
	return newSamplerFromSeed(ctx, seed)
}

// NewSeededSampler returns a deterministic sampler for tests and
// reproducible experiments.
func NewSeededSampler(ctx *Context, seed uint64) *Sampler {
	var s [32]byte
	binary.LittleEndian.PutUint64(s[:8], seed)
	return newSamplerFromSeed(ctx, s)
}

func newSamplerFromSeed(ctx *Context, seed [32]byte) *Sampler {
	return &Sampler{
		ctx: ctx,
		rng: rand.New(rand.NewChaCha8(seed)),
		cbd: 21, // sigma = sqrt(21/2) ≈ 3.24, the conventional RLWE width
	}
}

// In returns a sampler drawing from the same random stream over another
// context of the same degree — a QP view, for key generation.
func (s *Sampler) In(ctx *Context) *Sampler {
	return &Sampler{ctx: ctx, rng: s.rng, cbd: s.cbd}
}

// UniformPoly samples a uniformly random polynomial at the given level in
// the requested domain. Because CRT is a bijection, sampling each residue
// independently yields a uniform element of Z_Q. A residue is the high
// word of v·q for a uniform 64-bit v (Lemire's multiply-shift): uniform on
// [0, q) once the low words below 2^64 mod q are rejected, and no division
// per draw.
func (s *Sampler) UniformPoly(level int, ntt bool) *Poly {
	p := s.ctx.GetPoly(level)
	for i := 0; i <= level; i++ {
		q := s.ctx.Moduli[i].Q
		reject := -q % q // 2^64 mod q
		pi := p.Coeffs[i]
		for j := range pi {
			for {
				hi, lo := bits.Mul64(s.rng.Uint64(), q)
				if lo >= reject {
					pi[j] = hi
					break
				}
			}
		}
	}
	p.IsNTT = ntt
	return p
}

// TernaryPoly samples a uniform ternary polynomial (coefficients in
// {-1,0,1}) at the given level, in coefficient domain.
func (s *Sampler) TernaryPoly(level int) *Poly {
	coeffs := make([]int64, s.ctx.N)
	for j := range coeffs {
		coeffs[j] = int64(s.rng.IntN(3)) - 1
	}
	p := s.ctx.GetPoly(level)
	s.ctx.SetLift(coeffs, p)
	return p
}

// ErrorPoly samples a centered-binomial error polynomial at the given
// level, in coefficient domain.
func (s *Sampler) ErrorPoly(level int) *Poly {
	p := s.ctx.GetPoly(level)
	s.ctx.SetLift(s.ErrorCoeffs(), p)
	return p
}

// ErrorCoeffs samples the N centered-binomial coefficients of one error
// polynomial, for callers that fold other small terms in before lifting.
func (s *Sampler) ErrorCoeffs() []int64 {
	coeffs := make([]int64, s.ctx.N)
	for j := range coeffs {
		coeffs[j] = s.cbdSample()
	}
	return coeffs
}

// cbdSample draws one centered-binomial value: popcount(a)-popcount(b)
// over s.cbd bit pairs.
func (s *Sampler) cbdSample() int64 {
	mask := uint64(1)<<uint(s.cbd) - 1
	a := s.rng.Uint64() & mask
	b := s.rng.Uint64() & mask
	return int64(bits.OnesCount64(a)) - int64(bits.OnesCount64(b))
}
