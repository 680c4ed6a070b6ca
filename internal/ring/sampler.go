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
// reproducible; NewSampler seeds from crypto/rand. Not safe for
// concurrent use.
type Sampler struct {
	ctx     *Context
	rng     *rand.ChaCha8
	cbd     int     // centered binomial parameter: sum of cbd bits minus cbd bits
	scratch []int64 // the N small coefficients of the polynomial being drawn
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
		rng: rand.NewChaCha8(seed),
		cbd: 21, // sigma = sqrt(21/2) ≈ 3.24, the conventional RLWE width
	}
}

// In returns a sampler drawing from the same random stream over another
// context of the same degree — a QP view, for key generation.
func (s *Sampler) In(ctx *Context) *Sampler {
	return &Sampler{ctx: ctx, rng: s.rng, cbd: s.cbd}
}

// Seed draws 32 bytes from the stream: the seed of a stream of its own
// (Reseed), which samples independently of this one.
func (s *Sampler) Seed() [32]byte {
	var seed [32]byte
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], s.rng.Uint64())
	}
	return seed
}

// Reseed restarts the sampler on the stream seed keys: what follows is
// what a sampler newly made from that seed would draw.
func (s *Sampler) Reseed(seed [32]byte) { s.rng.Seed(seed) }

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
// {-1,0,1}) at the given level, in coefficient domain. Each coefficient
// is the draw math/rand/v2's Rand.IntN(3) makes of the stream, minus one:
// the high word of x·3, redrawn when the low word is below 2^64 mod 3 = 1.
func (s *Sampler) TernaryPoly(level int) *Poly {
	coeffs := s.coeffs()
	for j := range coeffs {
		hi, lo := bits.Mul64(s.rng.Uint64(), 3)
		for lo == 0 {
			hi, lo = bits.Mul64(s.rng.Uint64(), 3)
		}
		coeffs[j] = int64(hi) - 1
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
// The slice is the sampler's scratch: it holds until the sampler's next
// draw of small coefficients.
func (s *Sampler) ErrorCoeffs() []int64 {
	coeffs := s.coeffs()
	for j := range coeffs {
		coeffs[j] = s.cbdSample()
	}
	return coeffs
}

// coeffs returns the sampler's N-word scratch.
func (s *Sampler) coeffs() []int64 {
	if s.scratch == nil {
		s.scratch = make([]int64, s.ctx.N)
	}
	return s.scratch
}

// cbdSample draws one centered-binomial value: popcount(a)-popcount(b)
// over s.cbd bit pairs.
func (s *Sampler) cbdSample() int64 {
	mask := uint64(1)<<uint(s.cbd) - 1
	a := s.rng.Uint64() & mask
	b := s.rng.Uint64() & mask
	return int64(bits.OnesCount64(a)) - int64(bits.OnesCount64(b))
}
