// Package bgv implements a leveled BGV homomorphic encryption scheme over
// power-of-two cyclotomic rings, with ciphertext packing (SIMD slots),
// relinearization, Galois-automorphism slot rotations, and exact BGV
// modulus switching. It is the pure-Go stand-in for HElib used by the
// COPSE runtime: same scheme family, same packing and noise-management
// model.
package bgv

import (
	"fmt"
	"math"

	"copse/internal/ring"
)

// Params describes a BGV parameter set.
type Params struct {
	// LogN is the log2 of the ring degree N. The scheme packs N/2 usable
	// SIMD slots (one "row" of the batching layout).
	LogN int
	// T is the plaintext modulus. It must be prime and ≡ 1 mod 2N so the
	// batching encoder exists.
	T uint64
	// PrimeBits is the bit size of each ciphertext prime in the chain.
	PrimeBits int
	// Levels is the number of primes in the modulus chain; roughly one
	// prime is consumed per ciphertext-ciphertext multiplication.
	Levels int
	// DigitBits is the digit width w of the retained base-2^w reference
	// decomposition (ring.DecomposeBase2w).
	//
	// Deprecated: the evaluator key-switches over RNS digits of
	// ring.DigitPrimes chain primes and never reads this field; it is
	// kept, validated and carried on the wire for bench/micro.go.
	DigitBits int
}

// Validate checks internal consistency.
func (p Params) Validate() error {
	if p.LogN < 4 || p.LogN > 15 {
		return fmt.Errorf("bgv: LogN %d out of range [4,15]", p.LogN)
	}
	if p.T < 2 || (p.T-1)%uint64(2<<p.LogN) != 0 {
		return fmt.Errorf("bgv: plaintext modulus %d is not ≡ 1 mod 2N", p.T)
	}
	if p.PrimeBits < 30 || p.PrimeBits > 61 {
		return fmt.Errorf("bgv: PrimeBits %d out of range [30,61]", p.PrimeBits)
	}
	if p.Levels < 1 {
		return fmt.Errorf("bgv: need at least one level")
	}
	if p.DigitBits < 10 || p.DigitBits > p.PrimeBits {
		return fmt.Errorf("bgv: DigitBits %d out of range [10,PrimeBits]", p.DigitBits)
	}
	return nil
}

// N returns the ring degree.
func (p Params) N() int { return 1 << p.LogN }

// Slots returns the number of usable SIMD slots (N/2).
func (p Params) Slots() int { return 1 << (p.LogN - 1) }

// TestParams returns a small, fast parameter set for unit tests. The
// lattice dimension is far below the 128-bit-security requirement; it is
// functionally faithful only.
func TestParams(levels int) Params {
	return Params{LogN: 11, T: 65537, PrimeBits: 55, Levels: levels, DigitBits: 45}
}

// ParamsForSlots returns the parameter set whose ring packs the given
// slot count, sized to the given chain length: a compiled model's
// Meta.Slots picks its ring, and this is the only table that maps one to
// the other. 1024 slots is TestParams' ring; 2048 (N = 4096) is enough for
// the paper's real-world models, still below 128-bit security at the
// depths COPSE uses; 16384 (N = 2^15) matches the paper's security
// parameter of 128 and is expensive in pure Go (DESIGN.md §2).
func ParamsForSlots(slots, levels int) (Params, error) {
	logN, ok := map[int]int{1024: 11, 2048: 12, 16384: 15}[slots]
	if !ok {
		return Params{}, fmt.Errorf("bgv: no ring with %d slots; compile with Slots 1024, 2048 or 16384", slots)
	}
	p := TestParams(levels)
	p.LogN = logN
	return p, nil
}

// Parameters is an instantiated parameter set: the ring context plus
// derived constants.
type Parameters struct {
	Params
	RingCtx *ring.Context
}

// NewParameters generates the prime chain and ring context for p.
func NewParameters(p Params) (*Parameters, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Primes must be ≡ 1 mod 2N (NTT) and ≡ 1 mod T (scale-free modulus
	// switching and divide-by-P). T is prime and 2N a power of two, so
	// lcm = 2N·T. The chain takes the first Levels primes of the scan and
	// the key-switching modulus P the next ring.DigitPrimes.
	step := uint64(2*p.N()) * p.T
	primes, err := ring.GeneratePrimes(p.PrimeBits, step, p.Levels+ring.DigitPrimes)
	if err != nil {
		return nil, err
	}
	ctx, err := ring.NewContextQP(p.LogN, primes[:p.Levels], primes[p.Levels:], p.T)
	if err != nil {
		return nil, err
	}
	return &Parameters{Params: p, RingCtx: ctx}, nil
}

// MaxLevel returns the top level index (Levels-1).
func (p *Parameters) MaxLevel() int { return p.Levels - 1 }

// QBits returns the bit length of the ciphertext modulus at the given
// level.
func (p *Parameters) QBits(level int) int { return p.RingCtx.BigQ(level).BitLen() }

// SwitchingKeyBytes returns the in-memory size of one switching key
// generated at the given level: one (B, A) pair per key-switch digit —
// two polynomials, each of N uint64 residues over the level+1 chain
// primes and the special primes, and no companion tables.
func (p *Parameters) SwitchingKeyBytes(level int) int64 {
	rows := int64(level + 1 + ring.DigitPrimes)
	return int64(ring.HybridDigits(level)) * rows * int64(p.N()) * 8 * 2
}

// KeySwitchNoiseBits bounds log2 of the noise one hybrid key switch at
// the given level adds to |t·e + m|, for ring degree 2^logN and a
// plaintext modulus of tBits bits. The added term is
// t·(Σ_j d̃_j·e_j + w_0 + w_1·s)/P: each of the ⌈(level+1)/α⌉ extended
// digits is centered (|d̃_j| ≤ D_j/2 ≤ P/2 up to the spread of the prime
// scan), the centered-binomial key errors are at most 21, and the
// divide-by-P rounding has |w_i| ≤ P/2 against a ternary secret — so at
// most t·N·(10.5·digits + 1), padded to 11·digits + 1. The evaluator and
// the level planner both read this one function.
func KeySwitchNoiseBits(logN, tBits, level int) float64 {
	return float64(tBits+logN) + math.Log2(float64(11*ring.HybridDigits(level)+1))
}

// GaloisElt returns the Galois group element implementing a cyclic slot
// rotation by `step` (positive = toward lower slot indices, i.e.
// out[i] = in[i+step]). The generator below is fixed by the batching
// encoder's index map; see encoder.go.
func (p *Parameters) GaloisElt(step int) uint64 {
	m := uint64(2 * p.N())
	slots := uint64(p.Slots())
	s := ((int64(step) % int64(slots)) + int64(slots)) % int64(slots)
	elt := uint64(1)
	for i := int64(0); i < s; i++ {
		elt = (elt * slotGenerator) % m
	}
	return elt
}

// slotGenerator is the multiplicative generator whose powers enumerate the
// slot positions of one batching row; 3 matches the index map built in
// encoder.go.
const slotGenerator = 3
