// Package ring implements arithmetic over RNS polynomial rings
// Z_Q[x]/(x^N+1) with N a power of two and Q a product of word-sized
// NTT-friendly primes. It provides the negacyclic number-theoretic
// transform, modular arithmetic primitives, polynomial samplers, and CRT
// reconstruction. It is the lattice substrate for the BGV scheme in
// package bgv.
package ring

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Modulus holds a single NTT-friendly prime together with the precomputed
// tables needed to run negacyclic NTTs of size N over Z_q.
type Modulus struct {
	Q    uint64 // the prime
	N    int    // transform size (power of two)
	LogN int

	psi    uint64 // primitive 2N-th root of unity mod Q
	psiInv uint64 // psi^{-1} mod Q
	nInv   uint64 // N^{-1} mod Q
	nInvS  uint64 // Shoup precomputation for nInv

	// Montgomery constants: Q^{-1} mod 2^64 (the reduction), and 2^64
	// and 2^-64 mod Q with their Shoup companions (into and out of
	// Montgomery form).
	qInv        uint64
	r64, r64S   uint64
	rInv, rInvS uint64

	// Powers of psi (resp. psi^{-1}) in bit-reversed order, with Shoup
	// companions, as used by the iterative Cooley-Tukey / Gentleman-Sande
	// butterflies.
	psiRev     []uint64
	psiRevS    []uint64
	psiInvRev  []uint64
	psiInvRevS []uint64

	// tier is the kernelTier this modulus transforms with: the host's
	// at construction (scalar if the modulus fails the eligibility gate,
	// vectorOKForModulus); SetVectorKernels retunes it. Atomic, because a
	// retune may race with transforms.
	tier atomic.Uint32
}

// SetVectorKernels enables or disables the vector transform kernels for
// this modulus. Enabling is a no-op when the host lacks the backend or
// the modulus fails the eligibility gate. Safe to call concurrently with
// transforms: each transform runs wholly on one backend, and every
// backend computes the same bits.
func (m *Modulus) SetVectorKernels(on bool) { m.pinTier(vectorTier(on)) }

// pinTier selects tier t for this modulus' transforms, capped at the
// host's tier and at scalar for an ineligible modulus. The tests pin
// each tier through it.
func (m *Modulus) pinTier(t kernelTier) {
	if !vectorOKForModulus(m.Q, m.N) {
		t = tierScalar
	}
	m.tier.Store(uint32(min(t, hostTier)))
}

// kernels returns the tier this modulus transforms with.
func (m *Modulus) kernels() kernelTier { return kernelTier(m.tier.Load()) }

// VectorKernels reports whether this modulus transforms via the vector
// kernels.
func (m *Modulus) VectorKernels() bool { return m.kernels() != tierScalar }

// AddMod returns x+y mod q. Inputs must be fully reduced.
func AddMod(x, y, q uint64) uint64 {
	r := x + y
	if r >= q {
		r -= q
	}
	return r
}

// SubMod returns x-y mod q. Inputs must be fully reduced.
func SubMod(x, y, q uint64) uint64 {
	r := x - y
	if x < y {
		r += q
	}
	return r
}

// NegMod returns -x mod q. Input must be fully reduced.
func NegMod(x, q uint64) uint64 {
	if x == 0 {
		return 0
	}
	return q - x
}

// MulMod returns x*y mod q via a 128-bit product. Inputs must be fully
// reduced and q < 2^63.
func MulMod(x, y, q uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	_, rem := bits.Div64(hi, lo, q)
	return rem
}

// ShoupPrecomp returns floor(w * 2^64 / q), the companion constant for
// MulModShoup. Requires w < q.
func ShoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q)
	return quo
}

// MulModShoup returns x*w mod q using the Shoup trick: ws must be
// ShoupPrecomp(w, q). Requires q < 2^63. The result is fully reduced.
func MulModShoup(x, w, ws, q uint64) uint64 {
	hi, _ := bits.Mul64(x, ws)
	r := x*w - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// MulModShoupLazy is MulModShoup without the final conditional
// subtraction: the result lies in [0, 2q). It accepts any x (not just
// fully reduced values), which is what allows the NTT butterflies to
// defer reduction.
func MulModShoupLazy(x, w, ws, q uint64) uint64 {
	hi, _ := bits.Mul64(x, ws)
	return x*w - hi*q
}

// montInv returns q^{-1} mod 2^64 for odd q: q is its own inverse mod 8,
// and each Newton step doubles the bits that are right.
func montInv(q uint64) uint64 {
	inv := q
	for range 5 {
		inv *= 2 - q*inv
	}
	return inv
}

// montReduce returns (h·2^64 + l)·2^-64 mod q, fully reduced, for any
// h < 2q; qInv is q^{-1} mod 2^64. With m = l·qInv mod 2^64, m·q ≡ l
// (mod 2^64), so (h·2^64 + l − m·q)/2^64 is exactly h − hi64(m·q), which
// lies in (−q, 2q).
func montReduce(h, l, q, qInv uint64) uint64 {
	mh, _ := bits.Mul64(l*qInv, q)
	r := h - mh
	if h < mh {
		r += q
	}
	if r >= q {
		r -= q
	}
	return r
}

// PowMod returns x^e mod q.
func PowMod(x, e, q uint64) uint64 {
	r := uint64(1)
	base := x % q
	for e > 0 {
		if e&1 == 1 {
			r = MulMod(r, base, q)
		}
		base = MulMod(base, base, q)
		e >>= 1
	}
	return r
}

// InvMod returns x^{-1} mod q for prime q.
func InvMod(x, q uint64) uint64 {
	return PowMod(x, q-2, q)
}

// bitrev reverses the low `bits` bits of x.
func bitrev(x uint64, bits int) uint64 {
	var r uint64
	for i := 0; i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// primeBases are the Miller–Rabin bases under which every composite below
// 3.3·10^24 — so every uint64 — fails at least one round.
var primeBases = [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}

// isPrime reports whether n is prime: a deterministic Miller–Rabin test
// to the bases 2 to 37, exact on every uint64.
func isPrime(n uint64) bool {
	for _, p := range primeBases {
		if n%p == 0 {
			return n == p
		}
	}
	if n < 2 {
		return false
	}
	s := bits.TrailingZeros64(n - 1)
	d := (n - 1) >> s
	for _, a := range primeBases {
		x := PowMod(a, d, n)
		if x == 1 {
			continue
		}
		// n is prime only if squaring reaches −1 before s steps: a 1
		// first is a square root of 1 other than ±1.
		for r := 1; r < s && x != n-1; r++ {
			x = MulMod(x, x, n)
		}
		if x != n-1 {
			return false
		}
	}
	return true
}

// GeneratePrimes returns `count` distinct primes of roughly bitLen bits,
// each congruent to 1 modulo step. It scans downward from 2^bitLen so the
// largest suitable primes are found first.
func GeneratePrimes(bitLen int, step uint64, count int) ([]uint64, error) {
	if bitLen < 20 || bitLen > 61 {
		return nil, fmt.Errorf("ring: prime bit length %d out of range [20,61]", bitLen)
	}
	primes := make([]uint64, 0, count)
	upper := uint64(1) << uint(bitLen)
	// Largest multiple of step at or below upper, plus one.
	cand := (upper/step)*step + 1
	// Cap the scan: by prime density a legitimate request finds each
	// prime within ~bitLen candidates, so a search still short after a
	// million is an impossible request (step too close to 2^bitLen) —
	// fail it instead of grinding Miller-Rabin to the bottom of the
	// range. Decoded wire parameters reach here, so this must not spin.
	scanned := 0
	const scanBudget = 1 << 20
	for cand > step && len(primes) < count {
		if scanned++; scanned > scanBudget {
			return nil, fmt.Errorf("ring: found only %d/%d primes of %d bits with step %d within scan budget", len(primes), count, bitLen, step)
		}
		if cand <= upper && isPrime(cand) {
			primes = append(primes, cand)
		}
		if cand < step {
			break
		}
		cand -= step
	}
	if len(primes) < count {
		return nil, fmt.Errorf("ring: found only %d/%d primes of %d bits with step %d", len(primes), count, bitLen, step)
	}
	return primes, nil
}

// NewModulus builds the NTT tables for prime q and transform size n (a
// power of two). q must satisfy q ≡ 1 (mod 2n).
func NewModulus(q uint64, n int) (*Modulus, error) {
	if n < 16 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ring: transform size %d is not a power of two of at least 16", n)
	}
	if (q-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("ring: prime %d is not congruent to 1 mod %d", q, 2*n)
	}
	if q >= 1<<62 {
		return nil, fmt.Errorf("ring: prime %d exceeds 62 bits (lazy NTT reduction bound)", q)
	}
	logN := bits.TrailingZeros(uint(n))
	psi, err := primitiveRoot2N(q, uint64(n))
	if err != nil {
		return nil, err
	}
	m := &Modulus{
		Q:    q,
		N:    n,
		LogN: logN,
		psi:  psi,
	}
	m.pinTier(hostTier)
	m.psiInv = InvMod(psi, q)
	m.nInv = InvMod(uint64(n), q)
	m.nInvS = ShoupPrecomp(m.nInv, q)
	m.qInv = montInv(q)
	m.r64 = -q % q
	m.r64S = ShoupPrecomp(m.r64, q)
	m.rInv = InvMod(m.r64, q)
	m.rInvS = ShoupPrecomp(m.rInv, q)

	m.psiRev = make([]uint64, n)
	m.psiRevS = make([]uint64, n)
	m.psiInvRev = make([]uint64, n)
	m.psiInvRevS = make([]uint64, n)
	fwd := uint64(1)
	inv := uint64(1)
	pows := make([]uint64, n)
	powsInv := make([]uint64, n)
	for i := 0; i < n; i++ {
		pows[i] = fwd
		powsInv[i] = inv
		fwd = MulMod(fwd, psi, q)
		inv = MulMod(inv, m.psiInv, q)
	}
	for i := 0; i < n; i++ {
		r := bitrev(uint64(i), logN)
		m.psiRev[i] = pows[r]
		m.psiRevS[i] = ShoupPrecomp(pows[r], q)
		m.psiInvRev[i] = powsInv[r]
		m.psiInvRevS[i] = ShoupPrecomp(powsInv[r], q)
	}
	return m, nil
}

// primitiveRoot2N finds a primitive 2n-th root of unity modulo prime q,
// i.e. psi with psi^n ≡ -1 (mod q). The search is deterministic so that
// parameter generation is reproducible.
func primitiveRoot2N(q, n uint64) (uint64, error) {
	exp := (q - 1) / (2 * n)
	for h := uint64(2); h < 1<<20; h++ {
		psi := PowMod(h, exp, q)
		if PowMod(psi, n, q) == q-1 {
			return psi, nil
		}
	}
	return 0, fmt.Errorf("ring: no primitive 2*%d-th root of unity mod %d", n, q)
}
