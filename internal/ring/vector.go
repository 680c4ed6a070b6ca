package ring

// Vector kernel selection. On amd64 hosts the butterfly sweeps of
// NTT/INTT and the pointwise workhorses (DotMontgomeryAdd, MulCoeffs,
// Add/Sub/Neg, MulScalar[Vec]) run assembly kernels
// (ntt_amd64.s) of one of two tiers: 8-lane AVX-512 where the host has
// AVX512F and AVX512DQ, otherwise 4-lane AVX2. The AVX-512 tier also
// vectorizes the base conversion and rescale of every level move
// (basisext.go). Everywhere else — and under the `purego` build tag —
// the scalar Go kernels are the implementation. The host's tier is
// probed once at init; each Modulus/Context captures it at construction,
// and Context.SetVectorKernels and Modulus.SetVectorKernels switch one
// instance between it and the scalar kernels, which is how the tests pin
// the scalar reference.
//
// Every tier is bit-identical to the scalar kernels: the butterflies and
// Shoup multiplies evaluate exactly the same uint64 formulas lane-wise
// (same lazy-reduction bounds), and the fully-reduced kernels (MulMod,
// the Montgomery inner product) produce canonical residues on every
// path. The property is asserted per
// tier by TestVectorKernelsMatchScalar, TestVectorRowKernelsMatchScalar
// and FuzzVectorVsScalar.
//
// Eligibility is gated per modulus: q must fit in (2^32, 2^61) so that
// every lazy intermediate stays below 2^63 (AVX2 stands signed 64-bit
// lane compares in for the unsigned compares it lacks — see DESIGN.md
// §14 for the bound proof) and so that the MulMod split-reduction's
// carry terms stay below q. The 55-bit production prime menu sits
// comfortably inside the gate; out-of-range primes silently keep the
// scalar kernels.

// kernelTier is a backend of the ring kernels, ordered by width: a host
// that has a tier has every tier below it.
type kernelTier uint32

const (
	tierScalar kernelTier = iota // the Go kernels: the reference
	tierAVX2                     // 4-lane assembly
	tierAVX512                   // 8-lane assembly
)

func (t kernelTier) String() string {
	switch t {
	case tierAVX2:
		return "avx2"
	case tierAVX512:
		return "avx512"
	}
	return "scalar-fused"
}

// vectorTier is the tier SetVectorKernels(on) selects.
func vectorTier(on bool) kernelTier {
	if on {
		return hostTier
	}
	return tierScalar
}

// VectorKernelsAvailable reports whether the host supports the vector
// kernels at all (amd64 with AVX2, not built with `purego`).
func VectorKernelsAvailable() bool { return hostTier != tierScalar }

// KernelVariant names the kernel tier new Contexts select: "avx512",
// "avx2", or "scalar-fused" on a host without a vector backend.
// Benchmark provenance headers record it.
func KernelVariant() string { return hostTier.String() }

// vectorOKForModulus reports whether the vector kernels may serve prime
// q at transform size n: the lazy-reduction intermediates must stay
// below 2^63 (q < 2^61), the MulMod split reduction needs 2^32 < q, and
// the fused head/tail kernels process two 4-element blocks per step
// (n ≥ 32).
func vectorOKForModulus(q uint64, n int) bool {
	return q > 1<<32 && q < 1<<61 && n >= 32
}

// rowVecOK reports whether a pointwise row of length n over prime q may
// take the vector path: same modulus gate, plus a length that covers at
// least one full vector step. The kernels handle any n ≥ 8 (a scalar
// tail loop covers the ragged end), but tiny rows are not worth the call.
func rowVecOK(tier kernelTier, q uint64, n int) bool {
	return tier != tierScalar && n >= 16 && q > 1<<32 && q < 1<<61
}

// convVecOK reports whether a base-conversion or rescale row of length n
// may take the AVX-512 kernels, which have no scalar tail. They need no
// modulus gate: their conditional subtractions are unsigned compares and
// the conversion's sums stay below 11m < 2^64 for every m below
// maxHybridModulus.
func convVecOK(tier kernelTier, n int) bool {
	return tier == tierAVX512 && n%8 == 0
}
