package ring

// Vector kernel selection. On amd64 hosts with AVX2 the butterfly sweeps
// of NTT/INTT and the pointwise workhorses (MulCoeffsShoupAdd,
// MulCoeffs[Add], Add/Sub/Neg, MulScalar[Vec]) run 4-lane assembly
// kernels (ntt_amd64.s); everywhere else — and under the `purego` build
// tag — the scalar Go kernels are the implementation. Selection happens
// once per Modulus/Context at construction from a capability probe run
// at init; Context.SetVectorKernels and Modulus.SetVectorKernels retune
// one instance, which is how the tests pin the scalar reference.
//
// The vector kernels are bit-identical to the scalar ones: the
// butterflies and Shoup multiplies evaluate exactly the same uint64
// formulas lane-wise (same lazy-reduction bounds), and the fully-reduced
// kernels (MulMod) produce canonical residues on both paths. The
// property is asserted by TestVectorKernelsMatchScalar and
// FuzzVectorVsScalar.
//
// Eligibility is gated per modulus: q must fit in (2^32, 2^61) so that
// every lazy intermediate stays below 2^63 (signed 64-bit lane compares
// stand in for the unsigned compares AVX2 lacks — see DESIGN.md §14 for
// the bound proof) and so that the MulMod split-reduction's carry terms
// stay below q. The 55-bit production prime menu sits comfortably inside
// the gate; out-of-range primes silently keep the scalar kernels.

// VectorKernelsAvailable reports whether the host supports the vector
// kernels at all (amd64 with AVX2, not built with `purego`).
func VectorKernelsAvailable() bool { return vectorAvailable() }

// KernelVariant names the transform kernel new Contexts select: "avx2"
// when the host has the vector backend, "scalar-fused" otherwise.
// Benchmark provenance headers record it.
func KernelVariant() string {
	if vectorAvailable() {
		return "avx2"
	}
	return "scalar-fused"
}

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
// least one full 4-lane step. The kernels handle any n ≥ 4 (a scalar
// tail loop covers n % 4), but tiny rows are not worth the call.
func rowVecOK(vec bool, q uint64, n int) bool {
	return vec && n >= 16 && q > 1<<32 && q < 1<<61
}
