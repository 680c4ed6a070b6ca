//go:build amd64 && !purego

package ring

// Vector backends: the AVX2 and AVX-512 tiers. The assembly kernels in
// ntt_amd64.s evaluate exactly the same uint64 formulas as the scalar
// kernels — the same Harvey lazy-reduction butterflies with the same
// [0, 4q) intermediate bounds — four (AVX2) or eight (AVX-512) lanes at
// a time, so the outputs are bit-identical to the scalar path (asserted
// per tier by TestVectorKernelsMatchScalar and FuzzVectorVsScalar).
//
// AVX2 has neither an unsigned 64-bit compare nor a 64×64→128 multiply,
// so its kernels:
//
//   - substitute signed VPCMPGTQ for the conditional subtractions,
//     which is sound because vectorOKForModulus gates q < 2^61 and
//     every compared intermediate stays below 2^63 (see DESIGN.md §14);
//   - build the 64×64 high/low products from 32-bit VPMULUDQ halves
//     (4 multiplies + carry combine for the high word, 3 for the low).
//
// The AVX-512 kernels take a conditional subtraction as one unsigned
// VPMINUQ(x, x−k) and a low product as one exact VPMULLQ (AVX512DQ);
// only the high word of a Shoup product is still built from VPMULUDQ
// halves. The fully-reduced MulMod rows additionally gate q > 2^32 so
// the 2^32-radix split reduction below stays inside the lazy bounds.

// hostTier is the widest kernel tier the host supports, probed once at
// init — new Modulus and Context values capture it.
var hostTier = probeTier()

// probeTier checks CPUID for AVX2 and AVX-512 (F and DQ) and XGETBV for
// the OS's support of the register state each needs. No external
// cpu-feature package is used; the two tiny assembly shims below are the
// whole probe.
func probeTier() kernelTier {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return tierScalar
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return tierScalar
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX state) must both be enabled by
	// the OS or the ymm registers are not preserved across context
	// switches; bits 5-7 (opmask, the upper halves of ZMM0-15, ZMM16-31)
	// likewise for the zmm registers.
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return tierScalar
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2 = 1 << 5
	const avx512 = 1<<16 | 1<<17 // AVX512F, AVX512DQ
	switch {
	case ebx7&avx2 == 0:
		return tierScalar
	case ebx7&avx512 == avx512 && xcr0&0xe0 == 0xe0:
		return tierAVX512
	}
	return tierAVX2
}

//go:noescape
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbvAsm() (eax, edx uint32)

// AVX2 transform sweep kernels. All operate on full rows whose length
// is a multiple of 8 (vectorOKForModulus gates n ≥ 32).

//go:noescape
func nttFwdFused1AVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)

//go:noescape
func nttLayerFwdAVX2(a, psiRev, psiRevS []uint64, grp, t int, q uint64)

//go:noescape
func nttFwdTailAVX2(a, psiRev, psiRevS []uint64, q uint64)

//go:noescape
func inttHeadAVX2(a, psiInvRev, psiInvRevS []uint64, q uint64)

//go:noescape
func inttLayerAVX2(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)

//go:noescape
func inttTailAVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)

// AVX-512 transform sweep kernels: the AVX2 ones eight lanes wide, plus
// a kernel for the t = 4 layer, whose butterfly spans are half a vector.
// All operate on full rows of at least 64 elements.

//go:noescape
func nttFwdHeadAVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)

//go:noescape
func nttLayerFwdAVX512(a, psiRev, psiRevS []uint64, grp, t int, q uint64)

//go:noescape
func nttLayerFwd4AVX512(a, psiRev, psiRevS []uint64, q uint64)

//go:noescape
func nttFwdTailAVX512(a, psiRev, psiRevS []uint64, q uint64)

//go:noescape
func inttHeadAVX512(a, psiInvRev, psiInvRevS []uint64, q uint64)

//go:noescape
func inttLayer4AVX512(a, psiInvRev, psiInvRevS []uint64, q uint64)

//go:noescape
func inttLayerAVX512(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)

//go:noescape
func inttTailAVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)

// Pointwise kernels. Each processes len/4 (AVX2) or len/8 (AVX-512)
// vector steps; the Go wrappers below run the scalar kernel on the
// ragged tail.

//go:noescape
func addVecAVX2(q uint64, a, b, out []uint64)

//go:noescape
func subVecAVX2(q uint64, a, b, out []uint64)

//go:noescape
func negVecAVX2(q uint64, a, out []uint64)

//go:noescape
func mulVecAVX2(q, r32, r32s uint64, a, b, out []uint64)

//go:noescape
func dotMontVecAVX2(q, qInv uint64, d, b, a [][]uint64, out0, out1 []uint64)

//go:noescape
func mulScalarVecAVX2(q, c, cs uint64, a, out []uint64)

//go:noescape
func addVecAVX512(q uint64, a, b, out []uint64)

//go:noescape
func subVecAVX512(q uint64, a, b, out []uint64)

//go:noescape
func negVecAVX512(q uint64, a, out []uint64)

//go:noescape
func mulVecAVX512(q, r32, r32s uint64, a, b, out []uint64)

//go:noescape
func dotMontVecAVX512(q, qInv uint64, d, b, a [][]uint64, out0, out1 []uint64)

//go:noescape
func mulScalarVecAVX512(q, c, cs uint64, a, out []uint64)

// Rounding kernels of a level move (AVX-512 only): the base conversion
// target for 1 to maxConvPrimes source rows, and the rescale. Both take
// rows whose length is a multiple of 8 (convVecOK).

//go:noescape
func convTargetAVX512(m uint64, y [][]uint64, c, cs []uint64, corr *corrTable, v, out []uint64)

//go:noescape
func rescaleVecAVX512(q, inv, invS uint64, a, delta, out []uint64)

// nttVec is the vector forward transform: the same fused pass
// structure as nttScalar (fused first double layer, per-layer middle
// sweeps, fused final double layer with the [0, q) reduction folded
// in), with each pass running the kernel of the tier. A transform too
// short for the 8-lane head and tail (n < 64) runs the AVX2 kernels.
func (m *Modulus) nttVec(tier kernelTier, a []uint64) {
	n := m.N
	q := m.Q
	quarter := n >> 2
	if tier == tierAVX512 && n >= 64 {
		nttFwdHeadAVX512(a,
			m.psiRev[1], m.psiRevS[1],
			m.psiRev[2], m.psiRevS[2],
			m.psiRev[3], m.psiRevS[3], q)
		t := n >> 3
		for grp := 4; grp < quarter; grp <<= 1 {
			if t == 4 {
				nttLayerFwd4AVX512(a, m.psiRev, m.psiRevS, q)
			} else {
				nttLayerFwdAVX512(a, m.psiRev, m.psiRevS, grp, t, q)
			}
			t >>= 1
		}
		nttFwdTailAVX512(a, m.psiRev, m.psiRevS, q)
		return
	}
	nttFwdFused1AVX2(a,
		m.psiRev[1], m.psiRevS[1],
		m.psiRev[2], m.psiRevS[2],
		m.psiRev[3], m.psiRevS[3], q)
	t := n >> 3
	for grp := 4; grp < quarter; grp <<= 1 {
		nttLayerFwdAVX2(a, m.psiRev, m.psiRevS, grp, t, q)
		t >>= 1
	}
	nttFwdTailAVX2(a, m.psiRev, m.psiRevS, q)
}

// inttVec is the vector inverse transform, mirroring inttScalar: fused
// first double layer, per-layer middle sweeps, fused final double layer
// with the 1/N scaling and [0, q) reduction folded in.
func (m *Modulus) inttVec(tier kernelTier, a []uint64) {
	n := m.N
	q := m.Q
	if tier == tierAVX512 && n >= 64 {
		inttHeadAVX512(a, m.psiInvRev, m.psiInvRevS, q)
		t := 4
		for grp := n >> 3; grp >= 4; grp >>= 1 {
			if t == 4 {
				inttLayer4AVX512(a, m.psiInvRev, m.psiInvRevS, q)
			} else {
				inttLayerAVX512(a, m.psiInvRev, m.psiInvRevS, grp, t, q)
			}
			t <<= 1
		}
		inttTailAVX512(a,
			m.psiInvRev[1], m.psiInvRevS[1],
			m.psiInvRev[2], m.psiInvRevS[2],
			m.psiInvRev[3], m.psiInvRevS[3],
			m.nInv, m.nInvS, q)
		return
	}
	inttHeadAVX2(a, m.psiInvRev, m.psiInvRevS, q)
	t := 4
	for grp := n >> 3; grp >= 4; grp >>= 1 {
		inttLayerAVX2(a, m.psiInvRev, m.psiInvRevS, grp, t, q)
		t <<= 1
	}
	inttTailAVX2(a,
		m.psiInvRev[1], m.psiInvRevS[1],
		m.psiInvRev[2], m.psiInvRevS[2],
		m.psiInvRev[3], m.psiInvRevS[3],
		m.nInv, m.nInvS, q)
}

// r32ModQ returns 2^32 mod q and its Shoup companion — the radix
// constants of the vectorized MulMod split reduction.
func r32ModQ(q uint64) (uint64, uint64) {
	r32 := (uint64(1) << 32) % q
	return r32, ShoupPrecomp(r32, q)
}

// vecLen is the prefix of an n-element row the tier's kernels take: a
// whole number of 8 (AVX-512) or 4 (AVX2) lanes.
func vecLen(tier kernelTier, n int) int {
	if tier == tierAVX512 {
		return n &^ 7
	}
	return n &^ 3
}

// The *VecAsm wrappers run the tier's kernel over the lane-aligned
// prefix and the scalar kernel over the ragged tail (rows in practice
// are power-of-two length, so the tail is empty).

func addVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecLen(tier, len(out))
	if tier == tierAVX512 {
		addVecAVX512(q, a[:n], b[:n], out[:n])
	} else {
		addVecAVX2(q, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		addRowScalar(q, a[n:], b[n:], out[n:])
	}
}

func subVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecLen(tier, len(out))
	if tier == tierAVX512 {
		subVecAVX512(q, a[:n], b[:n], out[:n])
	} else {
		subVecAVX2(q, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		subRowScalar(q, a[n:], b[n:], out[n:])
	}
}

func negVecAsm(tier kernelTier, q uint64, a, out []uint64) {
	n := vecLen(tier, len(out))
	if tier == tierAVX512 {
		negVecAVX512(q, a[:n], out[:n])
	} else {
		negVecAVX2(q, a[:n], out[:n])
	}
	if n < len(out) {
		negRowScalar(q, a[n:], out[n:])
	}
}

func mulVecAsm(tier kernelTier, q uint64, a, b, out []uint64) {
	n := vecLen(tier, len(out))
	r32, r32s := r32ModQ(q)
	if tier == tierAVX512 {
		mulVecAVX512(q, r32, r32s, a[:n], b[:n], out[:n])
	} else {
		mulVecAVX2(q, r32, r32s, a[:n], b[:n], out[:n])
	}
	if n < len(out) {
		mulRowScalar(q, a[n:], b[n:], out[n:])
	}
}

// dotMontVecAsm is dotMontRowScalar on the tier's kernel for 1 to
// montGroup digits, over the lane-aligned prefix, with the scalar kernel
// on the ragged tail. The checks keep the kernel's reads inside the rows.
func dotMontVecAsm(tier kernelTier, q, qInv uint64, d, b, a [][]uint64, out0, out1 []uint64) {
	n := len(out0)
	if len(d) == 0 || len(d) > montGroup || len(b) < len(d) || len(a) < len(d) {
		panic("ring: inner product of more than montGroup digits")
	}
	for k := range d {
		_, _, _ = d[k][:n], b[k][:n], a[k][:n]
	}
	out1 = out1[:n]
	v := vecLen(tier, n)
	if tier == tierAVX512 {
		dotMontVecAVX512(q, qInv, d, b, a, out0[:v], out1[:v])
	} else {
		dotMontVecAVX2(q, qInv, d, b, a, out0[:v], out1[:v])
	}
	if v < n {
		var dt, bt, at [montGroup][]uint64
		for k := range d {
			dt[k], bt[k], at[k] = d[k][v:n], b[k][v:n], a[k][v:n]
		}
		var lo0, lo1 [8]uint64
		k := len(d)
		dotMontRowScalar(q, qInv, dt[:k], bt[:k], at[:k], out0[v:], out1[v:], lo0[:n-v], lo1[:n-v])
	}
}

func mulScalarVecAsm(tier kernelTier, q, c, cs uint64, a, out []uint64) {
	n := vecLen(tier, len(out))
	if tier == tierAVX512 {
		mulScalarVecAVX512(q, c, cs, a[:n], out[:n])
	} else {
		mulScalarVecAVX2(q, c, cs, a[:n], out[:n])
	}
	if n < len(out) {
		mulScalarRowScalar(q, c, cs, a[n:], out[n:])
	}
}

// targetVecAsm is baseConv.target on the AVX-512 kernel: out = reduce(
// Σ_k MulModShoupLazy(y_k, c_k) + corr[v mod 8]). The checks keep the
// kernel's reads inside the rows.
func targetVecAsm(m uint64, y [][]uint64, c, cs []uint64, corr *corrTable, v, out []uint64) {
	if len(y) == 0 || len(y) > maxConvPrimes || len(c) < len(y) || len(cs) < len(y) {
		panic("ring: base conversion from more than maxConvPrimes primes")
	}
	for _, row := range y {
		_ = row[:len(out)]
	}
	convTargetAVX512(m, y, c, cs, corr, v[:len(out)], out)
}

// rescaleVecAsm is rescaleRow on the AVX-512 kernel.
func rescaleVecAsm(q, inv, invS uint64, a, delta, out []uint64) {
	rescaleVecAVX512(q, inv, invS, a[:len(out)], delta[:len(out)], out)
}
