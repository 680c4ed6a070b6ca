//go:build amd64 && !purego

#include "textflag.h"

// Kernels for the ring layer in two tiers: the 4-lane AVX2 kernels
// first, the 8-lane AVX-512 kernels after them (ntt_amd64.go picks one
// by the host's CPUID). Every kernel of either tier evaluates the scalar
// kernels' uint64 formulas, so all three backends compute the same bits.
//
// AVX2 kernels. Shared register conventions:
//
//   Y15 = LO32 (0x00000000FFFFFFFF per lane)
//   Y14 = Q    (modulus broadcast)
//
// and, in the transform kernels only:
//
//   Y13 = 2Q
//   Y12 = 2Q-1
//
// AVX2 has no unsigned 64-bit compare and no 64x64->128 multiply, so:
//   - conditional subtractions use signed VPCMPGTQ, sound because
//     vectorOKForModulus gates q < 2^61 and every compared value stays
//     below 2^63;
//   - wide products are assembled from 32-bit VPMULUDQ halves (4 muls
//     plus a carry combine for the high word, 3 for the low word).
//
// LAZYMUL computes OUT = X*W - hi64(X*WS)*Q per lane — exactly
// MulModShoupLazy, result in [0, 2q). XS must hold X>>32. Clobbers
// T0..T3; preserves X, XS, W, WS. Uses Y15 (LO32) and Y14 (Q).
#define LAZYMUL(X, XS, W, WS, T0, T1, T2, T3, OUT) \
	VPSRLQ $32, WS, T3    \
	VPMULUDQ T3, X, T1    \
	VPMULUDQ T3, XS, T3   \
	VPMULUDQ WS, X, T0    \
	VPMULUDQ WS, XS, T2   \
	VPSRLQ $32, T0, T0    \
	VPAND Y15, T1, OUT    \
	VPADDQ OUT, T0, T0    \
	VPAND Y15, T2, OUT    \
	VPADDQ OUT, T0, T0    \
	VPSRLQ $32, T0, T0    \
	VPSRLQ $32, T1, T1    \
	VPSRLQ $32, T2, T2    \
	VPADDQ T1, T3, T3     \
	VPADDQ T2, T3, T3     \
	VPADDQ T0, T3, T3     \
	VPSRLQ $32, W, T1     \
	VPMULUDQ T1, X, T1    \
	VPMULUDQ W, XS, T2    \
	VPADDQ T2, T1, T1     \
	VPSLLQ $32, T1, T1    \
	VPMULUDQ W, X, T0     \
	VPADDQ T1, T0, T0     \
	VPSRLQ $32, T3, T1    \
	VPMULUDQ Y14, T1, T1  \
	VPSRLQ $32, Y14, T2   \
	VPMULUDQ T2, T3, T2   \
	VPADDQ T2, T1, T1     \
	VPSLLQ $32, T1, T1    \
	VPMULUDQ Y14, T3, T3  \
	VPADDQ T3, T1, T1     \
	VPSUBQ T1, T0, OUT

// CONDSUB2Q: X -= 2q if X >= 2q. Uses Y13 (2q), Y12 (2q-1).
#define CONDSUB2Q(X, T) \
	VPCMPGTQ Y12, X, T \
	VPAND Y13, T, T    \
	VPSUBQ T, X, X

// CONDSUBQ: X -= q if X >= q. Uses Y14 (Q) only.
#define CONDSUBQ(X, T) \
	VPCMPGTQ X, Y14, T \
	VPANDN Y14, T, T   \
	VPSUBQ T, X, X

// LOADCONSTS: broadcast Q/2Q/2Q-1/LO32 from the GP register holding q.
// Clobbers QR and X0.
#define LOADCONSTS(QR) \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y14   \
	LEAQ (QR)(QR*1), QR    \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y13   \
	DECQ QR                \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y12   \
	VPCMPEQD Y15, Y15, Y15 \
	VPSRLQ $32, Y15, Y15

// LOADQLO32: broadcast Q and LO32 only (pointwise kernels).
#define LOADQLO32(QR) \
	MOVQ QR, X0            \
	VPBROADCASTQ X0, Y14   \
	VPCMPEQD Y15, Y15, Y15 \
	VPSRLQ $32, Y15, Y15

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func nttLayerFwdAVX2(a, psiRev, psiRevS []uint64, grp, t int, q uint64)
//
// One forward butterfly layer: for each group i, twiddle w=psiRev[grp+i],
// spans x/y of length t (t >= 4, multiple of 4):
//   u = condsub2q(x[j]); v = lazymul(y[j], w); x[j] = u+v; y[j] = u-v+2q
TEXT ·nttLayerFwdAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	SHLQ $3, R10

fwdlayer_outer:
	VPBROADCASTQ (R8), Y11
	VPBROADCASTQ (R9), Y10
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

fwdlayer_inner:
	VMOVDQU (DX), Y0
	VMOVDQU (DI), Y1
	CONDSUB2Q(Y0, Y8)
	VPSRLQ $32, Y1, Y2
	LAZYMUL(Y1, Y2, Y11, Y10, Y3, Y4, Y5, Y6, Y7)
	VPADDQ Y7, Y0, Y8
	VMOVDQU Y8, (DX)
	VPSUBQ Y7, Y0, Y8
	VPADDQ Y13, Y8, Y8
	VMOVDQU Y8, (DI)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ fwdlayer_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ fwdlayer_outer
	VZEROUPPER
	RET

// func nttFwdFused1AVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)
//
// Fused first double layer of the forward transform: the strided
// quarter-slices x0..x3 meet in layers grp=1 and grp=2; every lane is
// an independent j, so no shuffles are needed.
TEXT ·nttFwdFused1AVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+72(FP), AX
	LOADCONSTS(AX)
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

fused1_loop:
	VMOVDQU (R8), Y0
	VMOVDQU (R9), Y1
	VMOVDQU (R10), Y2
	VMOVDQU (R11), Y3
	CONDSUB2Q(Y0, Y8)
	CONDSUB2Q(Y1, Y8)
	VPBROADCASTQ w1+24(FP), Y11
	VPBROADCASTQ w1s+32(FP), Y10
	VPSRLQ $32, Y2, Y4
	LAZYMUL(Y2, Y4, Y11, Y10, Y5, Y6, Y7, Y8, Y9)
	VPADDQ Y9, Y0, Y2
	VPSUBQ Y9, Y0, Y4
	VPADDQ Y13, Y4, Y4
	VPSRLQ $32, Y3, Y5
	LAZYMUL(Y3, Y5, Y11, Y10, Y6, Y7, Y8, Y0, Y9)
	VPADDQ Y9, Y1, Y3
	VPSUBQ Y9, Y1, Y5
	VPADDQ Y13, Y5, Y5
	CONDSUB2Q(Y2, Y8)
	VPBROADCASTQ w2+40(FP), Y11
	VPBROADCASTQ w2s+48(FP), Y10
	VPSRLQ $32, Y3, Y6
	LAZYMUL(Y3, Y6, Y11, Y10, Y7, Y8, Y9, Y0, Y1)
	VPADDQ Y1, Y2, Y0
	VMOVDQU Y0, (R8)
	VPSUBQ Y1, Y2, Y0
	VPADDQ Y13, Y0, Y0
	VMOVDQU Y0, (R9)
	CONDSUB2Q(Y4, Y8)
	VPBROADCASTQ w3+56(FP), Y11
	VPBROADCASTQ w3s+64(FP), Y10
	VPSRLQ $32, Y5, Y6
	LAZYMUL(Y5, Y6, Y11, Y10, Y7, Y8, Y9, Y0, Y1)
	VPADDQ Y1, Y4, Y0
	VMOVDQU Y0, (R10)
	VPSUBQ Y1, Y4, Y0
	VPADDQ Y13, Y0, Y0
	VMOVDQU Y0, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, BX
	JNZ fused1_loop
	VZEROUPPER
	RET

// func nttFwdTailAVX2(a, psiRev, psiRevS []uint64, q uint64)
//
// Fused final double layer (t=2 then t=1) of the forward transform with
// the [0, q) reduction folded in. Processes two 4-element blocks per
// iteration so every lane carries a distinct butterfly:
//
//   t=2: pairs (a0,a2),(a1,a3) per block against psiRev[quarter+i]
//   t=1: pairs (b0,b1),(b2,b3) against psiRev[half+2i], psiRev[half+2i+1]
TEXT ·nttFwdTailAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	SHLQ $3, BX

fwdtail_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPERM2I128 $0x20, Y1, Y0, Y2
	VPERM2I128 $0x31, Y1, Y0, Y3
	VPERMQ $0x50, (R10), Y10
	VPERMQ $0x50, (R11), Y9
	ADDQ $16, R10
	ADDQ $16, R11
	CONDSUB2Q(Y2, Y8)
	VPSRLQ $32, Y3, Y4
	LAZYMUL(Y3, Y4, Y10, Y9, Y5, Y6, Y7, Y8, Y0)
	VPADDQ Y0, Y2, Y1
	VPSUBQ Y0, Y2, Y2
	VPADDQ Y13, Y2, Y2
	VPUNPCKLQDQ Y2, Y1, Y3
	VPUNPCKHQDQ Y2, Y1, Y4
	VMOVDQU (R12), Y10
	VMOVDQU (R13), Y9
	ADDQ $32, R12
	ADDQ $32, R13
	CONDSUB2Q(Y3, Y8)
	VPSRLQ $32, Y4, Y5
	LAZYMUL(Y4, Y5, Y10, Y9, Y6, Y7, Y8, Y0, Y1)
	VPADDQ Y1, Y3, Y0
	VPSUBQ Y1, Y3, Y2
	VPADDQ Y13, Y2, Y2
	CONDSUB2Q(Y0, Y8)
	CONDSUB2Q(Y2, Y8)
	CONDSUBQ(Y0, Y8)
	CONDSUBQ(Y2, Y8)
	VPUNPCKLQDQ Y2, Y0, Y3
	VPUNPCKHQDQ Y2, Y0, Y4
	VPERM2I128 $0x20, Y4, Y3, Y0
	VPERM2I128 $0x31, Y4, Y3, Y1
	VMOVDQU Y0, (SI)
	VMOVDQU Y1, 32(SI)
	ADDQ $64, SI
	SUBQ $64, BX
	JNZ fwdtail_loop
	VZEROUPPER
	RET

// func inttHeadAVX2(a, psiInvRev, psiInvRevS []uint64, q uint64)
//
// Fused first double layer (t=1 then t=2) of the inverse transform.
// Two blocks per iteration, outputs stay lazy in [0, 2q).
TEXT ·inttHeadAVX2(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	SHLQ $3, BX

intthead_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPUNPCKLQDQ Y1, Y0, Y2
	VPUNPCKHQDQ Y1, Y0, Y3
	VPADDQ Y3, Y2, Y0
	CONDSUB2Q(Y0, Y8)
	VPSUBQ Y3, Y2, Y1
	VPADDQ Y13, Y1, Y1
	VPERMQ $0xD8, (R12), Y10
	VPERMQ $0xD8, (R13), Y9
	ADDQ $32, R12
	ADDQ $32, R13
	VPSRLQ $32, Y1, Y4
	LAZYMUL(Y1, Y4, Y10, Y9, Y5, Y6, Y7, Y8, Y2)
	VPUNPCKLQDQ Y2, Y0, Y3
	VPUNPCKHQDQ Y2, Y0, Y4
	VPERM2I128 $0x20, Y4, Y3, Y0
	VPERM2I128 $0x31, Y4, Y3, Y1
	VPERMQ $0x50, (R10), Y10
	VPERMQ $0x50, (R11), Y9
	ADDQ $16, R10
	ADDQ $16, R11
	VPADDQ Y1, Y0, Y2
	CONDSUB2Q(Y2, Y8)
	VPSUBQ Y1, Y0, Y3
	VPADDQ Y13, Y3, Y3
	VPSRLQ $32, Y3, Y4
	LAZYMUL(Y3, Y4, Y10, Y9, Y5, Y6, Y7, Y8, Y0)
	VPERM2I128 $0x20, Y0, Y2, Y1
	VPERM2I128 $0x31, Y0, Y2, Y3
	VMOVDQU Y1, (SI)
	VMOVDQU Y3, 32(SI)
	ADDQ $64, SI
	SUBQ $64, BX
	JNZ intthead_loop
	VZEROUPPER
	RET

// func inttLayerAVX2(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)
//
// One inverse butterfly layer: r = condsub2q(u+v) -> x[j];
// y[j] = lazymul(u-v+2q, w).
TEXT ·inttLayerAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	SHLQ $3, R10

invlayer_outer:
	VPBROADCASTQ (R8), Y11
	VPBROADCASTQ (R9), Y10
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

invlayer_inner:
	VMOVDQU (DX), Y0
	VMOVDQU (DI), Y1
	VPADDQ Y1, Y0, Y2
	CONDSUB2Q(Y2, Y8)
	VMOVDQU Y2, (DX)
	VPSUBQ Y1, Y0, Y2
	VPADDQ Y13, Y2, Y2
	VPSRLQ $32, Y2, Y3
	LAZYMUL(Y2, Y3, Y11, Y10, Y4, Y5, Y6, Y7, Y8)
	VMOVDQU Y8, (DI)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ invlayer_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ invlayer_outer
	VZEROUPPER
	RET

// func inttTailAVX2(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)
//
// Fused final double layer of the inverse transform (grp=2 then grp=1)
// over the strided quarter-slices, with the 1/N scaling and [0, q)
// reduction folded in. Lane-parallel, no shuffles.
TEXT ·inttTailAVX2(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+88(FP), AX
	LOADCONSTS(AX)
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

intttail_loop:
	VMOVDQU (R8), Y0
	VMOVDQU (R9), Y1
	VPADDQ Y1, Y0, Y2
	CONDSUB2Q(Y2, Y8)
	VPSUBQ Y1, Y0, Y3
	VPADDQ Y13, Y3, Y3
	VMOVDQU (R10), Y0
	VMOVDQU (R11), Y1
	VPADDQ Y1, Y0, Y4
	CONDSUB2Q(Y4, Y8)
	VPSUBQ Y1, Y0, Y5
	VPADDQ Y13, Y5, Y5
	VPADDQ Y4, Y2, Y0
	CONDSUB2Q(Y0, Y8)
	VPSUBQ Y4, Y2, Y2
	VPADDQ Y13, Y2, Y2
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y4, Y6, Y7, Y8, Y11)
	CONDSUBQ(Y11, Y4)
	VMOVDQU Y11, (R8)
	VPBROADCASTQ w1+24(FP), Y10
	VPBROADCASTQ w1s+32(FP), Y9
	VPSRLQ $32, Y2, Y1
	LAZYMUL(Y2, Y1, Y10, Y9, Y0, Y4, Y6, Y7, Y8)
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y8, Y1
	LAZYMUL(Y8, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y7)
	CONDSUBQ(Y7, Y0)
	VMOVDQU Y7, (R10)
	VPBROADCASTQ w2+40(FP), Y10
	VPBROADCASTQ w2s+48(FP), Y9
	VPSRLQ $32, Y3, Y1
	LAZYMUL(Y3, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y7)
	VPBROADCASTQ w3+56(FP), Y10
	VPBROADCASTQ w3s+64(FP), Y9
	VPSRLQ $32, Y5, Y1
	LAZYMUL(Y5, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y8)
	VPADDQ Y8, Y7, Y0
	CONDSUB2Q(Y0, Y2)
	VPSUBQ Y8, Y7, Y3
	VPADDQ Y13, Y3, Y3
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y4, Y6, Y7, Y8)
	CONDSUBQ(Y8, Y0)
	VMOVDQU Y8, (R9)
	VPBROADCASTQ w1+24(FP), Y10
	VPBROADCASTQ w1s+32(FP), Y9
	VPSRLQ $32, Y3, Y1
	LAZYMUL(Y3, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y7)
	VPBROADCASTQ nInv+72(FP), Y10
	VPBROADCASTQ nInvS+80(FP), Y9
	VPSRLQ $32, Y7, Y1
	LAZYMUL(Y7, Y1, Y10, Y9, Y0, Y2, Y4, Y6, Y8)
	CONDSUBQ(Y8, Y0)
	VMOVDQU Y8, (R11)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	SUBQ $32, BX
	JNZ intttail_loop
	VZEROUPPER
	RET

// func addVecAVX2(q uint64, a, b, out []uint64)
TEXT ·addVecAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ addvec_done

addvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPADDQ Y1, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ addvec_loop

addvec_done:
	VZEROUPPER
	RET

// func subVecAVX2(q uint64, a, b, out []uint64)
TEXT ·subVecAVX2(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ subvec_done

subvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	VPSUBQ Y1, Y0, Y0
	VPADDQ Y14, Y0, Y0
	CONDSUBQ(Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ subvec_loop

subvec_done:
	VZEROUPPER
	RET

// func negVecAVX2(q uint64, a, out []uint64)
TEXT ·negVecAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	MOVQ a_base+8(FP), SI
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ negvec_done
	VPXOR Y2, Y2, Y2

negvec_loop:
	VMOVDQU (SI), Y0
	VPSUBQ Y0, Y14, Y1
	VPCMPEQQ Y2, Y0, Y3
	VPANDN Y1, Y3, Y1
	VMOVDQU Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ negvec_loop

negvec_done:
	VZEROUPPER
	RET

// MULMODCORE: canonical x*y mod q for Y0=x, Y1=y via the full 128-bit
// product and a 2^32-radix split reduction: with R32 = 2^32 mod q
// (Y13, Shoup companion Y12),
//   c = lazymul(P_hi, R32); d = c + hi32(P_lo); e = lazymul(d, R32);
//   f = e + lo32(P_lo) < 3q; two conditional subtractions by q.
// Result in Y6. Clobbers Y0..Y9. Requires 2^32 < q < 2^61.
#define MULMODCORE \
	VPSRLQ $32, Y0, Y2   \
	VPSRLQ $32, Y1, Y3   \
	VPMULUDQ Y1, Y0, Y4  \
	VPMULUDQ Y3, Y0, Y5  \
	VPMULUDQ Y1, Y2, Y6  \
	VPMULUDQ Y3, Y2, Y7  \
	VPADDQ Y6, Y5, Y8    \
	VPSLLQ $32, Y8, Y8   \
	VPADDQ Y4, Y8, Y8    \
	VPSRLQ $32, Y4, Y4   \
	VPAND Y15, Y5, Y9    \
	VPADDQ Y9, Y4, Y4    \
	VPAND Y15, Y6, Y9    \
	VPADDQ Y9, Y4, Y4    \
	VPSRLQ $32, Y4, Y4   \
	VPSRLQ $32, Y5, Y5   \
	VPSRLQ $32, Y6, Y6   \
	VPADDQ Y5, Y7, Y7    \
	VPADDQ Y6, Y7, Y7    \
	VPADDQ Y4, Y7, Y7    \
	VPSRLQ $32, Y7, Y0   \
	LAZYMUL(Y7, Y0, Y13, Y12, Y1, Y2, Y3, Y4, Y5) \
	VPSRLQ $32, Y8, Y0   \
	VPADDQ Y0, Y5, Y5    \
	VPSRLQ $32, Y5, Y0   \
	LAZYMUL(Y5, Y0, Y13, Y12, Y1, Y2, Y3, Y4, Y6) \
	VPAND Y15, Y8, Y0    \
	VPADDQ Y0, Y6, Y6    \
	CONDSUBQ(Y6, Y0)     \
	CONDSUBQ(Y6, Y0)

// func mulVecAVX2(q, r32, r32s uint64, a, b, out []uint64)
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ r32+8(FP), Y13
	VPBROADCASTQ r32s+16(FP), Y12
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulvec_done

mulvec_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (DX), Y1
	MULMODCORE
	VMOVDQU Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulvec_loop

mulvec_done:
	VZEROUPPER
	RET

// MULHI computes OUT = hi64(X*W) per lane, given XH = X>>32 and
// WH = W>>32: MULHI512's formula four lanes wide. Clobbers T0..T2.
#define MULHI(X, XH, W, WH, T0, T1, T2, OUT) \
	VPMULUDQ W, X, T0    \
	VPMULUDQ WH, X, T1   \
	VPMULUDQ W, XH, T2   \
	VPMULUDQ WH, XH, OUT \
	VPSRLQ $32, T0, T0   \
	VPADDQ T0, T1, T1    \
	VPAND Y15, T1, T0    \
	VPSRLQ $32, T1, T1   \
	VPADDQ T0, T2, T2    \
	VPADDQ T1, OUT, OUT  \
	VPSRLQ $32, T2, T2   \
	VPADDQ T2, OUT, OUT

// DOTTERM adds the product of the digit Y6 (its high halves in Y7) and
// the key residues K to a 128-bit sum kept as three 64-bit lanes,
// HI·2^64 + MID·2^32 + LO: lo32(dl·kl) into LO, hi32(dl·kl) + dl·kh +
// dh·kl into MID, dh·kh into HI. With every operand below 2^60 and at
// most montGroup = 8 terms, MID stays below 8·(2^61 − 2^32) < 2^64.
// Clobbers K and Y9..Y12.
#define DOTTERM(K, LO, MID, HI) \
	VPSRLQ $32, K, Y9    \
	VPMULUDQ K, Y6, Y10  \
	VPMULUDQ Y9, Y6, Y11 \
	VPMULUDQ K, Y7, Y12  \
	VPMULUDQ Y9, Y7, Y9  \
	VPADDQ Y11, MID, MID \
	VPADDQ Y12, MID, MID \
	VPADDQ Y9, HI, HI    \
	VPAND Y15, Y10, Y11  \
	VPADDQ Y11, LO, LO   \
	VPSRLQ $32, Y10, Y10 \
	VPADDQ Y10, MID, MID

// DOTREDUCE adds the Montgomery reduction of the sum (LO, MID, HI) to
// the row at PTR+BX. It folds the sum into words L (low) and H (high,
// below q), takes m = L·qInv mod 2^64 (qInv in Y13) from 32-bit halves,
// and r = H − hi64(m·q) in (−q, q), plus q where negative (a signed
// compare: both sides are below 2^63). Clobbers LO, MID, HI, Y6..Y12.
#define DOTREDUCE(LO, MID, HI, PTR) \
	VPSRLQ $32, LO, Y6                      \
	VPADDQ Y6, MID, MID                     \
	VPAND Y15, LO, LO                       \
	VPSLLQ $32, MID, Y6                     \
	VPOR Y6, LO, LO                         \
	VPSRLQ $32, MID, MID                    \
	VPADDQ MID, HI, HI                      \
	VPSRLQ $32, LO, Y6                      \
	VPSRLQ $32, Y13, Y7                     \
	VPMULUDQ Y13, Y6, Y6                    \
	VPMULUDQ Y7, LO, Y7                     \
	VPADDQ Y7, Y6, Y6                       \
	VPSLLQ $32, Y6, Y6                      \
	VPMULUDQ Y13, LO, LO                    \
	VPADDQ Y6, LO, LO                       \
	VPSRLQ $32, LO, MID                     \
	VPSRLQ $32, Y14, Y8                     \
	MULHI(LO, MID, Y14, Y8, Y9, Y10, Y11, Y12) \
	VPCMPGTQ HI, Y12, Y9                    \
	VPSUBQ Y12, HI, HI                      \
	VPAND Y14, Y9, Y9                       \
	VPADDQ Y9, HI, HI                       \
	VMOVDQU (PTR)(BX*1), Y9                 \
	VPADDQ Y9, HI, HI                       \
	CONDSUBQ(HI, Y9)                        \
	VMOVDQU HI, (PTR)(BX*1)

// func dotMontVecAVX2(q, qInv uint64, d, b, a [][]uint64, out0, out1 []uint64)
//
// out0 += Σ_k d_k·b_k·2^-64 and out1 += Σ_k d_k·a_k·2^-64 mod q over the
// K = len(d) ∈ [1, montGroup] digits: each digit row is loaded once per
// four lanes and multiplied into both sums, and each sum is reduced once.
TEXT ·dotMontVecAVX2(SB), NOSPLIT, $0-136
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ qInv+8(FP), Y13
	MOVQ d_base+16(FP), SI
	MOVQ d_len+24(FP), CX
	IMULQ $24, CX
	MOVQ b_base+40(FP), DX
	MOVQ a_base+64(FP), R8
	MOVQ out0_base+88(FP), DI
	MOVQ out1_base+112(FP), R11
	MOVQ out0_len+96(FP), AX
	SHLQ $3, AX
	XORQ BX, BX
	TESTQ AX, AX
	JZ dotmont_done
	TESTQ CX, CX
	JZ dotmont_done

dotmont_loop:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	XORQ R9, R9

dotmont_digit:
	MOVQ (SI)(R9*1), R10
	VMOVDQU (R10)(BX*1), Y6
	VPSRLQ $32, Y6, Y7
	MOVQ (DX)(R9*1), R10
	VMOVDQU (R10)(BX*1), Y8
	DOTTERM(Y8, Y0, Y1, Y2)
	MOVQ (R8)(R9*1), R10
	VMOVDQU (R10)(BX*1), Y8
	DOTTERM(Y8, Y3, Y4, Y5)
	ADDQ $24, R9
	CMPQ R9, CX
	JLT dotmont_digit
	DOTREDUCE(Y0, Y1, Y2, DI)
	DOTREDUCE(Y3, Y4, Y5, R11)
	ADDQ $32, BX
	CMPQ BX, AX
	JLT dotmont_loop

dotmont_done:
	VZEROUPPER
	RET

// func mulScalarVecAVX2(q, c, cs uint64, a, out []uint64)
TEXT ·mulScalarVecAVX2(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	LOADQLO32(AX)
	VPBROADCASTQ c+8(FP), Y10
	VPBROADCASTQ cs+16(FP), Y9
	MOVQ a_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalar_done

mulscalar_loop:
	VMOVDQU (SI), Y0
	VPSRLQ $32, Y0, Y1
	LAZYMUL(Y0, Y1, Y10, Y9, Y2, Y3, Y4, Y5, Y6)
	CONDSUBQ(Y6, Y0)
	VMOVDQU Y6, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, BX
	JNZ mulscalar_loop

mulscalar_done:
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// AVX-512 kernels (AVX512F + AVX512DQ). Shared register conventions:
//
//   Z31 = LO32 (0x00000000FFFFFFFF per lane)
//   Z30 = Q    (modulus broadcast)
//   Z29 = 2Q
//
// The formulas are the AVX2 kernels' eight lanes wide, with two gaps
// closed: a conditional subtraction is the unsigned VPMINUQ(x, x−k)
// (x − k wraps above x exactly when x < k), and a low 64-bit product is
// one exact VPMULLQ. Only the high word of a Shoup product is still
// built from 32-bit VPMULUDQ halves.

// MULHI512 computes OUT = hi64(X*W) per lane, given XH = X>>32 and
// WH = W>>32: with s = xl*wh + (xl*wl)>>32 (exact in 64 bits),
// hi = xh*wh + s>>32 + (xh*wl + lo32(s))>>32. Clobbers T0..T2.
#define MULHI512(X, XH, W, WH, T0, T1, T2, OUT) \
	VPMULUDQ W, X, T0    \
	VPMULUDQ WH, X, T1   \
	VPMULUDQ W, XH, T2   \
	VPMULUDQ WH, XH, OUT \
	VPSRLQ $32, T0, T0   \
	VPADDQ T0, T1, T1    \
	VPANDQ Z31, T1, T0   \
	VPSRLQ $32, T1, T1   \
	VPADDQ T0, T2, T2    \
	VPADDQ T1, OUT, OUT  \
	VPSRLQ $32, T2, T2   \
	VPADDQ T2, OUT, OUT

// LAZYMUL512 computes OUT = X*W − hi64(X*WS)*Q per lane — exactly
// MulModShoupLazy, result in [0, 2q). XH = X>>32, WSH = WS>>32.
// Clobbers T0..T3; OUT must differ from every input.
#define LAZYMUL512(X, XH, W, WS, WSH, T0, T1, T2, T3, OUT) \
	MULHI512(X, XH, WS, WSH, T0, T1, T2, T3) \
	VPMULLQ Z30, T3, T3 \
	VPMULLQ W, X, OUT   \
	VPSUBQ T3, OUT, OUT

// CONDSUB512: X -= K if X >= K (unsigned). Clobbers T.
#define CONDSUB512(X, K, T) \
	VPSUBQ K, X, T \
	VPMINUQ T, X, X

// LOADCONSTS512: broadcast Q/2Q/LO32 from the GP register holding q.
// Clobbers QR.
#define LOADCONSTS512(QR) \
	VPBROADCASTQ QR, Z30   \
	LEAQ (QR)(QR*1), QR    \
	VPBROADCASTQ QR, Z29   \
	MOVL $0xFFFFFFFF, QR   \
	VPBROADCASTQ QR, Z31

// Lane index vectors of the shuffling kernels.

// spread4: two twiddles, four lanes each (the t = 4 layers).
DATA spread4<>+0(SB)/8, $0
DATA spread4<>+8(SB)/8, $0
DATA spread4<>+16(SB)/8, $0
DATA spread4<>+24(SB)/8, $0
DATA spread4<>+32(SB)/8, $1
DATA spread4<>+40(SB)/8, $1
DATA spread4<>+48(SB)/8, $1
DATA spread4<>+56(SB)/8, $1
GLOBL spread4<>(SB), RODATA|NOPTR, $64

// spread2: four twiddles, two lanes each (the forward t = 2 layer).
DATA spread2<>+0(SB)/8, $0
DATA spread2<>+8(SB)/8, $0
DATA spread2<>+16(SB)/8, $1
DATA spread2<>+24(SB)/8, $1
DATA spread2<>+32(SB)/8, $2
DATA spread2<>+40(SB)/8, $2
DATA spread2<>+48(SB)/8, $3
DATA spread2<>+56(SB)/8, $3
GLOBL spread2<>(SB), RODATA|NOPTR, $64

// fwdTailLo/Hi interleave the [c0 c1] and [c2 c3] pairs of four blocks
// back into blocks 0-1 and 2-3.
DATA fwdTailLo<>+0(SB)/8, $0
DATA fwdTailLo<>+8(SB)/8, $1
DATA fwdTailLo<>+16(SB)/8, $8
DATA fwdTailLo<>+24(SB)/8, $9
DATA fwdTailLo<>+32(SB)/8, $2
DATA fwdTailLo<>+40(SB)/8, $3
DATA fwdTailLo<>+48(SB)/8, $10
DATA fwdTailLo<>+56(SB)/8, $11
GLOBL fwdTailLo<>(SB), RODATA|NOPTR, $64

DATA fwdTailHi<>+0(SB)/8, $4
DATA fwdTailHi<>+8(SB)/8, $5
DATA fwdTailHi<>+16(SB)/8, $12
DATA fwdTailHi<>+24(SB)/8, $13
DATA fwdTailHi<>+32(SB)/8, $6
DATA fwdTailHi<>+40(SB)/8, $7
DATA fwdTailHi<>+48(SB)/8, $14
DATA fwdTailHi<>+56(SB)/8, $15
GLOBL fwdTailHi<>(SB), RODATA|NOPTR, $64

// invHeadW: the inverse t = 1 twiddles of four blocks in the lane order
// of the even/odd unpack (blocks 0,2,0,2,1,3,1,3; pair a then b).
DATA invHeadW<>+0(SB)/8, $0
DATA invHeadW<>+8(SB)/8, $4
DATA invHeadW<>+16(SB)/8, $1
DATA invHeadW<>+24(SB)/8, $5
DATA invHeadW<>+32(SB)/8, $2
DATA invHeadW<>+40(SB)/8, $6
DATA invHeadW<>+48(SB)/8, $3
DATA invHeadW<>+56(SB)/8, $7
GLOBL invHeadW<>(SB), RODATA|NOPTR, $64

// invHeadW2: the inverse t = 2 twiddles (blocks 0,2,1,3 twice).
DATA invHeadW2<>+0(SB)/8, $0
DATA invHeadW2<>+8(SB)/8, $2
DATA invHeadW2<>+16(SB)/8, $1
DATA invHeadW2<>+24(SB)/8, $3
DATA invHeadW2<>+32(SB)/8, $0
DATA invHeadW2<>+40(SB)/8, $2
DATA invHeadW2<>+48(SB)/8, $1
DATA invHeadW2<>+56(SB)/8, $3
GLOBL invHeadW2<>(SB), RODATA|NOPTR, $64

// invHeadLo/Hi gather the sums (table 1) and differences (table 2) of
// the t = 2 layer back into blocks 0-1 and 2-3.
DATA invHeadLo<>+0(SB)/8, $0
DATA invHeadLo<>+8(SB)/8, $4
DATA invHeadLo<>+16(SB)/8, $8
DATA invHeadLo<>+24(SB)/8, $12
DATA invHeadLo<>+32(SB)/8, $2
DATA invHeadLo<>+40(SB)/8, $6
DATA invHeadLo<>+48(SB)/8, $10
DATA invHeadLo<>+56(SB)/8, $14
GLOBL invHeadLo<>(SB), RODATA|NOPTR, $64

DATA invHeadHi<>+0(SB)/8, $1
DATA invHeadHi<>+8(SB)/8, $5
DATA invHeadHi<>+16(SB)/8, $9
DATA invHeadHi<>+24(SB)/8, $13
DATA invHeadHi<>+32(SB)/8, $3
DATA invHeadHi<>+40(SB)/8, $7
DATA invHeadHi<>+48(SB)/8, $11
DATA invHeadHi<>+56(SB)/8, $15
GLOBL invHeadHi<>(SB), RODATA|NOPTR, $64

// func nttFwdHeadAVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, q uint64)
//
// Fused first double layer of the forward transform over the strided
// quarter-slices x0..x3, eight independent j per step.
TEXT ·nttFwdHeadAVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+72(FP), AX
	LOADCONSTS512(AX)
	VPBROADCASTQ w1+24(FP), Z11
	VPBROADCASTQ w1s+32(FP), Z10
	VPSRLQ $32, Z10, Z9
	VPBROADCASTQ w2+40(FP), Z16
	VPBROADCASTQ w2s+48(FP), Z17
	VPSRLQ $32, Z17, Z18
	VPBROADCASTQ w3+56(FP), Z19
	VPBROADCASTQ w3s+64(FP), Z20
	VPSRLQ $32, Z20, Z21
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

fwdhead512_loop:
	VMOVDQU64 (R8), Z0
	VMOVDQU64 (R9), Z1
	VMOVDQU64 (R10), Z2
	VMOVDQU64 (R11), Z3
	CONDSUB512(Z0, Z29, Z8)
	CONDSUB512(Z1, Z29, Z8)
	VPSRLQ $32, Z2, Z4
	LAZYMUL512(Z2, Z4, Z11, Z10, Z9, Z5, Z6, Z7, Z8, Z12)
	VPADDQ Z12, Z0, Z2
	VPSUBQ Z12, Z0, Z4
	VPADDQ Z29, Z4, Z4
	VPSRLQ $32, Z3, Z5
	LAZYMUL512(Z3, Z5, Z11, Z10, Z9, Z6, Z7, Z8, Z0, Z12)
	VPADDQ Z12, Z1, Z3
	VPSUBQ Z12, Z1, Z5
	VPADDQ Z29, Z5, Z5
	CONDSUB512(Z2, Z29, Z8)
	VPSRLQ $32, Z3, Z6
	LAZYMUL512(Z3, Z6, Z16, Z17, Z18, Z7, Z8, Z0, Z1, Z12)
	VPADDQ Z12, Z2, Z0
	VMOVDQU64 Z0, (R8)
	VPSUBQ Z12, Z2, Z0
	VPADDQ Z29, Z0, Z0
	VMOVDQU64 Z0, (R9)
	CONDSUB512(Z4, Z29, Z8)
	VPSRLQ $32, Z5, Z6
	LAZYMUL512(Z5, Z6, Z19, Z20, Z21, Z7, Z8, Z0, Z1, Z12)
	VPADDQ Z12, Z4, Z0
	VMOVDQU64 Z0, (R10)
	VPSUBQ Z12, Z4, Z0
	VPADDQ Z29, Z0, Z0
	VMOVDQU64 Z0, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, BX
	JNZ fwdhead512_loop
	VZEROUPPER
	RET

// func nttLayerFwdAVX512(a, psiRev, psiRevS []uint64, grp, t int, q uint64)
//
// One forward butterfly layer with t >= 8:
//   u = condsub2q(x[j]); v = lazymul(y[j], w); x[j] = u+v; y[j] = u-v+2q
TEXT ·nttLayerFwdAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS512(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	SHLQ $3, R10

fwdlayer512_outer:
	VPBROADCASTQ (R8), Z11
	VPBROADCASTQ (R9), Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

fwdlayer512_inner:
	VMOVDQU64 (DX), Z0
	VMOVDQU64 (DI), Z1
	CONDSUB512(Z0, Z29, Z8)
	VPSRLQ $32, Z1, Z2
	LAZYMUL512(Z1, Z2, Z11, Z10, Z9, Z3, Z4, Z5, Z6, Z7)
	VPADDQ Z7, Z0, Z8
	VMOVDQU64 Z8, (DX)
	VPSUBQ Z7, Z0, Z8
	VPADDQ Z29, Z8, Z8
	VMOVDQU64 Z8, (DI)
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ fwdlayer512_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ fwdlayer512_outer
	VZEROUPPER
	RET

// func nttLayerFwd4AVX512(a, psiRev, psiRevS []uint64, q uint64)
//
// The forward layer grp = n/8, t = 4: each step takes two groups, their
// x halves in one vector and their y halves in another, each group's
// twiddle spread over four lanes.
TEXT ·nttLayerFwd4AVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS512(AX)
	MOVQ BX, CX
	SHRQ $3, CX
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	VMOVDQU64 spread4<>(SB), Z12
	SHLQ $3, BX

fwd4_512_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VSHUFI64X2 $0x44, Z1, Z0, Z2
	VSHUFI64X2 $0xEE, Z1, Z0, Z3
	VMOVDQU (R8), X11
	VPERMQ Z11, Z12, Z11
	VMOVDQU (R9), X10
	VPERMQ Z10, Z12, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $16, R8
	ADDQ $16, R9
	CONDSUB512(Z2, Z29, Z8)
	VPSRLQ $32, Z3, Z4
	LAZYMUL512(Z3, Z4, Z11, Z10, Z9, Z5, Z6, Z7, Z8, Z0)
	VPADDQ Z0, Z2, Z1
	VPSUBQ Z0, Z2, Z3
	VPADDQ Z29, Z3, Z3
	VSHUFI64X2 $0x44, Z3, Z1, Z4
	VSHUFI64X2 $0xEE, Z3, Z1, Z5
	VMOVDQU64 Z4, (SI)
	VMOVDQU64 Z5, 64(SI)
	ADDQ $128, SI
	SUBQ $128, BX
	JNZ fwd4_512_loop
	VZEROUPPER
	RET

// func nttFwdTailAVX512(a, psiRev, psiRevS []uint64, q uint64)
//
// Fused final double layer (t=2 then t=1) of the forward transform with
// the [0, q) reduction folded in, four 4-element blocks per step:
//
//   t=2: elements 0,1 against 2,3 of each block, twiddle psiRev[quarter+i]
//   t=1: (b0,b1),(b2,b3) against psiRev[half+2i], psiRev[half+2i+1]
TEXT ·nttFwdTailAVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiRev_base+24(FP), R8
	MOVQ psiRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS512(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	VMOVDQU64 spread2<>(SB), Z12
	VMOVDQU64 fwdTailLo<>(SB), Z13
	VMOVDQU64 fwdTailHi<>(SB), Z14
	SHLQ $3, BX

fwdtail512_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VSHUFI64X2 $0x88, Z1, Z0, Z2
	VSHUFI64X2 $0xDD, Z1, Z0, Z3
	VMOVDQU (R10), Y11
	VPERMQ Z11, Z12, Z11
	VMOVDQU (R11), Y10
	VPERMQ Z10, Z12, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $32, R10
	ADDQ $32, R11
	CONDSUB512(Z2, Z29, Z8)
	VPSRLQ $32, Z3, Z4
	LAZYMUL512(Z3, Z4, Z11, Z10, Z9, Z5, Z6, Z7, Z8, Z0)
	VPADDQ Z0, Z2, Z1
	VPSUBQ Z0, Z2, Z2
	VPADDQ Z29, Z2, Z2
	VPUNPCKLQDQ Z2, Z1, Z3
	VPUNPCKHQDQ Z2, Z1, Z4
	VMOVDQU64 (R12), Z11
	VMOVDQU64 (R13), Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $64, R12
	ADDQ $64, R13
	CONDSUB512(Z3, Z29, Z8)
	VPSRLQ $32, Z4, Z5
	LAZYMUL512(Z4, Z5, Z11, Z10, Z9, Z6, Z7, Z8, Z0, Z1)
	VPADDQ Z1, Z3, Z0
	VPSUBQ Z1, Z3, Z2
	VPADDQ Z29, Z2, Z2
	CONDSUB512(Z0, Z29, Z8)
	CONDSUB512(Z2, Z29, Z8)
	CONDSUB512(Z0, Z30, Z8)
	CONDSUB512(Z2, Z30, Z8)
	VPUNPCKLQDQ Z2, Z0, Z3
	VPUNPCKHQDQ Z2, Z0, Z4
	VMOVDQA64 Z3, Z5
	VPERMT2Q Z4, Z13, Z5
	VPERMT2Q Z4, Z14, Z3
	VMOVDQU64 Z5, (SI)
	VMOVDQU64 Z3, 64(SI)
	ADDQ $128, SI
	SUBQ $128, BX
	JNZ fwdtail512_loop
	VZEROUPPER
	RET

// func inttHeadAVX512(a, psiInvRev, psiInvRevS []uint64, q uint64)
//
// Fused first double layer (t=1 then t=2) of the inverse transform,
// four 4-element blocks per step, outputs lazy in [0, 2q). The even/odd
// unpack pairs element 0 with 1 and 2 with 3 of blocks 0/2 and 1/3; the
// 128-bit shuffle then pairs the t = 2 partners.
TEXT ·inttHeadAVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS512(AX)
	MOVQ BX, CX
	SHRQ $2, CX
	LEAQ (R8)(CX*8), R10
	LEAQ (R9)(CX*8), R11
	MOVQ BX, DX
	SHRQ $1, DX
	LEAQ (R8)(DX*8), R12
	LEAQ (R9)(DX*8), R13
	VMOVDQU64 invHeadW<>(SB), Z12
	VMOVDQU64 invHeadW2<>(SB), Z13
	VMOVDQU64 invHeadLo<>(SB), Z14
	VMOVDQU64 invHeadHi<>(SB), Z15
	SHLQ $3, BX

intthead512_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VPUNPCKLQDQ Z1, Z0, Z2
	VPUNPCKHQDQ Z1, Z0, Z3
	VPADDQ Z3, Z2, Z0
	CONDSUB512(Z0, Z29, Z8)
	VPSUBQ Z3, Z2, Z1
	VPADDQ Z29, Z1, Z1
	VPERMQ (R12), Z12, Z11
	VPERMQ (R13), Z12, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $64, R12
	ADDQ $64, R13
	VPSRLQ $32, Z1, Z4
	LAZYMUL512(Z1, Z4, Z11, Z10, Z9, Z5, Z6, Z7, Z8, Z2)
	VSHUFI64X2 $0x88, Z2, Z0, Z3
	VSHUFI64X2 $0xDD, Z2, Z0, Z4
	VMOVDQU (R10), Y11
	VPERMQ Z11, Z13, Z11
	VMOVDQU (R11), Y10
	VPERMQ Z10, Z13, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $32, R10
	ADDQ $32, R11
	VPADDQ Z4, Z3, Z0
	CONDSUB512(Z0, Z29, Z8)
	VPSUBQ Z4, Z3, Z1
	VPADDQ Z29, Z1, Z1
	VPSRLQ $32, Z1, Z4
	LAZYMUL512(Z1, Z4, Z11, Z10, Z9, Z5, Z6, Z7, Z8, Z2)
	VMOVDQA64 Z0, Z3
	VPERMT2Q Z2, Z14, Z3
	VPERMT2Q Z2, Z15, Z0
	VMOVDQU64 Z3, (SI)
	VMOVDQU64 Z0, 64(SI)
	ADDQ $128, SI
	SUBQ $128, BX
	JNZ intthead512_loop
	VZEROUPPER
	RET

// func inttLayer4AVX512(a, psiInvRev, psiInvRevS []uint64, q uint64)
//
// The inverse layer grp = n/8, t = 4, two groups per step as in
// nttLayerFwd4AVX512.
TEXT ·inttLayer4AVX512(SB), NOSPLIT, $0-80
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ q+72(FP), AX
	LOADCONSTS512(AX)
	MOVQ BX, CX
	SHRQ $3, CX
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	VMOVDQU64 spread4<>(SB), Z12
	SHLQ $3, BX

inv4_512_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VSHUFI64X2 $0x44, Z1, Z0, Z2
	VSHUFI64X2 $0xEE, Z1, Z0, Z3
	VMOVDQU (R8), X11
	VPERMQ Z11, Z12, Z11
	VMOVDQU (R9), X10
	VPERMQ Z10, Z12, Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $16, R8
	ADDQ $16, R9
	VPADDQ Z3, Z2, Z0
	CONDSUB512(Z0, Z29, Z8)
	VPSUBQ Z3, Z2, Z1
	VPADDQ Z29, Z1, Z1
	VPSRLQ $32, Z1, Z4
	LAZYMUL512(Z1, Z4, Z11, Z10, Z9, Z5, Z6, Z7, Z8, Z2)
	VSHUFI64X2 $0x44, Z2, Z0, Z4
	VSHUFI64X2 $0xEE, Z2, Z0, Z5
	VMOVDQU64 Z4, (SI)
	VMOVDQU64 Z5, 64(SI)
	ADDQ $128, SI
	SUBQ $128, BX
	JNZ inv4_512_loop
	VZEROUPPER
	RET

// func inttLayerAVX512(a, psiInvRev, psiInvRevS []uint64, grp, t int, q uint64)
//
// One inverse butterfly layer with t >= 8: x[j] = condsub2q(u+v);
// y[j] = lazymul(u-v+2q, w).
TEXT ·inttLayerAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ psiInvRev_base+24(FP), R8
	MOVQ psiInvRevS_base+48(FP), R9
	MOVQ grp+72(FP), CX
	MOVQ t+80(FP), R10
	MOVQ q+88(FP), AX
	LOADCONSTS512(AX)
	LEAQ (R8)(CX*8), R8
	LEAQ (R9)(CX*8), R9
	SHLQ $3, R10

invlayer512_outer:
	VPBROADCASTQ (R8), Z11
	VPBROADCASTQ (R9), Z10
	VPSRLQ $32, Z10, Z9
	ADDQ $8, R8
	ADDQ $8, R9
	MOVQ SI, DX
	LEAQ (SI)(R10*1), DI
	MOVQ R10, BX

invlayer512_inner:
	VMOVDQU64 (DX), Z0
	VMOVDQU64 (DI), Z1
	VPADDQ Z1, Z0, Z2
	CONDSUB512(Z2, Z29, Z8)
	VMOVDQU64 Z2, (DX)
	VPSUBQ Z1, Z0, Z2
	VPADDQ Z29, Z2, Z2
	VPSRLQ $32, Z2, Z3
	LAZYMUL512(Z2, Z3, Z11, Z10, Z9, Z4, Z5, Z6, Z7, Z8)
	VMOVDQU64 Z8, (DI)
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ invlayer512_inner

	LEAQ (SI)(R10*2), SI
	DECQ CX
	JNZ invlayer512_outer
	VZEROUPPER
	RET

// func inttTailAVX512(a []uint64, w1, w1s, w2, w2s, w3, w3s, nInv, nInvS, q uint64)
//
// Fused final double layer of the inverse transform (grp=2 then grp=1)
// over the strided quarter-slices, with the 1/N scaling and [0, q)
// reduction folded in. Lane-parallel, no shuffles.
TEXT ·inttTailAVX512(SB), NOSPLIT, $0-96
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), BX
	MOVQ q+88(FP), AX
	LOADCONSTS512(AX)
	VPBROADCASTQ w1+24(FP), Z16
	VPBROADCASTQ w1s+32(FP), Z17
	VPSRLQ $32, Z17, Z18
	VPBROADCASTQ w2+40(FP), Z19
	VPBROADCASTQ w2s+48(FP), Z20
	VPSRLQ $32, Z20, Z21
	VPBROADCASTQ w3+56(FP), Z22
	VPBROADCASTQ w3s+64(FP), Z23
	VPSRLQ $32, Z23, Z24
	VPBROADCASTQ nInv+72(FP), Z25
	VPBROADCASTQ nInvS+80(FP), Z26
	VPSRLQ $32, Z26, Z27
	SHRQ $2, BX
	SHLQ $3, BX
	MOVQ SI, R8
	LEAQ (SI)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11

intttail512_loop:
	VMOVDQU64 (R8), Z0
	VMOVDQU64 (R9), Z1
	VPADDQ Z1, Z0, Z2
	CONDSUB512(Z2, Z29, Z8)
	VPSUBQ Z1, Z0, Z3
	VPADDQ Z29, Z3, Z3
	VMOVDQU64 (R10), Z0
	VMOVDQU64 (R11), Z1
	VPADDQ Z1, Z0, Z4
	CONDSUB512(Z4, Z29, Z8)
	VPSUBQ Z1, Z0, Z5
	VPADDQ Z29, Z5, Z5
	VPADDQ Z4, Z2, Z0
	CONDSUB512(Z0, Z29, Z8)
	VPSUBQ Z4, Z2, Z2
	VPADDQ Z29, Z2, Z2
	VPSRLQ $32, Z0, Z1
	LAZYMUL512(Z0, Z1, Z25, Z26, Z27, Z4, Z6, Z7, Z8, Z11)
	CONDSUB512(Z11, Z30, Z4)
	VMOVDQU64 Z11, (R8)
	VPSRLQ $32, Z2, Z1
	LAZYMUL512(Z2, Z1, Z16, Z17, Z18, Z0, Z4, Z6, Z7, Z8)
	VPSRLQ $32, Z8, Z1
	LAZYMUL512(Z8, Z1, Z25, Z26, Z27, Z0, Z2, Z4, Z6, Z7)
	CONDSUB512(Z7, Z30, Z0)
	VMOVDQU64 Z7, (R10)
	VPSRLQ $32, Z3, Z1
	LAZYMUL512(Z3, Z1, Z19, Z20, Z21, Z0, Z2, Z4, Z6, Z7)
	VPSRLQ $32, Z5, Z1
	LAZYMUL512(Z5, Z1, Z22, Z23, Z24, Z0, Z2, Z4, Z6, Z8)
	VPADDQ Z8, Z7, Z0
	CONDSUB512(Z0, Z29, Z2)
	VPSUBQ Z8, Z7, Z3
	VPADDQ Z29, Z3, Z3
	VPSRLQ $32, Z0, Z1
	LAZYMUL512(Z0, Z1, Z25, Z26, Z27, Z2, Z4, Z6, Z7, Z8)
	CONDSUB512(Z8, Z30, Z0)
	VMOVDQU64 Z8, (R9)
	VPSRLQ $32, Z3, Z1
	LAZYMUL512(Z3, Z1, Z16, Z17, Z18, Z0, Z2, Z4, Z6, Z7)
	VPSRLQ $32, Z7, Z1
	LAZYMUL512(Z7, Z1, Z25, Z26, Z27, Z0, Z2, Z4, Z6, Z8)
	CONDSUB512(Z8, Z30, Z0)
	VMOVDQU64 Z8, (R11)
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $64, BX
	JNZ intttail512_loop
	VZEROUPPER
	RET

// func addVecAVX512(q uint64, a, b, out []uint64)
TEXT ·addVecAVX512(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ addvec512_done

addvec512_loop:
	VMOVDQU64 (SI), Z0
	VPADDQ (DX), Z0, Z0
	CONDSUB512(Z0, Z30, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ addvec512_loop

addvec512_done:
	VZEROUPPER
	RET

// func subVecAVX512(q uint64, a, b, out []uint64)
TEXT ·subVecAVX512(SB), NOSPLIT, $0-80
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), DX
	MOVQ out_base+56(FP), DI
	MOVQ out_len+64(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ subvec512_done

subvec512_loop:
	VMOVDQU64 (SI), Z0
	VPSUBQ (DX), Z0, Z0
	VPADDQ Z30, Z0, Z0
	CONDSUB512(Z0, Z30, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ subvec512_loop

subvec512_done:
	VZEROUPPER
	RET

// func negVecAVX512(q uint64, a, out []uint64)
//
// out = q − a where a ≠ 0, else 0: the subtraction under the mask of the
// nonzero lanes, zeroing the others.
TEXT ·negVecAVX512(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	MOVQ a_base+8(FP), SI
	MOVQ out_base+32(FP), DI
	MOVQ out_len+40(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ negvec512_done

negvec512_loop:
	VMOVDQU64 (SI), Z0
	VPTESTMQ Z0, Z0, K1
	VPSUBQ.Z Z0, Z30, K1, Z1
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ negvec512_loop

negvec512_done:
	VZEROUPPER
	RET

// MULMOD512: canonical x*y mod q for Z0=x, Z1=y, the AVX2 MULMODCORE's
// split reduction with R32 = 2^32 mod q in Z28 (Shoup companion Z27,
// its high half Z26):
//   c = lazymul(P_hi, R32); d = c + hi32(P_lo); e = lazymul(d, R32);
//   f = e + lo32(P_lo) < 3q; two conditional subtractions by q.
// Result in Z10. Clobbers Z0..Z10. Requires 2^32 < q < 2^61.
#define MULMOD512 \
	VPSRLQ $32, Z0, Z2                                     \
	VPSRLQ $32, Z1, Z3                                     \
	MULHI512(Z0, Z2, Z1, Z3, Z4, Z5, Z6, Z7)               \
	VPMULLQ Z1, Z0, Z8                                     \
	VPSRLQ $32, Z7, Z2                                     \
	LAZYMUL512(Z7, Z2, Z28, Z27, Z26, Z3, Z4, Z5, Z6, Z9)  \
	VPSRLQ $32, Z8, Z0                                     \
	VPADDQ Z0, Z9, Z9                                      \
	VPSRLQ $32, Z9, Z2                                     \
	LAZYMUL512(Z9, Z2, Z28, Z27, Z26, Z3, Z4, Z5, Z6, Z10) \
	VPANDQ Z31, Z8, Z0                                     \
	VPADDQ Z0, Z10, Z10                                    \
	CONDSUB512(Z10, Z30, Z0)                               \
	CONDSUB512(Z10, Z30, Z0)

// func mulVecAVX512(q, r32, r32s uint64, a, b, out []uint64)
TEXT ·mulVecAVX512(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	VPBROADCASTQ r32+8(FP), Z28
	VPBROADCASTQ r32s+16(FP), Z27
	VPSRLQ $32, Z27, Z26
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulvec512_done

mulvec512_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	MULMOD512
	VMOVDQU64 Z10, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulvec512_loop

mulvec512_done:
	VZEROUPPER
	RET

// DOTTERM512 is DOTTERM eight lanes wide: the digit in Z6 (high halves
// Z7) times the key residues K into the sum (LO, MID, HI). Clobbers K and
// Z10..Z13.
#define DOTTERM512(K, LO, MID, HI) \
	VPSRLQ $32, K, Z10    \
	VPMULUDQ K, Z6, Z11   \
	VPMULUDQ Z10, Z6, Z12 \
	VPMULUDQ K, Z7, Z13   \
	VPMULUDQ Z10, Z7, Z10 \
	VPADDQ Z12, MID, MID  \
	VPADDQ Z13, MID, MID  \
	VPADDQ Z10, HI, HI    \
	VPANDQ Z31, Z11, Z12  \
	VPADDQ Z12, LO, LO    \
	VPSRLQ $32, Z11, Z11  \
	VPADDQ Z11, MID, MID

// DOTREDUCE512 is DOTREDUCE eight lanes wide: m = L·qInv is one VPMULLQ
// (qInv in Z28, q>>32 in Z27), and both corrections are VPMINUQ — the
// negative r wraps above r + q, and r ≥ q stays above r − q. Clobbers
// LO, MID, HI, Z10..Z13.
#define DOTREDUCE512(LO, MID, HI, PTR) \
	VPSRLQ $32, LO, Z10                             \
	VPADDQ Z10, MID, MID                            \
	VPANDQ Z31, LO, LO                              \
	VPSLLQ $32, MID, Z10                            \
	VPORQ Z10, LO, LO                               \
	VPSRLQ $32, MID, MID                            \
	VPADDQ MID, HI, HI                              \
	VPMULLQ Z28, LO, LO                             \
	VPSRLQ $32, LO, MID                             \
	MULHI512(LO, MID, Z30, Z27, Z10, Z11, Z12, Z13) \
	VPSUBQ Z13, HI, HI                              \
	VPADDQ Z30, HI, Z10                             \
	VPMINUQ Z10, HI, HI                             \
	VPADDQ (PTR)(BX*1), HI, HI                      \
	CONDSUB512(HI, Z30, Z10)                        \
	VMOVDQU64 HI, (PTR)(BX*1)

// func dotMontVecAVX512(q, qInv uint64, d, b, a [][]uint64, out0, out1 []uint64)
//
// dotMontVecAVX2 eight lanes wide.
TEXT ·dotMontVecAVX512(SB), NOSPLIT, $0-136
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	VPBROADCASTQ qInv+8(FP), Z28
	VPSRLQ $32, Z30, Z27
	MOVQ d_base+16(FP), SI
	MOVQ d_len+24(FP), CX
	IMULQ $24, CX
	MOVQ b_base+40(FP), DX
	MOVQ a_base+64(FP), R8
	MOVQ out0_base+88(FP), DI
	MOVQ out1_base+112(FP), R11
	MOVQ out0_len+96(FP), AX
	SHLQ $3, AX
	XORQ BX, BX
	TESTQ AX, AX
	JZ dotmont512_done
	TESTQ CX, CX
	JZ dotmont512_done

dotmont512_loop:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	XORQ R9, R9

dotmont512_digit:
	MOVQ (SI)(R9*1), R10
	VMOVDQU64 (R10)(BX*1), Z6
	VPSRLQ $32, Z6, Z7
	MOVQ (DX)(R9*1), R10
	VMOVDQU64 (R10)(BX*1), Z8
	DOTTERM512(Z8, Z0, Z1, Z2)
	MOVQ (R8)(R9*1), R10
	VMOVDQU64 (R10)(BX*1), Z8
	DOTTERM512(Z8, Z3, Z4, Z5)
	ADDQ $24, R9
	CMPQ R9, CX
	JLT dotmont512_digit
	DOTREDUCE512(Z0, Z1, Z2, DI)
	DOTREDUCE512(Z3, Z4, Z5, R11)
	ADDQ $64, BX
	CMPQ BX, AX
	JLT dotmont512_loop

dotmont512_done:
	VZEROUPPER
	RET

// func mulScalarVecAVX512(q, c, cs uint64, a, out []uint64)
TEXT ·mulScalarVecAVX512(SB), NOSPLIT, $0-72
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	VPBROADCASTQ c+8(FP), Z11
	VPBROADCASTQ cs+16(FP), Z10
	VPSRLQ $32, Z10, Z9
	MOVQ a_base+24(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ mulscalar512_done

mulscalar512_loop:
	VMOVDQU64 (SI), Z0
	VPSRLQ $32, Z0, Z1
	LAZYMUL512(Z0, Z1, Z11, Z10, Z9, Z2, Z3, Z4, Z5, Z6)
	CONDSUB512(Z6, Z30, Z0)
	VMOVDQU64 Z6, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ mulscalar512_loop

mulscalar512_done:
	VZEROUPPER
	RET

// CONVTERM512(ROW, C, CS, CSH): Z1 += lazymul(ROW[j], C) for the
// conversion kernel. Clobbers Z2..Z8.
#define CONVTERM512(ROW, C, CS, CSH) \
	VMOVDQU64 (ROW)(BX*1), Z2                          \
	VPSRLQ $32, Z2, Z3                                 \
	LAZYMUL512(Z2, Z3, C, CS, CSH, Z4, Z5, Z6, Z7, Z8) \
	VPADDQ Z8, Z1, Z1

// func convTargetAVX512(m uint64, y [][]uint64, c, cs []uint64, corr *corrTable, v, out []uint64)
//
// out[j] = reduce(Σ_k lazymul(y_k[j], c_k) + corr[v[j] mod 8]) for the
// K = len(y) ∈ [1, 5] source rows: the correction is one VPERMQ over the
// 8-entry table, and the reduction is the scalar kernel's chain of
// conditional subtractions — by 8m when K ≥ 4 (the sum is below 11m),
// then by 4m, 2m and m (below 7m).
TEXT ·convTargetAVX512(SB), NOSPLIT, $0-136
	MOVQ m+0(FP), AX
	LOADCONSTS512(AX)
	MOVQ m+0(FP), AX
	SHLQ $2, AX
	VPBROADCASTQ AX, Z28
	SHLQ $1, AX
	VPBROADCASTQ AX, Z27
	MOVQ corr+80(FP), AX
	VMOVDQU64 (AX), Z26
	MOVQ y_base+8(FP), SI
	MOVQ y_len+16(FP), CX
	MOVQ c_base+32(FP), DX
	MOVQ cs_base+56(FP), DI
	MOVQ 0(SI), R8
	VPBROADCASTQ 0(DX), Z16
	VPBROADCASTQ 0(DI), Z21
	VPSRLQ $32, Z21, Z11
	CMPQ CX, $2
	JLT convtarget512_loaded
	MOVQ 24(SI), R9
	VPBROADCASTQ 8(DX), Z17
	VPBROADCASTQ 8(DI), Z22
	VPSRLQ $32, Z22, Z12
	CMPQ CX, $3
	JLT convtarget512_loaded
	MOVQ 48(SI), R10
	VPBROADCASTQ 16(DX), Z18
	VPBROADCASTQ 16(DI), Z23
	VPSRLQ $32, Z23, Z13
	CMPQ CX, $4
	JLT convtarget512_loaded
	MOVQ 72(SI), R11
	VPBROADCASTQ 24(DX), Z19
	VPBROADCASTQ 24(DI), Z24
	VPSRLQ $32, Z24, Z14
	CMPQ CX, $5
	JLT convtarget512_loaded
	MOVQ 96(SI), R12
	VPBROADCASTQ 32(DX), Z20
	VPBROADCASTQ 32(DI), Z25
	VPSRLQ $32, Z25, Z15

convtarget512_loaded:
	MOVQ v_base+88(FP), DX
	MOVQ out_base+112(FP), DI
	MOVQ out_len+120(FP), AX
	SHLQ $3, AX
	XORQ BX, BX
	TESTQ AX, AX
	JZ convtarget512_done

convtarget512_loop:
	VMOVDQU64 (DX)(BX*1), Z0
	VPERMQ Z26, Z0, Z1
	CONVTERM512(R8, Z16, Z21, Z11)
	CMPQ CX, $1
	JEQ convtarget512_reduce
	CONVTERM512(R9, Z17, Z22, Z12)
	CMPQ CX, $2
	JEQ convtarget512_reduce
	CONVTERM512(R10, Z18, Z23, Z13)
	CMPQ CX, $3
	JEQ convtarget512_reduce
	CONVTERM512(R11, Z19, Z24, Z14)
	CMPQ CX, $4
	JEQ convtarget512_wide
	CONVTERM512(R12, Z20, Z25, Z15)

convtarget512_wide:
	CONDSUB512(Z1, Z27, Z2)

convtarget512_reduce:
	CONDSUB512(Z1, Z28, Z2)
	CONDSUB512(Z1, Z29, Z2)
	CONDSUB512(Z1, Z30, Z2)
	VMOVDQU64 Z1, (DI)(BX*1)
	ADDQ $64, BX
	CMPQ BX, AX
	JLT convtarget512_loop

convtarget512_done:
	VZEROUPPER
	RET

// func rescaleVecAVX512(q, inv, invS uint64, a, delta, out []uint64)
//
// out = MulModShoup(SubMod(a, delta), inv): a − delta + q reduced once,
// then the Shoup product reduced once.
TEXT ·rescaleVecAVX512(SB), NOSPLIT, $0-96
	MOVQ q+0(FP), AX
	LOADCONSTS512(AX)
	VPBROADCASTQ inv+8(FP), Z11
	VPBROADCASTQ invS+16(FP), Z10
	VPSRLQ $32, Z10, Z9
	MOVQ a_base+24(FP), SI
	MOVQ delta_base+48(FP), DX
	MOVQ out_base+72(FP), DI
	MOVQ out_len+80(FP), BX
	SHLQ $3, BX
	TESTQ BX, BX
	JZ rescale512_done

rescale512_loop:
	VMOVDQU64 (SI), Z0
	VPSUBQ (DX), Z0, Z0
	VPADDQ Z30, Z0, Z0
	CONDSUB512(Z0, Z30, Z1)
	VPSRLQ $32, Z0, Z1
	LAZYMUL512(Z0, Z1, Z11, Z10, Z9, Z2, Z3, Z4, Z5, Z6)
	CONDSUB512(Z6, Z30, Z0)
	VMOVDQU64 Z6, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $64, BX
	JNZ rescale512_loop

rescale512_done:
	VZEROUPPER
	RET
