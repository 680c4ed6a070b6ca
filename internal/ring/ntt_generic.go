//go:build !amd64 || purego

package ring

// Portable fallback: no vector backend. The scalar fused kernels in
// ntt.go, the scalar rows in poly.go and the scalar conversions in
// basisext.go are the implementation. The stubs below are never reached
// (hostTier is scalar, so no Modulus or row dispatch ever selects them);
// they exist to keep the call sites build-tag-free.

const hostTier = tierScalar

func (m *Modulus) nttVec(_ kernelTier, a []uint64)  { m.nttScalar(a) }
func (m *Modulus) inttVec(_ kernelTier, a []uint64) { m.inttScalar(a) }

func addVecAsm(_ kernelTier, q uint64, a, b, out []uint64) { addRowScalar(q, a, b, out) }
func subVecAsm(_ kernelTier, q uint64, a, b, out []uint64) { subRowScalar(q, a, b, out) }
func negVecAsm(_ kernelTier, q uint64, a, out []uint64)    { negRowScalar(q, a, out) }
func mulVecAsm(_ kernelTier, q uint64, a, b, out []uint64) { mulRowScalar(q, a, b, out) }
func mulScalarVecAsm(_ kernelTier, q, c, cs uint64, a, out []uint64) {
	mulScalarRowScalar(q, c, cs, a, out)
}

func dotMontVecAsm(kernelTier, uint64, uint64, [][]uint64, [][]uint64, [][]uint64, []uint64, []uint64) {
	panic("ring: no vector backend in this build")
}

func targetVecAsm(uint64, [][]uint64, []uint64, []uint64, *corrTable, []uint64, []uint64) {
	panic("ring: no vector backend in this build")
}

func rescaleVecAsm(q, inv, invS uint64, a, delta, out []uint64) {
	panic("ring: no vector backend in this build")
}
