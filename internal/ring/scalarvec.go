package ring

// MulScalarVec sets out = a * c where c gives one scalar per active prime
// (already reduced modulo that prime). It is used for gadget factors
// 2^{kw} mod q_i that exceed 64 bits as integers.
func (ctx *Context) MulScalarVec(a *Poly, c []uint64, out *Poly) {
	m := len(out.Coeffs)
	tier := ctx.rowKernels()
	for i := 0; i < m; i++ {
		q := ctx.Moduli[i].Q
		mulScalarRow(tier, q, c[i], ShoupPrecomp(c[i], q), a.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}
