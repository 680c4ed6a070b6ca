package ring

import "fmt"

// Hybrid (GHS/HElib-style) RNS key switching, ring half. The chain
// primes are grouped into digits of DigitPrimes consecutive primes; a
// key switch at level ℓ takes the ⌈(ℓ+1)/α⌉ digits d_j = [d]_{D_j} of its
// input (D_j the product of the group's primes active at ℓ — the top
// group may be cut short by the level), base-extends each to the rest
// of Q_ℓ and to the special primes P, multiplies them against keys over
// Q_ℓ·P, and divides the sum by P. Everything stays in RNS: there is no
// big-integer reconstruction on this path.
//
// Why a fast base extension is enough for a gadget digit: the keys
// encrypt P·g_j·s' with g_j ≡ 1 mod D_j and ≡ 0 modulo every other
// chain prime, so Σ_j d̃_j·g_j ≡ d (mod Q_ℓ) for ANY lift d̃_j ≡ d_j
// (mod D_j) — on its own primes the digit is exact by construction, and
// on every other prime g_j kills it. The lift's choice only sets the
// digit's magnitude, hence the key-switch noise; the conversion below
// returns the centered representative (|d̃_j| ≤ D_j/2), so that term is
// as small as it can be.

// DigitPrimes is α: the number of consecutive chain primes in one
// key-switch digit, and the number of special primes bgv generates for
// P, so that P ≈ D_j and the digit·key-error term divides down to the
// size of the key error itself.
const DigitPrimes = 3

// maxConvPrimes is the most source primes one base conversion takes: a
// key-switch digit has DigitPrimes, the fused key-switch tail drops P and
// one chain prime (DigitPrimes+1), and a level drop rounds away up to
// maxConvPrimes chain primes at once.
const maxConvPrimes = 5

// maxHybridModulus bounds every prime of a context: the conversion
// kernel sums up to maxConvPrimes lazy Shoup products (each < 2m) and a
// correction (< m) before reducing, so the sum stays below 11m, which
// must not wrap a uint64: 11·2^60 < 2^64.
const maxHybridModulus = 1 << 60

// baseConv converts residues over a small source basis S = Π s_k to a
// set of target primes, returning the centered representative exactly:
// with y_k = [x·pre_k]_{s_k}, x̃ = Σ_k y_k·(S/s_k) − v·S where
// v = round(Σ_k y_k/s_k) is computed in floating point (Halevi, Polyakov
// and Shoup 2018). A float mis-rounding needs x/S within 2^-47 of ±1/2,
// where both neighbours are equally centered, so |x̃| ≤ S/2·(1+2^-47)
// always; from a single prime v is the exact integer comparison. Per-source
// and per-target scale factors fold the t^{-1} and t of the BGV rounding
// into the tables.
type baseConv struct {
	src  []*Modulus
	pre  shoupVec  // srcScale·(S/s_k)^{-1} mod s_k
	rcp  []float64 // 1/s_k
	dst  []*Modulus
	mat  []shoupVec  // mat[r].v[k] = dstScale·(S/s_k) mod dst[r]
	corr []corrTable // corr[r][u] = −u·dstScale·S mod dst[r], u = 0..len(src)
}

// corrTable is indexed by the overflow count, at most maxConvPrimes; the
// fixed power-of-two size lets the kernels index it without a bounds
// check.
type corrTable [8]uint64

// newBaseConv builds the tables from src to every non-nil entry of dst.
func newBaseConv(src, dst []*Modulus, srcScale, dstScale func(q uint64) uint64) *baseConv {
	bc := &baseConv{
		src:  src,
		rcp:  make([]float64, len(src)),
		dst:  dst,
		mat:  make([]shoupVec, len(dst)),
		corr: make([]corrTable, len(dst)),
	}
	// hat(k, m) = S/s_k mod m.
	hat := func(k int, m uint64) uint64 {
		h := uint64(1)
		for k2, s := range src {
			if k2 != k {
				h = MulMod(h, s.Q%m, m)
			}
		}
		return h
	}
	bc.pre = shoupVec{v: make([]uint64, len(src)), s: make([]uint64, len(src))}
	for k, s := range src {
		bc.rcp[k] = 1 / float64(s.Q)
		bc.pre.v[k] = MulMod(srcScale(s.Q), InvMod(hat(k, s.Q), s.Q), s.Q)
		bc.pre.s[k] = ShoupPrecomp(bc.pre.v[k], s.Q)
	}
	for r, d := range dst {
		if d == nil {
			continue
		}
		m, scale := d.Q, dstScale(d.Q)
		bc.mat[r] = shoupVec{v: make([]uint64, len(src)), s: make([]uint64, len(src))}
		for k := range src {
			bc.mat[r].v[k] = MulMod(scale, hat(k, m), m)
			bc.mat[r].s[k] = ShoupPrecomp(bc.mat[r].v[k], m)
		}
		sm := MulMod(scale, MulMod(hat(0, m), src[0].Q%m, m), m) // dstScale·S mod m
		for u := 1; u <= len(src); u++ {
			bc.corr[r][u] = SubMod(bc.corr[r][u-1], sm, m)
		}
	}
	return bc
}

// prepare replaces each source row x_k (coefficient domain) by y_k in
// place and writes the overflow count v.
func (bc *baseConv) prepare(x [][]uint64, v []uint64) {
	for k, row := range x {
		s, c, cs := bc.src[k].Q, bc.pre.v[k], bc.pre.s[k]
		row = row[:len(v)]
		for j := range row {
			row[j] = MulModShoup(row[j], c, cs, s)
		}
	}
	switch len(x) {
	case 1:
		// v = [y > s/2], exactly: a one-prime drop is bit-reproducible.
		half, y0 := bc.src[0].Q>>1, x[0][:len(v)]
		for j := range v {
			v[j] = (half - y0[j]) >> 63
		}
	case 2:
		r0, r1 := bc.rcp[0], bc.rcp[1]
		y0, y1 := x[0][:len(v)], x[1][:len(v)]
		for j := range v {
			v[j] = uint64(float64(y0[j])*r0 + float64(y1[j])*r1 + 0.5)
		}
	case 3:
		r0, r1, r2 := bc.rcp[0], bc.rcp[1], bc.rcp[2]
		y0, y1, y2 := x[0][:len(v)], x[1][:len(v)], x[2][:len(v)]
		for j := range v {
			v[j] = uint64(float64(y0[j])*r0 + float64(y1[j])*r1 + float64(y2[j])*r2 + 0.5)
		}
	case 4:
		r0, r1, r2, r3 := bc.rcp[0], bc.rcp[1], bc.rcp[2], bc.rcp[3]
		y0, y1, y2, y3 := x[0][:len(v)], x[1][:len(v)], x[2][:len(v)], x[3][:len(v)]
		for j := range v {
			v[j] = uint64(float64(y0[j])*r0 + float64(y1[j])*r1 + float64(y2[j])*r2 + float64(y3[j])*r3 + 0.5)
		}
	case 5:
		r0, r1, r2, r3, r4 := bc.rcp[0], bc.rcp[1], bc.rcp[2], bc.rcp[3], bc.rcp[4]
		y0, y1, y2, y3, y4 := x[0][:len(v)], x[1][:len(v)], x[2][:len(v)], x[3][:len(v)], x[4][:len(v)]
		for j := range v {
			v[j] = uint64(float64(y0[j])*r0 + float64(y1[j])*r1 + float64(y2[j])*r2 + float64(y3[j])*r3 + float64(y4[j])*r4 + 0.5)
		}
	default:
		panic("ring: base conversion from more than maxConvPrimes primes")
	}
}

// target writes x̃ mod dst[r] into out from the prepared rows.
func (bc *baseConv) target(r int, y [][]uint64, v, out []uint64) {
	m := bc.dst[r].Q
	mat, corr := bc.mat[r], &bc.corr[r]
	v = v[:len(out)]
	reduce := func(a uint64) uint64 { // [0, 7m) -> [0, m)
		if a >= 4*m {
			a -= 4 * m
		}
		if a >= 2*m {
			a -= 2 * m
		}
		if a >= m {
			a -= m
		}
		return a
	}
	reduceWide := func(a uint64) uint64 { // [0, 11m) -> [0, m)
		if a >= 8*m {
			a -= 8 * m
		}
		return reduce(a)
	}
	switch len(y) {
	case 1:
		c0, s0, y0 := mat.v[0], mat.s[0], y[0][:len(out)]
		for j := range out {
			out[j] = reduce(MulModShoupLazy(y0[j], c0, s0, m) + corr[v[j]%uint64(len(corr))])
		}
	case 2:
		c0, s0, y0 := mat.v[0], mat.s[0], y[0][:len(out)]
		c1, s1, y1 := mat.v[1], mat.s[1], y[1][:len(out)]
		for j := range out {
			out[j] = reduce(MulModShoupLazy(y0[j], c0, s0, m) + MulModShoupLazy(y1[j], c1, s1, m) + corr[v[j]%uint64(len(corr))])
		}
	case 3:
		c0, s0, y0 := mat.v[0], mat.s[0], y[0][:len(out)]
		c1, s1, y1 := mat.v[1], mat.s[1], y[1][:len(out)]
		c2, s2, y2 := mat.v[2], mat.s[2], y[2][:len(out)]
		for j := range out {
			out[j] = reduce(MulModShoupLazy(y0[j], c0, s0, m) + MulModShoupLazy(y1[j], c1, s1, m) +
				MulModShoupLazy(y2[j], c2, s2, m) + corr[v[j]%uint64(len(corr))])
		}
	case 4:
		c0, s0, y0 := mat.v[0], mat.s[0], y[0][:len(out)]
		c1, s1, y1 := mat.v[1], mat.s[1], y[1][:len(out)]
		c2, s2, y2 := mat.v[2], mat.s[2], y[2][:len(out)]
		c3, s3, y3 := mat.v[3], mat.s[3], y[3][:len(out)]
		for j := range out {
			out[j] = reduceWide(MulModShoupLazy(y0[j], c0, s0, m) + MulModShoupLazy(y1[j], c1, s1, m) +
				MulModShoupLazy(y2[j], c2, s2, m) + MulModShoupLazy(y3[j], c3, s3, m) + corr[v[j]%uint64(len(corr))])
		}
	case 5:
		c0, s0, y0 := mat.v[0], mat.s[0], y[0][:len(out)]
		c1, s1, y1 := mat.v[1], mat.s[1], y[1][:len(out)]
		c2, s2, y2 := mat.v[2], mat.s[2], y[2][:len(out)]
		c3, s3, y3 := mat.v[3], mat.s[3], y[3][:len(out)]
		c4, s4, y4 := mat.v[4], mat.s[4], y[4][:len(out)]
		for j := range out {
			out[j] = reduceWide(MulModShoupLazy(y0[j], c0, s0, m) + MulModShoupLazy(y1[j], c1, s1, m) + MulModShoupLazy(y2[j], c2, s2, m) +
				MulModShoupLazy(y3[j], c3, s3, m) + MulModShoupLazy(y4[j], c4, s4, m) + corr[v[j]%uint64(len(corr))])
		}
	default:
		panic("ring: base conversion from more than maxConvPrimes primes")
	}
}

// buildHybrid derives the key-switching state from the chain and the
// special primes: the QP views, one digit-extension table per (group,
// active prime count), and the divide-by-P tables.
func (ctx *Context) buildHybrid() error {
	if len(ctx.special) > DigitPrimes {
		return fmt.Errorf("ring: %d special primes, at most %d supported", len(ctx.special), DigitPrimes)
	}
	chain := ctx.Moduli
	all := append(append([]*Modulus{}, chain...), ctx.special...)
	ctx.qp = make([]*Context, len(chain))
	for l := range chain {
		ctx.qp[l] = &Context{
			N: ctx.N, LogN: ctx.LogN, T: ctx.T,
			Moduli: append(append([]*Modulus{}, chain[:l+1]...), ctx.special...),
			shared: ctx.shared,
		}
	}
	one := func(uint64) uint64 { return 1 }
	for lo := 0; lo < len(chain); lo += DigitPrimes {
		var bySize []*baseConv
		for hi := lo + 1; hi <= min(lo+DigitPrimes, len(chain)); hi++ {
			dst := append([]*Modulus{}, all...)
			for i := lo; i < hi; i++ {
				dst[i] = nil
			}
			bySize = append(bySize, newBaseConv(chain[lo:hi], dst, one, one))
		}
		ctx.digitConv = append(ctx.digitConv, bySize)
	}
	pMod := func(q uint64) uint64 {
		p := uint64(1)
		for _, sp := range ctx.special {
			p = MulMod(p, sp.Q%q, q)
		}
		return p
	}
	ctx.pModQ = newShoupVec(chain, pMod)
	// Dividing by P alone ends a rotation's key switch; dividing by P·q_l
	// ends a relinearization at level l, which always drops a level.
	ctx.pRound = newRounder(ctx.special, chain, ctx.T)
	ctx.pqRound = make([]*rounder, len(chain))
	for l := 1; l < len(chain); l++ {
		ctx.pqRound[l] = newRounder(append([]*Modulus{chain[l]}, ctx.special...), chain[:l], ctx.T)
	}
	return nil
}

// QP returns the view of the context over Q_level·P: its Moduli are
// q_0..q_level followed by the special primes, and it shares the root's
// tuning and its row pool, so every row-wise method
// (NTT, MulCoeffsShoupAdd, samplers, GetPoly by row count…) works on
// key-switching polynomials unchanged. A view has no CRT or switching
// tables: reconstruction and ModSwitchDown belong to the root.
func (ctx *Context) QP(level int) *Context { return ctx.qp[level] }

// PModQ returns P mod q_i, the factor a switching key scales its target
// by on chain prime i.
func (ctx *Context) PModQ(i int) uint64 { return ctx.pModQ.v[i] }

// HybridDigits returns the number of key-switch digits at a level,
// ⌈(level+1)/DigitPrimes⌉.
func HybridDigits(level int) int { return (level + DigitPrimes) / DigitPrimes }

// digitSpan returns the chain primes [lo, hi) of digit j at a level.
func digitSpan(j, level int) (lo, hi int) {
	lo = j * DigitPrimes
	return lo, min(lo+DigitPrimes, level+1)
}

// DecomposeHybrid splits p (NTT domain, level ℓ) into its key-switch
// digits, each base-extended to Q_ℓ·P and returned in NTT domain as a QP
// polynomial (ℓ+1 chain rows, then the special rows) from the pool. The
// digits depend on p alone, so one decomposition serves every rotation
// of a hoisted batch.
func (ctx *Context) DecomposeHybrid(p *Poly) []*Poly {
	if !p.IsNTT {
		panic("ring: DecomposeHybrid requires NTT-domain input")
	}
	level := p.Level()
	qp := ctx.qp[level]
	rows := len(qp.Moduli)

	pc := ctx.GetPoly(level)
	ctx.CopyInto(p, pc)
	ctx.INTT(pc)

	digits := make([]*Poly, HybridDigits(level))
	convs := make([]*baseConv, len(digits))
	vs := make([][]uint64, len(digits))
	for j := range digits {
		lo, hi := digitSpan(j, level)
		convs[j] = ctx.digitConv[j][hi-lo-1]
		vs[j] = ctx.getRow()
		convs[j].prepare(pc.Coeffs[lo:hi], vs[j][:ctx.N])
		digits[j] = qp.GetPoly(rows - 1)
		digits[j].IsNTT = true
	}

	// One task per (digit, row): the digit's own rows are p's NTT rows
	// as they stand, every other row is converted and transformed.
	task := func(tk int) {
		j, r := tk/rows, tk%rows
		lo, hi := digitSpan(j, level)
		out := digits[j].Coeffs[r][:ctx.N]
		if r >= lo && r < hi {
			copy(out, p.Coeffs[r])
			return
		}
		slot := r
		if r > level {
			slot = r - level - 1 + len(ctx.Moduli)
		}
		convs[j].target(slot, pc.Coeffs[lo:hi], vs[j], out)
		qp.Moduli[r].NTT(out)
	}
	total := len(digits) * rows
	for tk := 0; tk < total; tk++ {
		task(tk)
	}
	for _, v := range vs {
		ctx.putRow(v)
	}
	ctx.PutPoly(pc)
	return digits
}

// shoupVec is one constant per prime with its Shoup companion.
type shoupVec struct{ v, s []uint64 }

// newShoupVec evaluates f(q_i) for every modulus and precomputes the
// companions.
func newShoupVec(moduli []*Modulus, f func(q uint64) uint64) shoupVec {
	sv := shoupVec{v: make([]uint64, len(moduli)), s: make([]uint64, len(moduli))}
	for i, m := range moduli {
		sv.v[i] = f(m.Q)
		sv.s[i] = ShoupPrecomp(sv.v[i], m.Q)
	}
	return sv
}

// rounder holds the constants of one scale-free BGV rounding: dropping
// the primes src, of product D, from a polynomial c over src ∪ dst
// replaces it by (c − δ)/D over dst, where δ ≡ c (mod D), δ ≡ 0 (mod t)
// and δ is centered, |δ| ≤ t·D/2, so the added noise is minimal. Because
// every prime is ≡ 1 mod t the plaintext is preserved without scaling.
// δ = t·centered([c·t^{-1}]_D) is one base conversion from src to dst
// with t^{-1} folded into its source scale and t into its target scale.
// Every level move is this one step, whatever it drops: one chain prime
// (ModSwitchDown), several (ModSwitchDownTo), the special modulus
// (DivideByP), or the special modulus and a chain prime (DivideByPQ).
type rounder struct {
	conv *baseConv
	dInv shoupVec // D^{-1} mod dst[i]
}

func newRounder(src, dst []*Modulus, t uint64) *rounder {
	return &rounder{
		conv: newBaseConv(src, dst,
			func(s uint64) uint64 { return InvMod(t%s, s) },
			func(q uint64) uint64 { return t % q }),
		dInv: newShoupVec(dst, func(q uint64) uint64 {
			d := uint64(1)
			for _, s := range src {
				d = MulMod(d, s.Q%q, q)
			}
			return InvMod(d, q)
		}),
	}
}

// buildRounders builds the level-drop tables: drops[l][k-1] rounds away
// the top k primes of level l, for every k up to maxConvPrimes.
func (ctx *Context) buildRounders() error {
	chain := ctx.Moduli
	for _, m := range append(append([]*Modulus{}, chain...), ctx.special...) {
		if m.Q >= maxHybridModulus {
			return fmt.Errorf("ring: prime %d exceeds 60 bits (base-conversion bound)", m.Q)
		}
	}
	ctx.drops = make([][]*rounder, len(chain))
	for l := 1; l < len(chain); l++ {
		for k := 1; k <= min(l, maxConvPrimes); k++ {
			ctx.drops[l] = append(ctx.drops[l], newRounder(chain[l-k+1:l+1], chain[:l-k+1], ctx.T))
		}
	}
	return nil
}

// round is the rounding kernel. src holds the dropped primes' rows (NTT
// domain; clobbered), in the kept primes' rows, and out receives
// (in − δ)/D on its len(out) primes; out may alias in. It costs one INTT
// per dropped prime and one NTT per kept prime, however many are dropped.
func (ctx *Context) round(r *rounder, src, in, out [][]uint64) {
	for k, m := range r.conv.src {
		m.INTT(src[k])
	}
	v := ctx.getRow()
	defer ctx.putRow(v)
	r.conv.prepare(src, v[:ctx.N])

	delta := ctx.getRow()
	defer ctx.putRow(delta)
	for i := range out {
		m := r.conv.dst[i]
		r.conv.target(i, src, v, delta[:ctx.N])
		m.NTT(delta)
		rescaleRow(m.Q, r.dInv.v[i], r.dInv.s[i], in[i], delta, out[i])
	}
}

// rescaleRow sets out = (a − delta)·inv mod q: the exact division by the
// dropped modulus D once delta ≡ a (mod D), with inv = D^{-1} mod q.
func rescaleRow(q, inv, invS uint64, a, delta, out []uint64) {
	a, delta = a[:len(out)], delta[:len(out)]
	for j := range out {
		out[j] = MulModShoup(SubMod(a[j], delta[j], q), inv, invS, q)
	}
}

// ModSwitchDown drops the top prime of p (NTT domain, level ≥ 1) in
// place.
func (ctx *Context) ModSwitchDown(p *Poly) {
	if !p.IsNTT {
		panic("ring: ModSwitchDown requires NTT-domain input")
	}
	l := p.Level()
	if l < 1 {
		panic("ring: ModSwitchDown at level 0")
	}
	// The top row is discarded, so it serves as its own scratch.
	ctx.round(ctx.drops[l][0], p.Coeffs[l:], p.Coeffs[:l], p.Coeffs[:l])
	p.Coeffs = p.Coeffs[:l]
}

// ModSwitchDownTo writes p (NTT domain) switched down to out's level
// into out, leaving p untouched: every prime in between goes in one
// rounding (more than maxConvPrimes in steps of that many), so only the
// surviving rows are ever written.
func (ctx *Context) ModSwitchDownTo(p, out *Poly) {
	l, k := p.Level(), p.Level()-out.Level()
	if !p.IsNTT || k < 1 {
		panic("ring: ModSwitchDownTo requires NTT-domain input above the output's level")
	}
	if k > maxConvPrimes {
		mid := ctx.GetPoly(l - maxConvPrimes)
		defer ctx.PutPoly(mid)
		ctx.ModSwitchDownTo(p, mid)
		ctx.ModSwitchDownTo(mid, out)
		return
	}
	var rows [maxConvPrimes][]uint64
	src := rows[:k]
	for i := range src {
		src[i] = ctx.getRow()
		copy(src[i], p.Coeffs[l-k+1+i])
	}
	ctx.round(ctx.drops[l][k-1], src, p.Coeffs, out.Coeffs)
	for _, row := range src {
		ctx.putRow(row)
	}
	out.IsNTT = true
}

// MulByP sets the QP polynomial acc to P·a (a in NTT domain, acc at a's
// level): a's rows scaled by P mod q_i, and zero on the special primes.
// A key switch that starts its accumulator here instead of at zero has
// added a to its result by the time it divides P back out.
func (ctx *Context) MulByP(a, acc *Poly) {
	chain := len(a.Coeffs)
	if !a.IsNTT || len(acc.Coeffs) != chain+len(ctx.special) {
		panic("ring: MulByP requires NTT-domain input and a QP polynomial at its level")
	}
	vec := ctx.vecRows.Load()
	for i, row := range a.Coeffs {
		mulScalarRow(vec, ctx.Moduli[i].Q, ctx.pModQ.v[i], ctx.pModQ.s[i], row, acc.Coeffs[i])
	}
	for _, row := range acc.Coeffs[chain:] {
		clear(row)
	}
	acc.IsNTT = true
}

// DivideByP finishes a key switch: acc is a QP polynomial (NTT domain)
// at out's level, and out receives acc rounded down by the whole special
// modulus. acc's special rows are clobbered.
func (ctx *Context) DivideByP(acc, out *Poly) {
	level := out.Level()
	if !acc.IsNTT || len(acc.Coeffs) != level+1+len(ctx.special) {
		panic("ring: DivideByP requires an NTT-domain QP polynomial at the output's level")
	}
	ctx.round(ctx.pRound, acc.Coeffs[level+1:], acc.Coeffs, out.Coeffs)
	out.IsNTT = true
}

// DivideByPQ is DivideByP fused with the modulus switch that follows a
// relinearization: acc is a QP polynomial one level above out, and out
// receives acc rounded down by P·q_l in one step instead of by P and
// then by q_l. acc's rows from q_l up are clobbered.
func (ctx *Context) DivideByPQ(acc, out *Poly) {
	l := out.Level() + 1
	if !acc.IsNTT || len(acc.Coeffs) != l+1+len(ctx.special) {
		panic("ring: DivideByPQ requires an NTT-domain QP polynomial one level above the output")
	}
	ctx.round(ctx.pqRound[l], acc.Coeffs[l:], acc.Coeffs, out.Coeffs)
	out.IsNTT = true
}

// AutomorphismNTT applies the Galois map x -> x^g (g odd) to an
// NTT-domain polynomial. The transform stores a(ψ^{2·brv(i)+1}) at index
// i, and σ_g(a)(ψ^e) = a(ψ^{g·e}), so the map is a pure index
// permutation — no sign flips, no modulus — computed once per element.
func (ctx *Context) AutomorphismNTT(a *Poly, g uint64, out *Poly) {
	if !a.IsNTT {
		panic("ring: AutomorphismNTT requires NTT-domain input")
	}
	if a == out {
		panic("ring: AutomorphismNTT cannot run in place")
	}
	perm := ctx.galoisPerm(g)
	for i := range out.Coeffs {
		ai, oi := a.Coeffs[i], out.Coeffs[i][:len(perm)]
		for j, src := range perm {
			oi[j] = ai[src]
		}
	}
	out.IsNTT = true
}

// galoisPerm returns the cached NTT-domain permutation of element g:
// out[i] = in[perm[i]].
func (ctx *Context) galoisPerm(g uint64) []uint32 {
	if p, ok := ctx.galois.Load(g); ok {
		return p.([]uint32)
	}
	n := uint64(ctx.N)
	mask := 2*n - 1
	perm := make([]uint32, n)
	for i := uint64(0); i < n; i++ {
		e := (g * (2*bitrev(i, ctx.LogN) + 1)) & mask
		perm[i] = uint32(bitrev((e-1)>>1, ctx.LogN))
	}
	p, _ := ctx.galois.LoadOrStore(g, perm)
	return p.([]uint32)
}
