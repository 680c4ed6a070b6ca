package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Poly is a polynomial in Z_Q[x]/(x^N+1) stored in RNS form: Coeffs[i][j]
// is coefficient j reduced modulo the i-th prime of the chain. A Poly
// "lives" at a level: level ℓ means primes 0..ℓ are active, so
// len(Coeffs) == ℓ+1. IsNTT records whether the coefficients are in
// evaluation (NTT) domain.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool
}

// Level returns the level of p (number of active primes minus one).
func (p *Poly) Level() int { return len(p.Coeffs) - 1 }

// N returns the ring degree.
func (p *Poly) N() int { return len(p.Coeffs[0]) }

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i := range p.Coeffs {
		out.Coeffs[i] = make([]uint64, len(p.Coeffs[i]))
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	return out
}

// DropLevel removes the top prime's residues, lowering the level by one.
// It does not rescale; callers wanting BGV modulus switching should use
// the scheme-level operation.
func (p *Poly) DropLevel() {
	p.Coeffs = p.Coeffs[:len(p.Coeffs)-1]
}

// Context bundles a ring degree, a chain of NTT-friendly primes and the
// plaintext modulus, along with the precomputation needed for CRT
// reconstruction at every level. A context built with NewContextQP also
// carries the special primes P of hybrid key switching and one QP view
// per level (basisext.go).
type Context struct {
	N      int
	LogN   int
	Moduli []*Modulus // prime chain q_0 .. q_L
	T      uint64     // plaintext modulus

	crt []*crtLevel // per-level CRT reconstruction tables

	// drops[l][k-1] rounds away the top k primes of level l
	// (basisext.go).
	drops [][]*rounder

	// Hybrid key-switching state (nil without special primes): the P
	// moduli, the per-level QP views, the digit base-extension tables and
	// the roundings that end a key switch (basisext.go).
	special   []*Modulus
	qp        []*Context
	digitConv [][]*baseConv
	pRound    *rounder   // drops P
	pqRound   []*rounder // pqRound[l] drops P·q_l
	pModQ     shoupVec   // P mod q_i

	// shared is the tuning and pooling state; the QP views of a context
	// point at their root's.
	*shared
}

// shared is the mutable state a root context and its QP views have in
// common.
type shared struct {
	rows rowPool // every polynomial's rows (pool.go)

	// galois caches the NTT-domain index permutation of each Galois
	// element (AutomorphismNTT): uint64 element -> []uint32.
	galois sync.Map

	// vecRows routes eligible pointwise rows to the vector backend
	// (vector.go); on wherever the host has one, retunable via
	// SetVectorKernels. The transform kernels carry their
	// own per-Modulus selection.
	vecRows atomic.Bool
}

// NewContext creates a ring context for degree n = 2^logN with the given
// prime chain and plaintext modulus. Every prime must be ≡ 1 mod 2n (for
// the NTT) and ≡ 1 mod t (so BGV modulus switching does not scale the
// plaintext). The context has no special primes, so it cannot key-switch.
func NewContext(logN int, primes []uint64, t uint64) (*Context, error) {
	return NewContextQP(logN, primes, nil, t)
}

// NewContextQP is NewContext plus the special primes P of hybrid key
// switching (same congruences as the chain, distinct from it). With
// special primes the context serves DecomposeHybrid, DivideByP and QP.
func NewContextQP(logN int, primes, special []uint64, t uint64) (*Context, error) {
	if logN < 4 || logN > 16 {
		return nil, fmt.Errorf("ring: logN %d out of range [4,16]", logN)
	}
	n := 1 << logN
	ctx := &Context{N: n, LogN: logN, T: t, shared: &shared{}}
	seen := make(map[uint64]bool, len(primes)+len(special))
	newModulus := func(q uint64) (*Modulus, error) {
		if q%t != 1 {
			return nil, fmt.Errorf("ring: prime %d is not congruent to 1 mod t=%d", q, t)
		}
		if seen[q] {
			return nil, fmt.Errorf("ring: prime %d appears twice", q)
		}
		seen[q] = true
		return NewModulus(q, n)
	}
	for _, q := range primes {
		m, err := newModulus(q)
		if err != nil {
			return nil, err
		}
		ctx.Moduli = append(ctx.Moduli, m)
	}
	if len(ctx.Moduli) == 0 {
		return nil, fmt.Errorf("ring: empty prime chain")
	}
	for _, q := range special {
		m, err := newModulus(q)
		if err != nil {
			return nil, err
		}
		ctx.special = append(ctx.special, m)
	}
	ctx.rows.width = len(ctx.Moduli) + len(ctx.special) + 1
	trimEachGC(ctx.shared)
	ctx.vecRows.Store(vectorAvailable())
	ctx.buildCRT()
	if err := ctx.buildRounders(); err != nil {
		return nil, err
	}
	if len(ctx.special) > 0 {
		if err := ctx.buildHybrid(); err != nil {
			return nil, err
		}
	}
	return ctx, nil
}

// SetVectorKernels selects the scalar or vector backend for this
// context's pointwise rows and for every Modulus of its chain
// (transforms). Enabling is a no-op on hosts without vector support.
// Results are bit-identical either way; the ring tests use it to pin
// the scalar reference. Safe to call concurrently with op traffic.
func (ctx *Context) SetVectorKernels(on bool) {
	on = on && vectorAvailable()
	ctx.vecRows.Store(on)
	for _, m := range ctx.Moduli {
		m.SetVectorKernels(on)
	}
	for _, m := range ctx.special {
		m.SetVectorKernels(on)
	}
}

// VectorKernels reports whether this context routes eligible rows to the
// vector backend.
func (ctx *Context) VectorKernels() bool { return ctx.vecRows.Load() }

// MaxLevel returns the highest level supported by the chain.
func (ctx *Context) MaxLevel() int { return len(ctx.Moduli) - 1 }

// NewPoly allocates a zero polynomial at the given level.
func (ctx *Context) NewPoly(level int) *Poly {
	p := &Poly{Coeffs: make([][]uint64, level+1)}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, ctx.N)
	}
	return p
}

// NTT converts p to evaluation domain in place.
func (ctx *Context) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: NTT of a poly already in NTT domain")
	}
	m := len(p.Coeffs)
	for i := 0; i < m; i++ {
		ctx.Moduli[i].NTT(p.Coeffs[i])
	}
	p.IsNTT = true
}

// INTT converts p to coefficient domain in place.
func (ctx *Context) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: INTT of a poly already in coefficient domain")
	}
	m := len(p.Coeffs)
	for i := 0; i < m; i++ {
		ctx.Moduli[i].INTT(p.Coeffs[i])
	}
	p.IsNTT = false
}

// Per-limb pointwise kernels. Free functions over plain rows keep the
// serial paths closure-free (no allocation) and give the parallel paths
// one shared body. Each has a scalar body plus a dispatcher that routes
// eligible rows (rowVecOK) to the vector backend; the two paths are
// bit-identical (vector.go).

func addRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = AddMod(a[j], b[j], q)
	}
}

func addRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		addVecAsm(q, a, b, out)
		return
	}
	addRowScalar(q, a, b, out)
}

func subRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = SubMod(a[j], b[j], q)
	}
}

func subRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		subVecAsm(q, a, b, out)
		return
	}
	subRowScalar(q, a, b, out)
}

func negRowScalar(q uint64, a, out []uint64) {
	for j := range out {
		out[j] = NegMod(a[j], q)
	}
}

func negRow(vec bool, q uint64, a, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		negVecAsm(q, a, out)
		return
	}
	negRowScalar(q, a, out)
}

func mulRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = MulMod(a[j], b[j], q)
	}
}

func mulRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulVecAsm(q, a, b, out)
		return
	}
	mulRowScalar(q, a, b, out)
}

func mulAddRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = AddMod(out[j], MulMod(a[j], b[j], q), q)
	}
}

func mulAddRow(vec bool, q uint64, a, b, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulAddVecAsm(q, a, b, out)
		return
	}
	mulAddRowScalar(q, a, b, out)
}

func mulShoupAddRowScalar(q uint64, a, b, bs, out []uint64) {
	for j := range out {
		out[j] = AddMod(out[j], MulModShoup(a[j], b[j], bs[j], q), q)
	}
}

func mulShoupAddRow(vec bool, q uint64, a, b, bs, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulShoupAddVecAsm(q, a, b, bs, out)
		return
	}
	mulShoupAddRowScalar(q, a, b, bs, out)
}

func mulScalarRowScalar(q, c, cs uint64, a, out []uint64) {
	for j := range out {
		out[j] = MulModShoup(a[j], c, cs, q)
	}
}

func mulScalarRow(vec bool, q, c, cs uint64, a, out []uint64) {
	if rowVecOK(vec, q, len(out)) {
		mulScalarVecAsm(q, c, cs, a, out)
		return
	}
	mulScalarRowScalar(q, c, cs, a, out)
}

// Add sets out = a + b. All three must share a level and domain.
func (ctx *Context) Add(a, b, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		addRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b.
func (ctx *Context) Sub(a, b, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		subRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a.
func (ctx *Context) Neg(a, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		negRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}

// MulCoeffs sets out = a ⊙ b (pointwise). Both inputs must be in NTT
// domain, where the pointwise product realizes negacyclic convolution.
func (ctx *Context) MulCoeffs(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffs requires NTT-domain operands")
	}
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		mulRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = true
}

// MulCoeffsAdd sets out += a ⊙ b (pointwise, NTT domain).
func (ctx *Context) MulCoeffsAdd(a, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffsAdd requires NTT-domain operands")
	}
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		mulAddRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = true
}

// PolyShoup is the per-coefficient Shoup companion table of a fixed
// NTT-domain polynomial, enabling division-free pointwise products
// against it. Key-switching keys are the intended use: they are
// multiplied against every digit of every key switch, so the one-time
// precomputation pays for itself immediately.
type PolyShoup struct {
	S [][]uint64
}

// ShoupPoly precomputes the companion table of p (which must be fully
// reduced; NTT domain in practice).
func (ctx *Context) ShoupPoly(p *Poly) *PolyShoup {
	s := make([][]uint64, len(p.Coeffs))
	for i := range p.Coeffs {
		q := ctx.Moduli[i].Q
		row := make([]uint64, len(p.Coeffs[i]))
		for j, w := range p.Coeffs[i] {
			row[j] = ShoupPrecomp(w, q)
		}
		s[i] = row
	}
	return &PolyShoup{S: s}
}

// MulCoeffsShoupAdd sets out += a ⊙ b (pointwise, NTT domain), where bs
// is b's Shoup companion table. b may live at a higher level than out;
// only out's active primes are touched. This is the key-switch inner
// product, the hottest pointwise loop of the evaluator.
func (ctx *Context) MulCoeffsShoupAdd(a, b *Poly, bs *PolyShoup, out *Poly) {
	if !a.IsNTT || !b.IsNTT {
		panic("ring: MulCoeffsShoupAdd requires NTT-domain operands")
	}
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		mulShoupAddRow(vec, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], bs.S[i], out.Coeffs[i])
	}
	out.IsNTT = true
}

// MulScalar sets out = a * c for a word-sized scalar c.
func (ctx *Context) MulScalar(a *Poly, c uint64, out *Poly) {
	m := len(out.Coeffs)
	vec := ctx.vecRows.Load()
	for i := 0; i < m; i++ {
		q := ctx.Moduli[i].Q
		cq := c % q
		mulScalarRow(vec, q, cq, ShoupPrecomp(cq, q), a.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}

// Automorphism applies the Galois map x -> x^g (g odd) to a
// coefficient-domain polynomial: out_k = ±a_j where j*g ≡ k (mod 2N) and
// the sign accounts for x^N = -1.
func (ctx *Context) Automorphism(a *Poly, g uint64, out *Poly) {
	if a.IsNTT {
		panic("ring: Automorphism requires coefficient-domain input")
	}
	if a == out {
		panic("ring: Automorphism cannot run in place")
	}
	n := uint64(ctx.N)
	mask := 2*n - 1
	for i := range out.Coeffs {
		q := ctx.Moduli[i].Q
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := uint64(0); j < n; j++ {
			k := (j * g) & mask
			if k < n {
				oi[k] = ai[j]
			} else {
				oi[k-n] = NegMod(ai[j], q)
			}
		}
	}
	out.IsNTT = false
}

// CopyInto copies src into dst, which must share src's level.
func (ctx *Context) CopyInto(src, dst *Poly) {
	for i := range src.Coeffs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.IsNTT = src.IsNTT
}

// CopyPooled returns a copy of p with rows from the pool.
func (ctx *Context) CopyPooled(p *Poly) *Poly {
	out := ctx.GetPoly(p.Level())
	ctx.CopyInto(p, out)
	return out
}

// SetLift fills p (coefficient domain) with the given small signed
// coefficients, reducing each into every active prime (a division only
// for a magnitude of q or more).
func (ctx *Context) SetLift(coeffs []int64, p *Poly) {
	for i := range p.Coeffs {
		q := ctx.Moduli[i].Q
		pi := p.Coeffs[i]
		for j, c := range coeffs {
			v := uint64(c)
			if c < 0 {
				v = -v
			}
			if v >= q {
				v %= q
			}
			if c < 0 && v != 0 {
				v = q - v
			}
			pi[j] = v
		}
	}
	p.IsNTT = false
}
