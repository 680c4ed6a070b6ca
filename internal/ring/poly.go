package ring

import (
	"fmt"
	"math/bits"
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

// Copy returns a deep copy of p.
func (p *Poly) Copy() *Poly {
	out := &Poly{Coeffs: make([][]uint64, len(p.Coeffs)), IsNTT: p.IsNTT}
	for i := range p.Coeffs {
		out.Coeffs[i] = make([]uint64, len(p.Coeffs[i]))
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	return out
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

	// rowTier is the kernelTier of the pointwise rows, the base
	// conversions and the rescales (vector.go): the host's, retunable
	// via SetVectorKernels. The transform kernels carry their own
	// per-Modulus selection.
	rowTier atomic.Uint32
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
	ctx.rowTier.Store(uint32(hostTier))
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
func (ctx *Context) SetVectorKernels(on bool) { ctx.pinTier(vectorTier(on)) }

// pinTier selects tier t (capped at the host's) for the context's rows
// and for every Modulus of its chain. The tests pin each tier through it.
func (ctx *Context) pinTier(t kernelTier) {
	ctx.rowTier.Store(uint32(min(t, hostTier)))
	for _, m := range ctx.Moduli {
		m.pinTier(t)
	}
	for _, m := range ctx.special {
		m.pinTier(t)
	}
}

// rowKernels returns the tier of the context's rows.
func (ctx *Context) rowKernels() kernelTier { return kernelTier(ctx.rowTier.Load()) }

// VectorKernels reports whether this context routes eligible rows to the
// vector backend.
func (ctx *Context) VectorKernels() bool { return ctx.rowKernels() != tierScalar }

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
// eligible rows (rowVecOK) to the tier's vector kernel — 4-lane AVX2 or
// 8-lane AVX-512; every path is bit-identical (vector.go).

func addRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = AddMod(a[j], b[j], q)
	}
}

func addRow(tier kernelTier, q uint64, a, b, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		addVecAsm(tier, q, a, b, out)
		return
	}
	addRowScalar(q, a, b, out)
}

func subRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = SubMod(a[j], b[j], q)
	}
}

func subRow(tier kernelTier, q uint64, a, b, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		subVecAsm(tier, q, a, b, out)
		return
	}
	subRowScalar(q, a, b, out)
}

func negRowScalar(q uint64, a, out []uint64) {
	for j := range out {
		out[j] = NegMod(a[j], q)
	}
}

func negRow(tier kernelTier, q uint64, a, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		negVecAsm(tier, q, a, out)
		return
	}
	negRowScalar(q, a, out)
}

func mulRowScalar(q uint64, a, b, out []uint64) {
	for j := range out {
		out[j] = MulMod(a[j], b[j], q)
	}
}

func mulRow(tier kernelTier, q uint64, a, b, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		mulVecAsm(tier, q, a, b, out)
		return
	}
	mulRowScalar(q, a, b, out)
}

// montGroup is the most digits one Montgomery reduction of the inner
// product covers. For q < maxHybridModulus = 2^60 the sum of montGroup
// products of reduced operands stays below 8q² < q·2^64, the reduction's
// bound, and the vector kernels' 32-bit partial sums stay inside their
// 64-bit lanes (ntt_amd64.s).
const montGroup = 8

// dotMontRowScalar is the inner product over one prime for at most
// montGroup digits: out0 += Σ_k d_k·b_k·2^-64 and out1 += Σ_k d_k·a_k·2^-64
// mod q, every operand reduced. Each sum is exact in 128 bits — its high
// words accumulate on top of out's residues (below 2q with them), its
// low words in the scratch rows lo0 and lo1, at least as long as out —
// and is reduced once. The length guards let every loop below run
// without bounds checks.
func dotMontRowScalar(q, qInv uint64, d, b, a [][]uint64, out0, out1, lo0, lo1 []uint64) {
	n := len(out0)
	if len(out1) != n || len(lo0) < n || len(lo1) < n || len(b) < len(d) || len(a) < len(d) {
		panic("ring: inner product rows of unequal length")
	}
	clear(lo0)
	clear(lo1)
	for k, dk := range d {
		bk, ak := b[k], a[k]
		if len(dk) < n || len(bk) < n || len(ak) < n {
			panic("ring: inner product rows of unequal length")
		}
		for j := range out0 {
			x := dk[j]
			hi, lo := bits.Mul64(x, bk[j])
			var c uint64
			lo0[j], c = bits.Add64(lo0[j], lo, 0)
			out0[j] += hi + c
			hi, lo = bits.Mul64(x, ak[j])
			lo1[j], c = bits.Add64(lo1[j], lo, 0)
			out1[j] += hi + c
		}
	}
	for j := range out0 {
		out0[j] = montReduce(out0[j], lo0[j], q, qInv)
		out1[j] = montReduce(out1[j], lo1[j], q, qInv)
	}
}

func mulScalarRowScalar(q, c, cs uint64, a, out []uint64) {
	for j := range out {
		out[j] = MulModShoup(a[j], c, cs, q)
	}
}

func mulScalarRow(tier kernelTier, q, c, cs uint64, a, out []uint64) {
	if rowVecOK(tier, q, len(out)) {
		mulScalarVecAsm(tier, q, c, cs, a, out)
		return
	}
	mulScalarRowScalar(q, c, cs, a, out)
}

// Add sets out = a + b. All three must share a level and domain.
func (ctx *Context) Add(a, b, out *Poly) {
	m := len(out.Coeffs)
	tier := ctx.rowKernels()
	for i := 0; i < m; i++ {
		addRow(tier, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b.
func (ctx *Context) Sub(a, b, out *Poly) {
	m := len(out.Coeffs)
	tier := ctx.rowKernels()
	for i := 0; i < m; i++ {
		subRow(tier, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a.
func (ctx *Context) Neg(a, out *Poly) {
	m := len(out.Coeffs)
	tier := ctx.rowKernels()
	for i := 0; i < m; i++ {
		negRow(tier, ctx.Moduli[i].Q, a.Coeffs[i], out.Coeffs[i])
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
	tier := ctx.rowKernels()
	for i := 0; i < m; i++ {
		mulRow(tier, ctx.Moduli[i].Q, a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	}
	out.IsNTT = true
}

// MontgomeryForm sets out = p·2^64 (mod each prime), the form in which
// DotMontgomeryAdd takes its fixed operands. out may alias p.
func (ctx *Context) MontgomeryForm(p, out *Poly) {
	tier := ctx.rowKernels()
	for i, row := range out.Coeffs {
		m := ctx.Moduli[i]
		mulScalarRow(tier, m.Q, m.r64, m.r64S, p.Coeffs[i], row)
	}
	out.IsNTT = p.IsNTT
}

// NormalForm undoes MontgomeryForm: out = p·2^-64 (mod each prime). out
// may alias p.
func (ctx *Context) NormalForm(p, out *Poly) {
	tier := ctx.rowKernels()
	for i, row := range out.Coeffs {
		m := ctx.Moduli[i]
		mulScalarRow(tier, m.Q, m.rInv, m.rInvS, p.Coeffs[i], row)
	}
	out.IsNTT = p.IsNTT
}

// DotMontgomeryAdd sets acc0 += Σ_j d_j ⊙ b_j and acc1 += Σ_j d_j ⊙ a_j
// (pointwise, NTT domain), where the fixed operands b_j and a_j are in
// Montgomery form and every d_j is fully reduced. Per coefficient it
// loads each d_j once, sums the products of up to montGroup digits
// exactly in 128 bits, and makes one Montgomery reduction, which also
// takes the 2^64 back out. b_j and a_j may live at a higher level than
// the accumulators; only the accumulators' rows are touched. This is the
// key-switch inner product, the hottest pointwise loop of the evaluator,
// and the public-key encryption's one-digit product.
func (ctx *Context) DotMontgomeryAdd(d, b, a []*Poly, acc0, acc1 *Poly) {
	if len(b) < len(d) || len(a) < len(d) {
		panic("ring: DotMontgomeryAdd needs a fixed operand per digit")
	}
	for _, p := range d {
		if !p.IsNTT {
			panic("ring: DotMontgomeryAdd requires NTT-domain operands")
		}
	}
	j := dotJobs.get()
	*j = dotJob{ctx: ctx, d: d, b: b, a: a, acc0: acc0, acc1: acc1, tier: ctx.rowKernels()}
	Run(len(acc0.Coeffs), j)
	dotJobs.put(j)
	acc0.IsNTT, acc1.IsNTT = true, true
}

// dotJob is DotMontgomeryAdd, one task per row of the accumulators.
type dotJob struct {
	ctx        *Context
	d, b, a    []*Poly
	acc0, acc1 *Poly
	tier       kernelTier
}

var dotJobs jobs[dotJob]

func (j *dotJob) Task(i int) {
	m, out0, out1 := j.ctx.Moduli[i], j.acc0.Coeffs[i], j.acc1.Coeffs[i]
	var rows [3][montGroup][]uint64
	var lo0, lo1 []uint64 // the scalar kernel's low words, lent by the pool
	d, b, a := j.d, j.b[:len(j.d)], j.a[:len(j.d)]
	for lo := 0; lo < len(d); lo += montGroup {
		dr, br, ar := rows[0][:0], rows[1][:0], rows[2][:0]
		for g, hi := lo, min(lo+montGroup, len(d)); g < hi; g++ {
			dr, br, ar = append(dr, d[g].Coeffs[i]), append(br, b[g].Coeffs[i]), append(ar, a[g].Coeffs[i])
		}
		if rowVecOK(j.tier, m.Q, len(out0)) {
			dotMontVecAsm(j.tier, m.Q, m.qInv, dr, br, ar, out0, out1)
			continue
		}
		if lo0 == nil {
			lo0, lo1 = j.ctx.getRow(), j.ctx.getRow()
		}
		dotMontRowScalar(m.Q, m.qInv, dr, br, ar, out0, out1, lo0, lo1)
	}
	if lo0 != nil {
		j.ctx.putRow(lo0)
		j.ctx.putRow(lo1)
	}
}

// MulScalar sets out = a * c for a word-sized scalar c.
func (ctx *Context) MulScalar(a *Poly, c uint64, out *Poly) {
	m := len(out.Coeffs)
	tier := ctx.rowKernels()
	for i := 0; i < m; i++ {
		q := ctx.Moduli[i].Q
		cq := c % q
		mulScalarRow(tier, q, cq, ShoupPrecomp(cq, q), a.Coeffs[i], out.Coeffs[i])
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
// coefficients, reducing each into every active prime. When every c is
// in [−q, q), a residue is c + q·[c < 0], the sign taken as a mask rather
// than a branch (a sampled error's sign is a coin flip the predictor
// cannot learn); otherwise every coefficient takes a division.
func (ctx *Context) SetLift(coeffs []int64, p *Poly) {
	// c ^ c>>63 is c for c ≥ 0 and |c| − 1 below, so an OR of them all
	// under q puts every c in [−q, q).
	var bound uint64
	for _, c := range coeffs {
		bound |= uint64(c ^ c>>63)
	}
	for i := range p.Coeffs {
		q := ctx.Moduli[i].Q
		pi := p.Coeffs[i][:len(coeffs)]
		if bound < q {
			for j, c := range coeffs {
				pi[j] = uint64(c) + q&uint64(c>>63)
			}
			continue
		}
		for j, c := range coeffs {
			pi[j] = liftLarge(c, q)
		}
	}
	p.IsNTT = false
}

// liftLarge reduces any coefficient into [0, q).
func liftLarge(c int64, q uint64) uint64 {
	v := uint64(c)
	if c < 0 {
		v = -v
	}
	if v %= q; c < 0 && v != 0 {
		v = q - v
	}
	return v
}
