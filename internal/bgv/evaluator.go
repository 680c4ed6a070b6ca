package bgv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"copse/internal/ring"
)

// Evaluator performs homomorphic operations. It holds only read-only key
// material, so a single Evaluator is safe for concurrent use across
// goroutines as long as distinct ciphertexts are operated on. Its key
// set is replaced whole (SetKeys), never written in place.
type Evaluator struct {
	params *Parameters
	keys   atomic.Pointer[EvaluationKeys]
}

// NewEvaluator returns an evaluator using the given evaluation keys. The
// keys may be nil for purely additive workloads.
func NewEvaluator(params *Parameters, keys *EvaluationKeys) *Evaluator {
	ev := &Evaluator{params: params}
	ev.keys.Store(keys)
	return ev
}

// Keys returns the evaluator's current key set (nil when it has none).
func (ev *Evaluator) Keys() *EvaluationKeys { return ev.keys.Load() }

// SetKeys publishes a new key set. Operations already running finish on
// the set they loaded, so a set that grows (KeyGenerator.WithGaloisKeys)
// is published while other goroutines rotate.
func (ev *Evaluator) SetKeys(keys *EvaluationKeys) { ev.keys.Store(keys) }

// release returns tmp's polynomials to the ring pool unless tmp is ct
// itself: an intermediate an operation made of ct and no longer needs.
func (ev *Evaluator) release(tmp, ct *Ciphertext) {
	if tmp != ct {
		ev.params.RingCtx.PutPolys(tmp.C)
	}
}

// copyPooled returns a deep copy of ct on polynomials from the ring pool.
func (ev *Evaluator) copyPooled(ct *Ciphertext) *Ciphertext {
	out := &Ciphertext{C: make([]*ring.Poly, len(ct.C))}
	for i, c := range ct.C {
		out.C[i] = ev.params.RingCtx.CopyPooled(c)
	}
	return out
}

// sameLevel refuses a binary op whose operands sit at different levels:
// the evaluator executes a level plan and makes no level move of its own
// (every move is a DropToLevel op of the program, DESIGN.md §8.2).
func sameLevel(a, b *Ciphertext) error {
	if a.Level() != b.Level() {
		return &LevelMismatchError{A: a.Level(), B: b.Level()}
	}
	return nil
}

// Every output polynomial below comes from the ring pool; the caller owns
// the ciphertext returned and hands its polynomials back when it is done
// with it (DESIGN.md §6.4).

// Add returns a + b; the operands must share a level. A sum with an
// unfinished operand is unfinished (addUnfinished).
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameLevel(a, b); err != nil {
		return nil, err
	}
	if a.Unfinished() || b.Unfinished() {
		return ev.addUnfinished(a, b)
	}
	ctx := ev.params.RingCtx
	level := a.Level()
	out := &Ciphertext{}
	for i := 0; i < max(len(a.C), len(b.C)); i++ {
		var c *ring.Poly
		switch {
		case i < len(a.C) && i < len(b.C):
			c = ctx.GetPoly(level)
			ctx.Add(a.C[i], b.C[i], c)
		case i < len(a.C):
			c = ctx.CopyPooled(a.C[i])
		default:
			c = ctx.CopyPooled(b.C[i])
		}
		out.C = append(out.C, c)
	}
	return out, nil
}

// addUnfinished is Add with an unfinished operand, over Q_ℓ·P: both
// unfinished add row by row; a finished addend enters scaled by P, the
// form it would have over Q_ℓ·P (its special rows zero), so one division
// by P later finishes the whole sum.
func (ev *Evaluator) addUnfinished(a, b *Ciphertext) (*Ciphertext, error) {
	if len(a.C) != 2 || len(b.C) != 2 {
		return nil, fmt.Errorf("bgv: an unfinished key switch adds to degree-1 ciphertexts only")
	}
	if !b.Unfinished() {
		a, b = b, a
	}
	ctx := ev.params.RingCtx
	qp := ctx.QP(a.Level())
	out := &Ciphertext{Special: b.Special}
	for i := range b.C {
		c := qp.GetPoly(qp.MaxLevel())
		if a.Unfinished() {
			qp.Add(a.C[i], b.C[i], c)
		} else {
			ctx.MulByP(a.C[i], c)
			qp.Add(c, b.C[i], c)
		}
		out.C = append(out.C, c)
	}
	return out, nil
}

// Sub returns a - b, subtracting coefficient-wise in one pass; the
// operands must share a level.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameLevel(a, b); err != nil {
		return nil, err
	}
	if err := finished(a, b); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	level := a.Level()
	out := &Ciphertext{}
	for i := 0; i < max(len(a.C), len(b.C)); i++ {
		var c *ring.Poly
		switch {
		case i < len(a.C) && i < len(b.C):
			c = ctx.GetPoly(level)
			ctx.Sub(a.C[i], b.C[i], c)
		case i < len(a.C):
			c = ctx.CopyPooled(a.C[i])
		default:
			c = ctx.GetPoly(level)
			ctx.Neg(b.C[i], c)
		}
		out.C = append(out.C, c)
	}
	return out, nil
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) (*Ciphertext, error) {
	if err := finished(a); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	out := &Ciphertext{}
	for _, c := range a.C {
		n := ctx.GetPoly(a.Level())
		ctx.Neg(c, n)
		out.C = append(out.C, n)
	}
	return out, nil
}

// AddPlain returns a + pt.
func (ev *Evaluator) AddPlain(a *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := finished(a); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	out := &Ciphertext{}
	for _, c := range a.C {
		out.C = append(out.C, ctx.CopyPooled(c))
	}
	ctx.Add(out.C[0], pt.Lift(ctx, a.Level()), out.C[0])
	return out, nil
}

// MulPlain returns a · pt (slot-wise).
func (ev *Evaluator) MulPlain(a *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	if err := finished(a); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	p := pt.Lift(ctx, a.Level())
	out := &Ciphertext{}
	for _, c := range a.C {
		m := ctx.GetPoly(a.Level())
		ctx.MulCoeffs(c, p, m)
		out.C = append(out.C, m)
	}
	return out, nil
}

// MulScalar returns a · c for a scalar c < T (the same value in every
// slot). Scalars embed as constant polynomials, so no encoding is
// needed.
func (ev *Evaluator) MulScalar(a *Ciphertext, c uint64) (*Ciphertext, error) {
	if err := finished(a); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	out := &Ciphertext{}
	for _, p := range a.C {
		m := ctx.GetPoly(a.Level())
		ctx.MulScalar(p, c, m)
		out.C = append(out.C, m)
	}
	return out, nil
}

// tensorProduct computes the degree-2 tensor (d0, d1, d2) of a·b. The
// operands must share a level with a prime below it, which the
// relinearization that follows switches away.
func (ev *Evaluator) tensorProduct(a, b *Ciphertext) (*Ciphertext, error) {
	if len(a.C) != 2 || len(b.C) != 2 {
		return nil, fmt.Errorf("bgv: Mul requires degree-1 ciphertexts")
	}
	if err := finished(a, b); err != nil {
		return nil, err
	}
	if err := sameLevel(a, b); err != nil {
		return nil, err
	}
	level := a.Level()
	if level == 0 {
		return nil, errNotEnoughLevels
	}
	ctx := ev.params.RingCtx

	d0 := ctx.GetPoly(level)
	ctx.MulCoeffs(a.C[0], b.C[0], d0)
	d1 := ctx.GetPoly(level)
	tmp := ctx.GetPoly(level)
	ctx.MulCoeffs(a.C[0], b.C[1], d1)
	ctx.MulCoeffs(a.C[1], b.C[0], tmp)
	ctx.Add(d1, tmp, d1)
	d2 := ctx.GetPoly(level)
	ctx.MulCoeffs(a.C[1], b.C[1], d2)
	ctx.PutPoly(tmp)

	return &Ciphertext{C: []*ring.Poly{d0, d1, d2}}, nil
}

// Fused sums of products against staged factors (DESIGN.md §13.7). A
// factor is a fixed multiplicand held in Montgomery form (w·2^64 mod
// each prime), the form ring.Context.DotMontgomeryAdd reads: each sum is
// exact in 128 bits and reduced once per montGroup terms, which takes the
// 2^64 back out, so every result residue is fully reduced and the same
// as that of the MulCoeffs-and-Add chain it replaces. Factors may live
// above the sum's level; only its rows are read.

// TensorSum returns Σ_k x_k ⊗ e_k, the degree-2 sum of the tensor
// products of the degree-1 ciphertexts xs, all at one level with a prime
// below it, with the ciphertext factors es (both halves in Montgomery
// form, at or above that level): (Σ x0·e0, Σ x0·e1 + x1·e0, Σ x1·e1) in
// two passes of the inner product, one per half of x.
func (ev *Evaluator) TensorSum(xs, es []*Ciphertext) (*Ciphertext, error) {
	if len(xs) == 0 || len(es) != len(xs) {
		return nil, fmt.Errorf("bgv: a tensor sum of %d ciphertexts and %d factors", len(xs), len(es))
	}
	level := xs[0].Level()
	x0, x1 := make([]*ring.Poly, len(xs)), make([]*ring.Poly, len(xs))
	e0, e1 := make([]*ring.Poly, len(xs)), make([]*ring.Poly, len(xs))
	for k, x := range xs {
		e := es[k]
		if len(x.C) != 2 || len(e.C) != 2 {
			return nil, fmt.Errorf("bgv: Mul requires degree-1 ciphertexts")
		}
		if err := finished(x, e); err != nil {
			return nil, err
		}
		if err := sameLevel(x, xs[0]); err != nil {
			return nil, err
		}
		if e.Level() < level {
			return nil, &LevelMismatchError{A: e.Level(), B: level}
		}
		x0[k], x1[k], e0[k], e1[k] = x.C[0], x.C[1], e.C[0], e.C[1]
	}
	if level == 0 {
		return nil, errNotEnoughLevels
	}
	ctx := ev.params.RingCtx
	o0, o1, o2 := ctx.GetPolyZero(level), ctx.GetPolyZero(level), ctx.GetPolyZero(level)
	ctx.DotMontgomeryAdd(x0, e0, e1, o0, o1)
	ctx.DotMontgomeryAdd(x1, e0, e1, o1, o2)
	return &Ciphertext{C: []*ring.Poly{o0, o1, o2}}, nil
}

// Mul returns a·b, relinearized and modulus-switched: it consumes one
// level. The operands must share a level.
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	tensor, err := ev.MulNoRelin(a, b)
	if err != nil {
		return nil, err
	}
	out, err := ev.Relinearize(tensor)
	ev.release(tensor, out)
	return out, err
}

// MulNoRelin returns the degree-2 product a·b without relinearizing.
// Degree-2 ciphertexts support Add/Sub/Neg, so a sum of products can be
// accumulated first and key-switched once with Relinearize — amortizing
// the key switch across the whole inner product (lazy relinearization).
// The operands must share a level.
func (ev *Evaluator) MulNoRelin(a, b *Ciphertext) (*Ciphertext, error) {
	return ev.tensorProduct(a, b)
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 one level
// down: the modulus switch that follows the key switch is folded into
// the key switch's own rounding, which divides P·(c0, c1) + Σ digit·key
// by P·q_ℓ at once. It finishes an unfinished ciphertext — a sum of
// rotations left over Q_ℓ·P — at its level, with one division by P per
// component for the whole sum. Other degree-1 inputs pass through
// unchanged.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
	if ct.Unfinished() {
		if len(ct.C) != 2 {
			return nil, fmt.Errorf("bgv: an unfinished key switch of degree %d", ct.Degree())
		}
		ctx := ev.params.RingCtx
		out := &Ciphertext{}
		for _, c := range ct.C {
			d := ctx.GetPoly(ct.Level())
			ctx.DivideByPKeep(c, d)
			out.C = append(out.C, d)
		}
		return out, nil
	}
	if len(ct.C) == 2 {
		return ct, nil
	}
	if len(ct.C) != 3 {
		return nil, fmt.Errorf("bgv: Relinearize requires a ciphertext of degree at most 2")
	}
	keys := ev.keys.Load()
	if keys == nil || keys.Relin == nil {
		return nil, fmt.Errorf("bgv: Mul requires a relinearization key")
	}
	level := ct.Level()
	if level == 0 {
		return nil, errNotEnoughLevels
	}
	ctx := ev.params.RingCtx

	digits := ctx.DecomposeHybrid(ct.C[2])
	acc0, acc1 := ev.keySwitch(digits, keys.Relin, level, ct.C[0], ct.C[1])
	ctx.PutPolys(digits)
	d0, d1 := ctx.GetPoly(level-1), ctx.GetPoly(level-1)
	ctx.DivideByPQ(acc0, d0)
	ctx.DivideByPQ(acc1, d1)
	ctx.QP(level).PutPolys([]*ring.Poly{acc0, acc1})

	return &Ciphertext{C: []*ring.Poly{d0, d1}}, nil
}

// keySwitch returns the accumulators (P·c0 + Σ_j digit_j ⊙ B_j,
// P·c1 + Σ_j digit_j ⊙ A_j) over Q_level·P, in NTT domain, from the
// extended digits of the polynomial being switched
// (ring.DecomposeHybrid); a nil c1 stands for zero. Both sums are one
// pass of the Montgomery-form inner product, each digit read once.
// Dividing them by P adds the switched polynomial to (c0, c1). The key
// is accessed through its level-truncated view, so a switch at a
// scheduled-down level runs over exactly the digits and limbs that level
// needs. The caller returns the accumulators to the QP pool.
func (ev *Evaluator) keySwitch(digits []*ring.Poly, key *SwitchingKey, level int, c0, c1 *ring.Poly) (acc0, acc1 *ring.Poly) {
	ctx := ev.params.RingCtx
	qp := ctx.QP(level)
	key = key.AtLevel(level)
	acc0 = qp.GetPoly(qp.MaxLevel())
	ctx.MulByP(c0, acc0)
	if c1 != nil {
		acc1 = qp.GetPoly(qp.MaxLevel())
		ctx.MulByP(c1, acc1)
	} else {
		acc1 = qp.GetPolyZero(qp.MaxLevel())
		acc1.IsNTT = true
	}
	qp.DotMontgomeryAdd(digits, key.B, key.A, acc0, acc1)
	return acc0, acc1
}

// ModSwitch drops one prime from ct's modulus chain in place, reducing
// the noise by roughly PrimeBits.
func (ev *Evaluator) ModSwitch(ct *Ciphertext) error {
	if err := finished(ct); err != nil {
		return err
	}
	if ct.Level() == 0 {
		return errNotEnoughLevels
	}
	ctx := ev.params.RingCtx
	for _, c := range ct.C {
		ctx.ModSwitchDown(c)
	}
	return nil
}

// SwitchDown returns ct switched down to the given level as a new
// ciphertext from the ring pool, leaving ct untouched: every prime in
// between goes in one rounding per polynomial, and only the surviving
// rows are written. A ciphertext already at or below the level is
// returned as it is.
func (ev *Evaluator) SwitchDown(ct *Ciphertext, level int) (*Ciphertext, error) {
	if err := finished(ct); err != nil {
		return nil, err
	}
	if ct.Level() <= level {
		return ct, nil
	}
	if level < 0 {
		return nil, errNotEnoughLevels
	}
	out := &Ciphertext{C: make([]*ring.Poly, len(ct.C))}
	for i, c := range ct.C {
		out.C[i] = ev.params.RingCtx.GetPoly(level)
		ev.params.RingCtx.ModSwitchDownTo(c, out.C[i])
	}
	return out, nil
}

// DropToLevel switches ct down to the given level in place, its
// replaced polynomials going back to the ring pool.
func (ev *Evaluator) DropToLevel(ct *Ciphertext, level int) error {
	out, err := ev.SwitchDown(ct, level)
	if err != nil || out == ct {
		return err
	}
	old := ct.C
	*ct = *out
	ev.params.RingCtx.PutPolys(old)
	return nil
}

// Rotate returns ct with slots rotated left by step: out[i] = in[i+step].
// It is the one-step case of RotateHoisted.
func (ev *Evaluator) Rotate(ct *Ciphertext, step int) (*Ciphertext, error) {
	outs, err := ev.RotateHoisted(ct, []int{step})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// RotateLazy is Rotate with its key switch left unfinished over Q_ℓ·P:
// σ(P·c0 + Σ_j d_j ⊙ B_j), σ(Σ_j d_j ⊙ A_j), no division by P made (step
// 0 returns a finished copy). Unfinished rotations are summed with Add
// and the sum finished with Relinearize — one division per component
// for the whole sum, where the eager rotations pay one each, and one
// rounding instead of one per rotation: the giant-step half of double
// hoisting (Bossuat et al. 2020).
func (ev *Evaluator) RotateLazy(ct *Ciphertext, step int) (*Ciphertext, error) {
	outs, err := ev.rotateHoisted(ct, []int{step}, true)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// GaloisKey returns the Galois element of a left rotation by step (not 0
// mod slots) and the key that serves it directly at the given level: one
// generated at or above that level. The evaluator rotates by nothing
// else — staging fixes every rotation a program makes and generates its
// keys (DESIGN.md §9.4) — so a rotation no key serves is refused with a
// *MissingKeyError.
func (ev *Evaluator) GaloisKey(step, level int) (uint64, *SwitchingKey, error) {
	elt := ev.params.GaloisElt(step)
	keyLevel := -1
	if keys := ev.keys.Load(); keys != nil {
		if key := keys.Galois[elt]; key != nil {
			if key.Level() >= level {
				return elt, key, nil
			}
			keyLevel = key.Level()
		}
	}
	return 0, nil, &MissingKeyError{Step: step, Level: level, KeyLevel: keyLevel}
}

// galoisFromDigits finishes a rotation from the hoisted state, the
// extended digits of c1: it key-switches c1 from s to σ^{-1}(s) (the
// form Galois keys are generated in) under key, adds c0, and applies σ
// to both components as an NTT-domain index permutation, which lands the
// result back under s. One decomposition therefore serves every rotation
// of the same ciphertext, and each step costs a multiply-accumulate, one
// divide-by-P and two permutations. A lazy rotation skips the divide: σ
// permutes the accumulators over Q_ℓ·P, special rows included, and the
// result is unfinished.
func (ev *Evaluator) galoisFromDigits(ct *Ciphertext, digits []*ring.Poly, elt uint64, key *SwitchingKey, lazy bool) *Ciphertext {
	ctx := ev.params.RingCtx
	level := ct.Level()

	acc0, acc1 := ev.keySwitch(digits, key, level, ct.C[0], nil)
	if lazy {
		qp := ctx.QP(level)
		c0, c1 := qp.GetPoly(qp.MaxLevel()), qp.GetPoly(qp.MaxLevel())
		ctx.AutomorphismNTT(acc0, elt, c0)
		ctx.AutomorphismNTT(acc1, elt, c1)
		qp.PutPolys([]*ring.Poly{acc0, acc1})
		return &Ciphertext{C: []*ring.Poly{c0, c1}, Special: ctx.SpecialPrimes()}
	}
	k0, k1 := ctx.GetPoly(level), ctx.GetPoly(level)
	ctx.DivideByP(acc0, k0)
	ctx.DivideByP(acc1, k1)
	ctx.QP(level).PutPolys([]*ring.Poly{acc0, acc1})
	c0, c1 := ctx.GetPoly(level), ctx.GetPoly(level)
	ctx.AutomorphismNTT(k0, elt, c0)
	ctx.AutomorphismNTT(k1, elt, c1)
	ctx.PutPoly(k0)
	ctx.PutPoly(k1)

	return &Ciphertext{C: []*ring.Poly{c0, c1}}
}

// RotateHoisted rotates ct left by every step in steps with hoisted key
// switching (Halevi–Shoup 2018): the c1 component is split into extended
// key-switching digits once and every requested rotation reuses them —
// amortizing the INTT, base extension and digit NTTs. The result slice
// is parallel to steps; step 0 (mod slots) returns a copy. Every other
// step needs a direct Galois key at ct's level (GaloisKey) and the level
// the headroom of one key switch; both are checked for every step before
// anything is decomposed or drawn from the ring pool.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	return ev.rotateHoisted(ct, steps, false)
}

// rotateHoisted is RotateHoisted, its key switches finished or (lazy)
// left over Q_ℓ·P.
func (ev *Evaluator) rotateHoisted(ct *Ciphertext, steps []int, lazy bool) ([]*Ciphertext, error) {
	if len(ct.C) != 2 {
		return nil, fmt.Errorf("bgv: rotation requires a degree-1 ciphertext")
	}
	if err := finished(ct); err != nil {
		return nil, err
	}
	slots := ev.params.Slots()
	level := ct.Level()
	h := hoists.Get().(*hoist)
	defer h.release()
	h.gs = append(h.gs[:0], make([]galois, len(steps))...)
	rotates := false
	for i, step := range steps {
		if step%slots == 0 {
			continue
		}
		elt, key, err := ev.GaloisKey(step, level)
		if err != nil {
			return nil, err
		}
		h.gs[i], rotates = galois{elt, key}, true
	}
	// A key switch adds ~KeySwitchNoiseBits of absolute noise; refuse to
	// rotate when the current modulus cannot absorb it.
	tBits := bitsOf(ev.params.T)
	if rotates && float64(ev.params.QBits(level)) < KeySwitchNoiseBits(ev.params.LogN, tBits, level)+float64(tBits)+4 {
		return nil, fmt.Errorf("bgv: rotation at level %d lacks key-switch headroom: %w", level, errNotEnoughLevels)
	}

	h.ev, h.ct, h.outs, h.lazy = ev, ct, make([]*Ciphertext, len(steps)), lazy
	if rotates {
		h.digits = ev.params.RingCtx.DecomposeHybrid(ct.C[1])
	}
	ring.Run(len(steps), h)
	ev.params.RingCtx.PutPolys(h.digits)
	return h.outs, nil
}

// galois is a rotation's Galois element and the key that serves it; a
// nil key stands for step 0.
type galois struct {
	elt uint64
	key *SwitchingKey
}

// hoist is the steps of a hoisted rotation after the shared
// decomposition, one task per step: each writes only its own output.
type hoist struct {
	ev     *Evaluator
	ct     *Ciphertext
	digits []*ring.Poly
	gs     []galois
	outs   []*Ciphertext
	lazy   bool
}

// hoists recycles hoist states with their gs, so a hoisted rotation
// allocates only its outputs.
var hoists = sync.Pool{New: func() any { return new(hoist) }}

// release empties h, keeping its gs, and gives it back to hoists.
func (h *hoist) release() {
	*h = hoist{gs: h.gs[:0]}
	hoists.Put(h)
}

func (h *hoist) Task(i int) {
	if g := h.gs[i]; g.key != nil {
		h.outs[i] = h.ev.galoisFromDigits(h.ct, h.digits, g.elt, g.key, h.lazy)
	} else {
		h.outs[i] = h.ev.copyPooled(h.ct)
	}
}
