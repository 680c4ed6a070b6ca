package bgv

import (
	"fmt"
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

// galois returns the current Galois key for elt, nil when there is none.
func (ev *Evaluator) galois(elt uint64) *SwitchingKey {
	if keys := ev.keys.Load(); keys != nil {
		return keys.Galois[elt]
	}
	return nil
}

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

// Add returns a + b; the operands must share a level.
func (ev *Evaluator) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameLevel(a, b); err != nil {
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

// Sub returns a - b, subtracting coefficient-wise in one pass; the
// operands must share a level.
func (ev *Evaluator) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := sameLevel(a, b); err != nil {
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
	ctx := ev.params.RingCtx
	out := &Ciphertext{}
	for _, c := range a.C {
		out.C = append(out.C, ctx.CopyPooled(c))
	}
	ctx.Add(out.C[0], pt.lift(ctx, a.Level()), out.C[0])
	return out, nil
}

// MulPlain returns a · pt (slot-wise).
func (ev *Evaluator) MulPlain(a *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	p := pt.lift(ctx, a.Level())
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
// by P·q_ℓ at once. Degree-1 inputs pass through unchanged.
func (ev *Evaluator) Relinearize(ct *Ciphertext) (*Ciphertext, error) {
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
// (ring.DecomposeHybrid); a nil c1 stands for zero. Dividing them by P
// adds the switched polynomial to (c0, c1). The key is accessed through
// its level-truncated view, so a switch at a scheduled-down level runs
// over exactly the digits and limbs that level needs. The caller returns
// the accumulators to the QP pool.
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
	for j, dig := range digits {
		qp.MulCoeffsShoupAdd(dig, key.B[j], key.BS[j], acc0)
		qp.MulCoeffsShoupAdd(dig, key.A[j], key.AS[j], acc1)
	}
	return acc0, acc1
}

// ModSwitch drops one prime from ct's modulus chain in place, reducing
// the noise by roughly PrimeBits.
func (ev *Evaluator) ModSwitch(ct *Ciphertext) error {
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
// If no Galois key exists for the exact step, the rotation is composed
// from available power-of-two steps.
func (ev *Evaluator) Rotate(ct *Ciphertext, step int) (*Ciphertext, error) {
	if ev.keys.Load() == nil {
		return nil, fmt.Errorf("bgv: Rotate requires Galois keys")
	}
	slots := ev.params.Slots()
	s := ((step % slots) + slots) % slots
	if s == 0 {
		return ev.copyPooled(ct), nil
	}
	// A direct key is only usable if it covers the ciphertext's level:
	// keys may be generated below the chain top (WithGaloisKeys), and a
	// rotation arriving above one falls back to the composed path, which
	// needs power-of-two keys at that level.
	elt := ev.params.GaloisElt(s)
	if key := ev.galois(elt); key != nil && key.Level() >= ct.Level() {
		return ev.applyGalois(ct, elt)
	}
	// Compose from power-of-two hops; each intermediate goes back to the
	// pool once the next hop has read it.
	out := ct
	for bit := 0; s != 0; bit++ {
		if s&1 == 1 {
			hop := 1 << bit
			elt := ev.params.GaloisElt(hop)
			if ev.galois(elt) == nil {
				return nil, fmt.Errorf("bgv: no Galois key for step %d (needed to compose rotation by %d)", hop, step)
			}
			next, err := ev.applyGalois(out, elt)
			ev.release(out, ct)
			if err != nil {
				return nil, err
			}
			out = next
		}
		s >>= 1
	}
	return out, nil
}

// applyGalois applies the automorphism x -> x^elt and key-switches back
// to the original secret.
func (ev *Evaluator) applyGalois(ct *Ciphertext, elt uint64) (*Ciphertext, error) {
	if err := ev.checkGalois(ct, elt); err != nil {
		return nil, err
	}
	ctx := ev.params.RingCtx
	digits := ctx.DecomposeHybrid(ct.C[1])
	out, err := ev.galoisFromDigits(ct, digits, elt)
	ctx.PutPolys(digits)
	return out, err
}

// checkGalois validates ct and the headroom for one key switch. A key
// switch adds ~KeySwitchNoiseBits of absolute noise; refuse to rotate
// when the current modulus cannot absorb it.
func (ev *Evaluator) checkGalois(ct *Ciphertext, elt uint64) error {
	key := ev.galois(elt)
	if key == nil {
		return fmt.Errorf("bgv: no Galois key for element %d", elt)
	}
	if key.Level() < ct.Level() {
		return fmt.Errorf("bgv: Galois key for element %d generated at level %d cannot serve a rotation at level %d",
			elt, key.Level(), ct.Level())
	}
	if len(ct.C) != 2 {
		return fmt.Errorf("bgv: rotation requires a degree-1 ciphertext")
	}
	level, tBits := ct.Level(), bitsOf(ev.params.T)
	if float64(ev.params.QBits(level)) < KeySwitchNoiseBits(ev.params.LogN, tBits, level)+float64(tBits)+4 {
		return fmt.Errorf("bgv: rotation at level %d lacks key-switch headroom: %w", level, errNotEnoughLevels)
	}
	return nil
}

// galoisFromDigits finishes a rotation from the hoisted state, the
// extended digits of c1: it key-switches c1 from s to σ^{-1}(s) (the
// form Galois keys are generated in), adds c0, and applies σ to both
// components as an NTT-domain index permutation, which lands the result
// back under s. One decomposition therefore serves every rotation of the
// same ciphertext, and each step costs a multiply-accumulate, one
// divide-by-P and two permutations.
func (ev *Evaluator) galoisFromDigits(ct *Ciphertext, digits []*ring.Poly, elt uint64) (*Ciphertext, error) {
	ctx := ev.params.RingCtx
	level := ct.Level()

	acc0, acc1 := ev.keySwitch(digits, ev.galois(elt), level, ct.C[0], nil)
	k0, k1 := ctx.GetPoly(level), ctx.GetPoly(level)
	ctx.DivideByP(acc0, k0)
	ctx.DivideByP(acc1, k1)
	ctx.QP(level).PutPolys([]*ring.Poly{acc0, acc1})
	c0, c1 := ctx.GetPoly(level), ctx.GetPoly(level)
	ctx.AutomorphismNTT(k0, elt, c0)
	ctx.AutomorphismNTT(k1, elt, c1)
	ctx.PutPoly(k0)
	ctx.PutPoly(k1)

	return &Ciphertext{C: []*ring.Poly{c0, c1}}, nil
}

// HoistableStepAt classifies a rotation step at a level for op
// accounting: it returns (false, false) for a no-op step (0 mod slots),
// (true, true) when a direct Galois key exists covering the level so
// the step rides the hoisted path, and (true, false) when the step must
// be composed from power-of-two hops instead.
func (ev *Evaluator) HoistableStepAt(step, level int) (rotates, hoisted bool) {
	slots := ev.params.Slots()
	s := ((step % slots) + slots) % slots
	if s == 0 {
		return false, false
	}
	key := ev.galois(ev.params.GaloisElt(s))
	return true, key != nil && key.Level() >= level
}

// RotateHoisted rotates ct left by every step in steps with hoisted key
// switching (Halevi–Shoup 2018): the c1 component is split into extended
// key-switching digits once and every requested rotation reuses them —
// amortizing the INTT, base extension and digit NTTs. The result
// slice is parallel to steps; step 0 returns a copy. Steps lacking a
// direct Galois key fall back to the composed Rotate path (no hoisting
// for those steps).
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) ([]*Ciphertext, error) {
	if ev.keys.Load() == nil {
		return nil, fmt.Errorf("bgv: RotateHoisted requires Galois keys")
	}
	if len(steps) == 0 {
		return nil, nil
	}
	if len(ct.C) != 2 {
		return nil, fmt.Errorf("bgv: rotation requires a degree-1 ciphertext")
	}
	ctx := ev.params.RingCtx
	slots := ev.params.Slots()
	level := ct.Level()

	outs := make([]*Ciphertext, len(steps))
	var digits []*ring.Poly
	var err error
	for i, step := range steps {
		s := ((step % slots) + slots) % slots
		if s == 0 {
			outs[i] = ev.copyPooled(ct)
			continue
		}
		elt := ev.params.GaloisElt(s)
		if key := ev.galois(elt); key == nil || key.Level() < level {
			outs[i], err = ev.Rotate(ct, s)
		} else if err = ev.checkGalois(ct, elt); err == nil {
			if digits == nil {
				digits = ctx.DecomposeHybrid(ct.C[1])
			}
			outs[i], err = ev.galoisFromDigits(ct, digits, elt)
		}
		if err != nil {
			break
		}
	}
	ctx.PutPolys(digits)
	if err != nil {
		return nil, err
	}
	return outs, nil
}
