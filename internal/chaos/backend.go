package chaos

import (
	"time"

	"copse/internal/he"
)

// Backend wraps an he.Backend with fault injection: every operation
// first draws from the schedule and applies the resulting latency,
// panic, or error before (or instead of) delegating. The capabilities
// beside the Backend interface (SetEncrypter, RotationKeyer,
// FactorSummer) are forwarded so a wrapped BGV backend keeps its
// parallel and fused fast paths and its staging makes the keys its
// programs rotate by; Counts/ResetCounts delegate to the inner backend so
// op accounting stays truthful.
type Backend struct {
	inner he.Backend
	sched *Schedule
}

var _ he.Backend = (*Backend)(nil)

// WrapBackend wraps b so its operations draw faults from sched.
func WrapBackend(b he.Backend, sched *Schedule) *Backend {
	return &Backend{inner: b, sched: sched}
}

// Inner returns the wrapped backend.
func (c *Backend) Inner() he.Backend { return c.inner }

// inject applies the drawn fault for op: sleeps injected latency,
// panics on a Panic draw, and returns a non-nil error on an Error draw.
func (c *Backend) inject(op Op) error {
	f := c.sched.Draw(op)
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.Panic {
		panic("chaos: injected panic in " + string(op))
	}
	return f.Err
}

// Name implements he.Backend.
func (c *Backend) Name() string { return c.inner.Name() }

// Slots implements he.Backend.
func (c *Backend) Slots() int { return c.inner.Slots() }

// PlainModulus implements he.Backend.
func (c *Backend) PlainModulus() uint64 { return c.inner.PlainModulus() }

// Encrypt implements he.Backend.
func (c *Backend) Encrypt(vals []uint64) (he.Ciphertext, error) {
	if err := c.inject(OpEncrypt); err != nil {
		return nil, err
	}
	return c.inner.Encrypt(vals)
}

// Decrypt implements he.Backend.
func (c *Backend) Decrypt(ct he.Ciphertext) ([]uint64, error) {
	if err := c.inject(OpDecrypt); err != nil {
		return nil, err
	}
	return c.inner.Decrypt(ct)
}

// EncodePlain implements he.Backend.
func (c *Backend) EncodePlain(vals []uint64) (he.Plain, error) {
	if err := c.inject(OpEncode); err != nil {
		return nil, err
	}
	return c.inner.EncodePlain(vals)
}

// Add implements he.Backend.
func (c *Backend) Add(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := c.inject(OpAdd); err != nil {
		return nil, err
	}
	return c.inner.Add(a, b)
}

// Sub implements he.Backend.
func (c *Backend) Sub(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := c.inject(OpAdd); err != nil {
		return nil, err
	}
	return c.inner.Sub(a, b)
}

// Neg implements he.Backend.
func (c *Backend) Neg(a he.Ciphertext) (he.Ciphertext, error) {
	if err := c.inject(OpAdd); err != nil {
		return nil, err
	}
	return c.inner.Neg(a)
}

// AddPlain implements he.Backend.
func (c *Backend) AddPlain(a he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	if err := c.inject(OpAdd); err != nil {
		return nil, err
	}
	return c.inner.AddPlain(a, p)
}

// MulPlain implements he.Backend.
func (c *Backend) MulPlain(a he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	if err := c.inject(OpMul); err != nil {
		return nil, err
	}
	return c.inner.MulPlain(a, p)
}

// Mul implements he.Backend.
func (c *Backend) Mul(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := c.inject(OpMul); err != nil {
		return nil, err
	}
	return c.inner.Mul(a, b)
}

// MulLazy implements he.Backend.
func (c *Backend) MulLazy(a, b he.Ciphertext) (he.Ciphertext, error) {
	if err := c.inject(OpMul); err != nil {
		return nil, err
	}
	return c.inner.MulLazy(a, b)
}

// Relinearize implements he.Backend.
func (c *Backend) Relinearize(a he.Ciphertext) (he.Ciphertext, error) {
	if err := c.inject(OpMul); err != nil {
		return nil, err
	}
	return c.inner.Relinearize(a)
}

// Rotate implements he.Backend.
func (c *Backend) Rotate(a he.Ciphertext, k int) (he.Ciphertext, error) {
	if err := c.inject(OpRotate); err != nil {
		return nil, err
	}
	return c.inner.Rotate(a, k)
}

// RotateHoisted implements he.Backend.
func (c *Backend) RotateHoisted(a he.Ciphertext, steps []int) ([]he.Ciphertext, error) {
	if err := c.inject(OpRotate); err != nil {
		return nil, err
	}
	return c.inner.RotateHoisted(a, steps)
}

// Counts implements he.Backend via the inner backend.
func (c *Backend) Counts() he.OpCounts { return c.inner.Counts() }

// ResetCounts implements he.Backend via the inner backend.
func (c *Backend) ResetCounts() { c.inner.ResetCounts() }

// DropToLevel implements he.LevelDropper via the inner backend. Drops
// are bookkeeping, not serving ops, so no fault is drawn.
func (c *Backend) DropToLevel(ct he.Ciphertext, level int) (he.Ciphertext, error) {
	return c.inner.DropToLevel(ct, level)
}

// CiphertextLevel implements he.LevelDropper via the inner backend.
func (c *Backend) CiphertextLevel(ct he.Ciphertext) (int, error) {
	return c.inner.CiphertextLevel(ct)
}

// MaxLevel implements he.LevelDropper via the inner backend.
func (c *Backend) MaxLevel() int { return c.inner.MaxLevel() }

// EncryptAtLevel implements he.LevelEncrypter via the inner backend
// (Encrypt at a negative level).
func (c *Backend) EncryptAtLevel(vals []uint64, level int) (he.Ciphertext, error) {
	if err := c.inject(OpEncrypt); err != nil {
		return nil, err
	}
	return he.EncryptAtLevel(c.inner, vals, level)
}

// EncryptSetAtLevel implements he.SetEncrypter via the inner backend (one
// EncryptAtLevel after another when the capability is absent), drawing one
// encryption fault per vector of the set, as that many EncryptAtLevel
// calls would, before any of it is encrypted.
func (c *Backend) EncryptSetAtLevel(set [][]uint64, level int) ([]he.Ciphertext, error) {
	for range set {
		if err := c.inject(OpEncrypt); err != nil {
			return nil, err
		}
	}
	return he.EncryptSetAtLevel(c.inner, set, level)
}

// EncodePlainAtLevel implements he.LevelEncrypter via the inner backend.
func (c *Backend) EncodePlainAtLevel(vals []uint64, level int) (he.Plain, error) {
	if err := c.inject(OpEncode); err != nil {
		return nil, err
	}
	return c.inner.EncodePlainAtLevel(vals, level)
}

// EnsureRotationKeys implements he.RotationKeyer via the inner backend,
// fault-free: key generation is staging, not an evaluation op.
func (c *Backend) EnsureRotationKeys(rots []he.Rotation) error {
	return he.EnsureRotationKeys(c.inner, rots)
}

// NoiseBudget implements he.NoiseMeter via the inner backend.
func (c *Backend) NoiseBudget(ct he.Ciphertext) (int, error) {
	return c.inner.NoiseBudget(ct)
}

// StageFactorsAtLevel implements he.FactorSummer via the inner backend
// (its operand form when the capability is absent), drawing the fault of
// every encryption or encoding it makes, as that many single stagings
// would, before any of the set is staged.
func (c *Backend) StageFactorsAtLevel(set [][]uint64, encrypt bool, level int) ([]he.Operand, error) {
	op := OpEncode
	if encrypt {
		op = OpEncrypt
	}
	for range set {
		if err := c.inject(op); err != nil {
			return nil, err
		}
	}
	return he.StageFactorsAtLevel(c.inner, set, encrypt, level)
}

// MulDiagSum implements he.FactorSummer via the inner backend (its
// MulLazy and Add chain when the capability is absent), drawing one
// product fault for the whole sum.
func (c *Backend) MulDiagSum(terms []he.Term) (he.Operand, error) {
	if err := c.inject(OpMul); err != nil {
		return he.Operand{}, err
	}
	return he.MulDiagSum(c.inner, terms)
}

// RotateLazy implements he.FactorSummer via the inner backend (its Rotate
// when the capability is absent).
func (c *Backend) RotateLazy(a he.Ciphertext, k int) (he.Ciphertext, error) {
	if err := c.inject(OpRotate); err != nil {
		return nil, err
	}
	out, err := he.RotateLazy(c.inner, he.Cipher(a), k)
	return out.Ct, err
}
