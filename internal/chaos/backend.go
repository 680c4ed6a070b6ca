package chaos

import (
	"fmt"
	"time"

	"copse/internal/he"
)

// Backend wraps an he.Backend with fault injection: every operation
// first draws from the schedule and applies the resulting latency,
// panic, or error before (or instead of) delegating. Capability
// interfaces (LevelDropper, LevelEncrypter, NoiseMeter, RotationKeyer)
// are forwarded so a wrapped leveled backend keeps its scheduled-level
// fast paths and its staging makes the keys its programs rotate by;
// Counts/ResetCounts delegate to the inner backend so op accounting
// stays truthful.
type Backend struct {
	inner   he.Backend
	sched   *Schedule
	leveler he.LevelDropper // inner's level capability, nil when absent
}

var _ he.Backend = (*Backend)(nil)

// WrapBackend wraps b so its operations draw faults from sched.
func WrapBackend(b he.Backend, sched *Schedule) *Backend {
	c := &Backend{inner: b, sched: sched}
	c.leveler, _ = b.(he.LevelDropper)
	return c
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

// DropToLevel implements he.LevelDropper via the inner backend
// (pass-through when the inner backend has no level structure). Drops
// are bookkeeping, not serving ops, so no fault is drawn.
func (c *Backend) DropToLevel(ct he.Ciphertext, level int) (he.Ciphertext, error) {
	if c.leveler == nil {
		return ct, nil
	}
	return c.leveler.DropToLevel(ct, level)
}

// CiphertextLevel implements he.LevelDropper via the inner backend.
func (c *Backend) CiphertextLevel(ct he.Ciphertext) (int, error) {
	if c.leveler == nil {
		return 0, nil
	}
	return c.leveler.CiphertextLevel(ct)
}

// MaxLevel implements he.LevelDropper via the inner backend.
func (c *Backend) MaxLevel() int {
	if c.leveler == nil {
		return 0
	}
	return c.leveler.MaxLevel()
}

// EncryptAtLevel implements he.LevelEncrypter via the inner backend,
// falling back to Encrypt when the capability is absent.
func (c *Backend) EncryptAtLevel(vals []uint64, level int) (he.Ciphertext, error) {
	if err := c.inject(OpEncrypt); err != nil {
		return nil, err
	}
	return he.EncryptAtLevel(c.inner, vals, level)
}

// EncodePlainAtLevel implements he.LevelEncrypter via the inner backend
// (plain EncodePlain when the capability is absent).
func (c *Backend) EncodePlainAtLevel(vals []uint64, level int) (he.Plain, error) {
	if err := c.inject(OpEncode); err != nil {
		return nil, err
	}
	if le, ok := c.inner.(he.LevelEncrypter); ok && level >= 0 {
		return le.EncodePlainAtLevel(vals, level)
	}
	return c.inner.EncodePlain(vals)
}

// EnsureRotationKeys implements he.RotationKeyer via the inner backend,
// fault-free: key generation is staging, not an evaluation op.
func (c *Backend) EnsureRotationKeys(rots []he.Rotation) error {
	return he.EnsureRotationKeys(c.inner, rots)
}

// NoiseBudget implements he.NoiseMeter via the inner backend.
func (c *Backend) NoiseBudget(ct he.Ciphertext) (int, error) {
	if nm, ok := c.inner.(he.NoiseMeter); ok {
		return nm.NoiseBudget(ct)
	}
	return 0, fmt.Errorf("chaos: backend %q cannot measure noise", c.inner.Name())
}
