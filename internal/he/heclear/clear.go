// Package heclear implements the he.Backend interface with exact,
// noise-free arithmetic over plaintext vectors. It has identical
// semantics to the BGV backend (same slot count, same modulus, same
// rotation convention) and is used as the reference implementation for
// property tests, for leakage-model tests, and for algorithmic scaling
// studies where FHE constant factors would only add noise.
package heclear

import (
	"fmt"

	"copse/internal/he"
)

// Backend is a noise-free he.Backend without a modulus chain: the
// level-0 instance of the level structure.
type Backend struct {
	he.Counter
	slots int
	t     uint64
}

// New returns a clear backend with the given slot count and plaintext
// modulus.
func New(slots int, t uint64) *Backend {
	return &Backend{slots: slots, t: t}
}

// Default returns a clear backend matching the BGV test geometry:
// 1024 slots, t = 65537.
func Default() *Backend { return New(1024, 65537) }

type ciphertext struct {
	vals  []uint64
	depth int
}

func (c *ciphertext) Depth() int { return c.depth }

type plain struct {
	vals []uint64
}

// Name implements he.Backend.
func (b *Backend) Name() string { return "clear" }

// Slots implements he.Backend.
func (b *Backend) Slots() int { return b.slots }

// PlainModulus implements he.Backend.
func (b *Backend) PlainModulus() uint64 { return b.t }

func (b *Backend) pad(vals []uint64) ([]uint64, error) {
	if len(vals) > b.slots {
		return nil, fmt.Errorf("heclear: %d values exceed %d slots", len(vals), b.slots)
	}
	out := make([]uint64, b.slots)
	for i, v := range vals {
		if v >= b.t {
			return nil, fmt.Errorf("heclear: value %d at slot %d exceeds modulus %d", v, i, b.t)
		}
		out[i] = v
	}
	return out, nil
}

// Encrypt implements he.Backend.
func (b *Backend) Encrypt(vals []uint64) (he.Ciphertext, error) {
	v, err := b.pad(vals)
	if err != nil {
		return nil, err
	}
	b.CountEncrypt()
	return &ciphertext{vals: v}, nil
}

// Decrypt implements he.Backend.
func (b *Backend) Decrypt(ct he.Ciphertext) ([]uint64, error) {
	c, err := b.cast(ct)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, b.slots)
	copy(out, c.vals)
	return out, nil
}

// EncodePlain implements he.Backend.
func (b *Backend) EncodePlain(vals []uint64) (he.Plain, error) {
	v, err := b.pad(vals)
	if err != nil {
		return nil, err
	}
	return &plain{vals: v}, nil
}

func (b *Backend) cast(ct he.Ciphertext) (*ciphertext, error) {
	c, ok := ct.(*ciphertext)
	if !ok {
		return nil, fmt.Errorf("heclear: foreign ciphertext %T", ct)
	}
	return c, nil
}

func (b *Backend) castPlain(p he.Plain) (*plain, error) {
	pp, ok := p.(*plain)
	if !ok {
		return nil, fmt.Errorf("heclear: foreign plaintext %T", p)
	}
	return pp, nil
}

func (b *Backend) zipCt(a, c he.Ciphertext, f func(x, y uint64) uint64, depthBump int) (he.Ciphertext, error) {
	ca, err := b.cast(a)
	if err != nil {
		return nil, err
	}
	cc, err := b.cast(c)
	if err != nil {
		return nil, err
	}
	out := &ciphertext{vals: make([]uint64, b.slots), depth: max(ca.depth, cc.depth) + depthBump}
	for i := range out.vals {
		out.vals[i] = f(ca.vals[i], cc.vals[i])
	}
	b.NoteDepth(out.depth)
	return out, nil
}

// Add implements he.Backend.
func (b *Backend) Add(x, y he.Ciphertext) (he.Ciphertext, error) {
	b.CountAdd()
	return b.zipCt(x, y, func(a, c uint64) uint64 { return (a + c) % b.t }, 0)
}

// Sub implements he.Backend.
func (b *Backend) Sub(x, y he.Ciphertext) (he.Ciphertext, error) {
	b.CountAdd()
	return b.zipCt(x, y, func(a, c uint64) uint64 { return (a + b.t - c) % b.t }, 0)
}

// Neg implements he.Backend.
func (b *Backend) Neg(x he.Ciphertext) (he.Ciphertext, error) {
	c, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	b.CountAdd()
	out := &ciphertext{vals: make([]uint64, b.slots), depth: c.depth}
	for i, v := range c.vals {
		out.vals[i] = (b.t - v) % b.t
	}
	return out, nil
}

// Mul implements he.Backend.
func (b *Backend) Mul(x, y he.Ciphertext) (he.Ciphertext, error) {
	b.CountMul()
	return b.zipCt(x, y, func(a, c uint64) uint64 { return a * c % b.t }, 1)
}

// MulLazy implements he.Backend: the clear backend has no
// relinearization, so it is a plain Mul.
func (b *Backend) MulLazy(x, y he.Ciphertext) (he.Ciphertext, error) {
	return b.Mul(x, y)
}

// Relinearize implements he.Backend as the identity.
func (b *Backend) Relinearize(x he.Ciphertext) (he.Ciphertext, error) {
	if _, err := b.cast(x); err != nil {
		return nil, err
	}
	return x, nil
}

// AddPlain implements he.Backend.
func (b *Backend) AddPlain(x he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	c, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	pp, err := b.castPlain(p)
	if err != nil {
		return nil, err
	}
	b.CountConstAdd()
	out := &ciphertext{vals: make([]uint64, b.slots), depth: c.depth}
	for i := range out.vals {
		out.vals[i] = (c.vals[i] + pp.vals[i]) % b.t
	}
	return out, nil
}

// MulPlain implements he.Backend.
func (b *Backend) MulPlain(x he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	c, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	pp, err := b.castPlain(p)
	if err != nil {
		return nil, err
	}
	b.CountConstMul()
	out := &ciphertext{vals: make([]uint64, b.slots), depth: c.depth}
	for i := range out.vals {
		out.vals[i] = c.vals[i] * pp.vals[i] % b.t
	}
	return out, nil
}

// RotateHoisted implements he.Backend. The clear backend has no shared
// work to hoist; it counts as the BGV backend does, every non-zero step
// one hoisted rotation and the step-0 copies nothing.
func (b *Backend) RotateHoisted(x he.Ciphertext, steps []int) ([]he.Ciphertext, error) {
	c, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	outs := make([]he.Ciphertext, len(steps))
	rotated := 0
	for i, k := range steps {
		outs[i] = b.rotate(c, k)
		if k%b.slots != 0 {
			rotated++
		}
	}
	b.CountRotateHoisted(rotated)
	return outs, nil
}

// Rotate implements he.Backend.
func (b *Backend) Rotate(x he.Ciphertext, k int) (he.Ciphertext, error) {
	c, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	b.CountRotate()
	return b.rotate(c, k), nil
}

// rotate rotates c's slots left by k.
func (b *Backend) rotate(c *ciphertext, k int) *ciphertext {
	out := &ciphertext{vals: make([]uint64, b.slots), depth: c.depth}
	for i := range out.vals {
		out.vals[i] = c.vals[(i+k%b.slots+b.slots)%b.slots]
	}
	return out
}

// MaxLevel implements he.LevelDropper: the clear backend has no modulus
// chain, so it is the level-0 instance.
func (b *Backend) MaxLevel() int { return 0 }

// CiphertextLevel implements he.LevelDropper: every ciphertext is at
// level 0.
func (b *Backend) CiphertextLevel(he.Ciphertext) (int, error) { return 0, nil }

// DropToLevel implements he.LevelDropper as the identity.
func (b *Backend) DropToLevel(ct he.Ciphertext, _ int) (he.Ciphertext, error) { return ct, nil }

// EncryptAtLevel implements he.LevelEncrypter as Encrypt.
func (b *Backend) EncryptAtLevel(vals []uint64, _ int) (he.Ciphertext, error) {
	return b.Encrypt(vals)
}

// EncodePlainAtLevel implements he.LevelEncrypter as EncodePlain.
func (b *Backend) EncodePlainAtLevel(vals []uint64, _ int) (he.Plain, error) {
	return b.EncodePlain(vals)
}

// NoiseBudget implements he.NoiseMeter: exact arithmetic has no noise to
// measure, so it is refused.
func (b *Backend) NoiseBudget(he.Ciphertext) (int, error) {
	return 0, fmt.Errorf("heclear: exact arithmetic has no noise to measure")
}
