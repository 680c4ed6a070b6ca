package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"copse/internal/he"
)

// opKind groups he.Backend operations the way the per-layer table
// reports them.
type opKind int

const (
	opMul      opKind = iota // Mul, MulLazy
	opMulPlain               // MulPlain
	opRotate                 // Rotate, RotateHoisted (one count per step)
	opRelin                  // Relinearize
	opAdd                    // Add, Sub, Neg, AddPlain
	opDrop                   // DropToLevel calls that switched the modulus
	opEncrypt
	opDecrypt
	opEncode
	numOpKinds
)

var opNames = [numOpKinds]string{"mul", "mulplain", "rotate", "relin", "add", "drop", "encrypt", "decrypt", "encode"}

// timedBackend is the traced run's he layer boundary: it wraps a
// Service's backend, times every operation, and records an he.<op> span
// under whichever span the harness has set as current. It has the shape
// of chaos.WrapBackend — every optional capability is forwarded, so the
// wrapped backend keeps its scheduled-level fast paths and the engine
// picks the same executor.
type timedBackend struct {
	inner   he.Backend
	leveler he.LevelDropper // inner's level capability, nil when absent
	rec     *recorder

	// parent and request locate the call in progress; the harness sets
	// them around each public call it makes.
	parent, request atomic.Int64

	count, busyNS [numOpKinds]atomic.Int64
	hoisted       atomic.Int64 // rotations that went through RotateHoisted
}

var _ he.Backend = (*timedBackend)(nil)

func wrapTimed(b he.Backend, rec *recorder) *timedBackend {
	t := &timedBackend{inner: b, rec: rec}
	t.leveler, _ = b.(he.LevelDropper)
	return t
}

// under sets the span and request that following operations belong to.
func (t *timedBackend) under(parent, request int) {
	t.parent.Store(int64(parent))
	t.request.Store(int64(request))
}

func (t *timedBackend) reset() {
	for k := range t.count {
		t.count[k].Store(0)
		t.busyNS[k].Store(0)
	}
	t.hoisted.Store(0)
}

// observe books n operations of kind k that ran from start until now.
func (t *timedBackend) observe(k opKind, n int, start time.Time) {
	end := time.Now()
	t.count[k].Add(int64(n))
	t.busyNS[k].Add(end.Sub(start).Nanoseconds())
	t.rec.add("he."+opNames[k], int(t.parent.Load()), int(t.request.Load()), start, end)
}

func (t *timedBackend) Name() string         { return t.inner.Name() }
func (t *timedBackend) Slots() int           { return t.inner.Slots() }
func (t *timedBackend) PlainModulus() uint64 { return t.inner.PlainModulus() }
func (t *timedBackend) Counts() he.OpCounts  { return t.inner.Counts() }
func (t *timedBackend) ResetCounts()         { t.inner.ResetCounts() }

func (t *timedBackend) Encrypt(vals []uint64) (he.Ciphertext, error) {
	defer t.observe(opEncrypt, 1, time.Now())
	return t.inner.Encrypt(vals)
}

func (t *timedBackend) Decrypt(ct he.Ciphertext) ([]uint64, error) {
	defer t.observe(opDecrypt, 1, time.Now())
	return t.inner.Decrypt(ct)
}

func (t *timedBackend) EncodePlain(vals []uint64) (he.Plain, error) {
	defer t.observe(opEncode, 1, time.Now())
	return t.inner.EncodePlain(vals)
}

func (t *timedBackend) Add(a, b he.Ciphertext) (he.Ciphertext, error) {
	defer t.observe(opAdd, 1, time.Now())
	return t.inner.Add(a, b)
}

func (t *timedBackend) Sub(a, b he.Ciphertext) (he.Ciphertext, error) {
	defer t.observe(opAdd, 1, time.Now())
	return t.inner.Sub(a, b)
}

func (t *timedBackend) Neg(a he.Ciphertext) (he.Ciphertext, error) {
	defer t.observe(opAdd, 1, time.Now())
	return t.inner.Neg(a)
}

func (t *timedBackend) AddPlain(a he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	defer t.observe(opAdd, 1, time.Now())
	return t.inner.AddPlain(a, p)
}

func (t *timedBackend) MulPlain(a he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	defer t.observe(opMulPlain, 1, time.Now())
	return t.inner.MulPlain(a, p)
}

func (t *timedBackend) Mul(a, b he.Ciphertext) (he.Ciphertext, error) {
	defer t.observe(opMul, 1, time.Now())
	return t.inner.Mul(a, b)
}

func (t *timedBackend) MulLazy(a, b he.Ciphertext) (he.Ciphertext, error) {
	defer t.observe(opMul, 1, time.Now())
	return t.inner.MulLazy(a, b)
}

func (t *timedBackend) Relinearize(a he.Ciphertext) (he.Ciphertext, error) {
	defer t.observe(opRelin, 1, time.Now())
	return t.inner.Relinearize(a)
}

func (t *timedBackend) Rotate(a he.Ciphertext, k int) (he.Ciphertext, error) {
	defer t.observe(opRotate, 1, time.Now())
	return t.inner.Rotate(a, k)
}

func (t *timedBackend) RotateHoisted(a he.Ciphertext, steps []int) ([]he.Ciphertext, error) {
	t.hoisted.Add(int64(len(steps)))
	defer t.observe(opRotate, len(steps), time.Now())
	return t.inner.RotateHoisted(a, steps)
}

// DropToLevel implements he.LevelDropper; only calls that returned a
// different ciphertext (the modulus was switched) are counted.
func (t *timedBackend) DropToLevel(ct he.Ciphertext, level int) (he.Ciphertext, error) {
	if t.leveler == nil {
		return ct, nil
	}
	start := time.Now()
	out, err := t.leveler.DropToLevel(ct, level)
	if out != ct {
		t.observe(opDrop, 1, start)
	}
	return out, err
}

func (t *timedBackend) CiphertextLevel(ct he.Ciphertext) (int, error) {
	if t.leveler == nil {
		return 0, fmt.Errorf("bench: backend %q has no level structure", t.inner.Name())
	}
	return t.leveler.CiphertextLevel(ct)
}

func (t *timedBackend) MaxLevel() int {
	if t.leveler == nil {
		return 0
	}
	return t.leveler.MaxLevel()
}

// EncryptAtLevel implements he.LevelEncrypter via the inner backend.
func (t *timedBackend) EncryptAtLevel(vals []uint64, level int) (he.Ciphertext, error) {
	defer t.observe(opEncrypt, 1, time.Now())
	return he.EncryptAtLevel(t.inner, vals, level)
}

// EncodePlainAtLevel implements he.LevelEncrypter via the inner backend.
func (t *timedBackend) EncodePlainAtLevel(vals []uint64, level int) (he.Plain, error) {
	defer t.observe(opEncode, 1, time.Now())
	if le, ok := t.inner.(he.LevelEncrypter); ok && level >= 0 {
		return le.EncodePlainAtLevel(vals, level)
	}
	return t.inner.EncodePlain(vals)
}

// HintStageLimbs implements he.StageLimbHinter.
func (t *timedBackend) HintStageLimbs(limbs int) { he.HintStageLimbs(t.inner, limbs) }

// NoiseBudget implements he.NoiseMeter via the inner backend.
func (t *timedBackend) NoiseBudget(ct he.Ciphertext) (int, error) {
	if nm, ok := t.inner.(he.NoiseMeter); ok {
		return nm.NoiseBudget(ct)
	}
	return 0, fmt.Errorf("bench: backend %q cannot measure noise", t.inner.Name())
}

// Close forwards to the inner backend: the Service built over this
// decorator owns it, as WithExternalBackend documents.
func (t *timedBackend) Close() error {
	if c, ok := t.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
