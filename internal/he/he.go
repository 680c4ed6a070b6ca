// Package he defines the homomorphic-evaluation interface that the COPSE
// runtime targets, together with an operand algebra that lets the same
// algorithm code run over any mix of encrypted and plaintext data (the
// party configurations of the paper's §7). Implementations live in
// he/heclear (exact, noise-free reference) and he/hebgv (the BGV scheme).
package he

import (
	"fmt"
	"sync/atomic"
)

// Ciphertext is an opaque packed ciphertext: a vector of Slots() values
// in Z_t on which the backend evaluates element-wise operations. Depth
// reports the ciphertext-ciphertext multiplicative depth accumulated so
// far (the paper's complexity metric, Table 1/2).
type Ciphertext interface {
	Depth() int
}

// Releaser is an optional Ciphertext capability: a ciphertext whose
// memory its backend pools gives it back with Release. Only the owner of
// a ciphertext releases it — the executor at a register's last read, a
// serving layer at the end of the request it made the ciphertext for —
// and after the call it must not be read again. Decorators pass
// ciphertext values through unchanged, so a release reaches the backend
// whatever wraps it. Backends without pooled memory do not implement it.
type Releaser interface {
	Release()
}

// Release returns ct's memory to its backend's pool where the backend
// pools it (Releaser), and does nothing otherwise: on a nil ciphertext,
// or one of a backend without pooled memory.
func Release(ct Ciphertext) {
	if r, ok := ct.(Releaser); ok {
		r.Release()
	}
}

// Plain is an opaque encoded plaintext vector. Pre-encoding lets
// backends cache expensive embeddings (the staging compiler encodes every
// plaintext model component exactly once).
type Plain interface{}

// Backend evaluates element-wise arithmetic over packed vectors mod the
// plaintext modulus. All operations are functional (inputs are never
// mutated) and safe for concurrent use: this is a contract, not a
// convention — the serving layer issues Classify traffic against one
// shared Backend from many goroutines. The one exception to "inputs are
// never mutated" is a ciphertext its owner has released (Release): its
// memory may already hold another result, so it must not be passed to
// any operation again. Implementations must keep
// per-call scratch out of shared state (pool it or stack it) and guard
// any caches; both shipped backends are exercised under -race by the
// concurrent-classify stress tests.
type Backend interface {
	// Name identifies the backend ("clear", "bgv").
	Name() string
	// Slots is the packing width.
	Slots() int
	// PlainModulus is t; bits are encoded as {0,1} ⊂ Z_t.
	PlainModulus() uint64

	// Encrypt packs and encrypts up to Slots() values.
	Encrypt(vals []uint64) (Ciphertext, error)
	// Decrypt recovers all Slots() values. It fails on backends
	// constructed without the secret key.
	Decrypt(ct Ciphertext) ([]uint64, error)
	// EncodePlain prepares a plaintext vector for repeated use.
	EncodePlain(vals []uint64) (Plain, error)

	Add(a, b Ciphertext) (Ciphertext, error)
	Sub(a, b Ciphertext) (Ciphertext, error)
	Neg(a Ciphertext) (Ciphertext, error)
	AddPlain(a Ciphertext, p Plain) (Ciphertext, error)
	MulPlain(a Ciphertext, p Plain) (Ciphertext, error)
	Mul(a, b Ciphertext) (Ciphertext, error)
	// MulLazy multiplies without finalizing the result: backends with an
	// expensive relinearization step may return an expanded ciphertext
	// that still supports Add/Sub, letting a sum of products be
	// accumulated first and Relinearize'd once. Rotate does not accept
	// lazy results.
	MulLazy(a, b Ciphertext) (Ciphertext, error)
	// Relinearize finalizes a (sum of) MulLazy result(s); finalized
	// ciphertexts pass through unchanged.
	Relinearize(a Ciphertext) (Ciphertext, error)
	// Rotate rotates slots left by k: out[i] = in[(i+k) mod Slots()].
	Rotate(a Ciphertext, k int) (Ciphertext, error)
	// RotateHoisted rotates a by every step in steps at once, letting the
	// backend amortize per-ciphertext work (e.g. the key-switch digit
	// decomposition) across the whole batch. The result slice is parallel
	// to steps. Backends without hoisting fall back to a Rotate loop.
	RotateHoisted(a Ciphertext, steps []int) ([]Ciphertext, error)

	// Counts returns a snapshot of the operation counters.
	Counts() OpCounts
	// ResetCounts zeroes the counters.
	ResetCounts()
}

// LevelDropper is an optional Backend capability implemented by leveled
// schemes (BGV's RNS modulus chain): every operation's cost scales with
// the number of active limbs, so a caller that knows a ciphertext's
// remaining circuit can proactively switch it down to a fraction of the
// chain. The COPSE engine uses this to execute each pipeline stage at
// the level a compile-time plan assigned it (Meta.LevelPlan). Backends
// without a level structure simply do not implement the interface; the
// package helpers treat that as a no-op.
type LevelDropper interface {
	// DropToLevel returns ct switched down to the given level. A
	// ciphertext already at or below the level passes through unchanged;
	// the input is never mutated.
	DropToLevel(ct Ciphertext, level int) (Ciphertext, error)
	// CiphertextLevel reports ct's current level (active limbs − 1).
	CiphertextLevel(ct Ciphertext) (int, error)
	// MaxLevel is the top level of the backend's modulus chain.
	MaxLevel() int
}

// LevelEncrypter is an optional Backend capability for producing
// operands directly at a scheduled level: encrypting below the top of
// the chain skips the modulus switches a post-hoc drop would pay, and
// pre-lifting a plaintext at its consumption level moves the embedding
// cost from the serving hot path to model-load time.
type LevelEncrypter interface {
	// EncryptAtLevel packs and encrypts vals at the given level (clamped
	// to the chain top).
	EncryptAtLevel(vals []uint64, level int) (Ciphertext, error)
	// EncodePlainAtLevel encodes vals and eagerly lifts the encoding at
	// the given level (and the level below, where operands aligned by one
	// modulus switch land), so serving-time uses are cache hits.
	EncodePlainAtLevel(vals []uint64, level int) (Plain, error)
}

// Rotation is one rotation a staged program issues: a slot step, and
// the chain level of the ciphertext it rotates (a level past the chain
// top means the top).
type Rotation struct{ Step, Level int }

// RotationKeyer is an optional Backend capability of schemes whose
// rotations need per-step keys (BGV's Galois keys) and that hold the
// secret key to make them: staging hands it every rotation the model's op
// programs issue (core.Prepare). Decorators that stage without
// making keys do not implement it.
type RotationKeyer interface {
	// EnsureRotationKeys makes every rotation in rots servable by a
	// direct key: a missing key is generated, one below a needed level
	// regenerated at it. Operations already running keep the key set
	// they started with.
	EnsureRotationKeys(rots []Rotation) error
}

// EnsureRotationKeys hands rots to b where b makes rotation keys
// (RotationKeyer), and does nothing otherwise.
func EnsureRotationKeys(b Backend, rots []Rotation) error {
	if rk, ok := b.(RotationKeyer); ok {
		return rk.EnsureRotationKeys(rots)
	}
	return nil
}

// StageLimbHinter was the capability through which the executor told
// the ring layer's limb worker pool each stage's limb count.
//
// Deprecated: the pool is gone (DESIGN.md §9) and no backend implements
// this; the name is kept only because bench/hetimer.go, which a change
// that claims a gain may not edit, compiles against it.
type StageLimbHinter interface {
	HintStageLimbs(limbs int)
}

// HintStageLimbs does nothing.
//
// Deprecated: see StageLimbHinter.
func HintStageLimbs(Backend, int) {}

// NoiseMeter is an optional Backend capability for reading the measured
// decrypt-side noise budget of a ciphertext (requires the secret key).
// The BGV backend implements it; the exact clear backend has no noise
// and does not. Measurement is a diagnostic, not an evaluation op: it
// records the per-stage noise margins (Trace.Noise) that ground the
// planner's slack, and the benchmark's core.result_noise_bits.
type NoiseMeter interface {
	// NoiseBudget reports the remaining noise budget of ct in bits.
	NoiseBudget(ct Ciphertext) (int, error)
}

// NoiseBudgetOf measures a ciphertext operand's remaining noise budget
// in bits; plaintext operands and backends without measurement (or
// without the secret key) report -1.
func NoiseBudgetOf(b Backend, op Operand) int {
	if !op.IsCipher() {
		return -1
	}
	nm, ok := b.(NoiseMeter)
	if !ok {
		return -1
	}
	bits, err := nm.NoiseBudget(op.Ct)
	if err != nil {
		return -1
	}
	return bits
}

// DropToLevel switches a ciphertext operand down to the given level on
// backends with a modulus chain. Plaintext operands, negative levels and
// non-leveled backends pass through unchanged.
func DropToLevel(b Backend, op Operand, level int) (Operand, error) {
	if level < 0 || !op.IsCipher() {
		return op, nil
	}
	ld, ok := b.(LevelDropper)
	if !ok {
		return op, nil
	}
	ct, err := ld.DropToLevel(op.Ct, level)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Ct: ct}, nil
}

// OperandLimbs reports the active limb count (level + 1) of a ciphertext
// operand on a leveled backend, and 0 for plaintext operands or backends
// without a level structure.
func OperandLimbs(b Backend, op Operand) int {
	if !op.IsCipher() {
		return 0
	}
	ld, ok := b.(LevelDropper)
	if !ok {
		return 0
	}
	level, err := ld.CiphertextLevel(op.Ct)
	if err != nil {
		return 0
	}
	return level + 1
}

// EncryptAtLevel encrypts vals directly at the given level where the
// backend supports leveled encryption; otherwise (or with a negative
// level) it falls back to a top-level Encrypt.
func EncryptAtLevel(b Backend, vals []uint64, level int) (Ciphertext, error) {
	if le, ok := b.(LevelEncrypter); ok && level >= 0 {
		return le.EncryptAtLevel(vals, level)
	}
	return b.Encrypt(vals)
}

// NewPlainAtLevel encodes vals (padding to Slots with zeros) as a
// plaintext operand pre-lifted at the given level where the backend
// supports it; otherwise it is NewPlain.
func NewPlainAtLevel(b Backend, vals []uint64, level int) (Operand, error) {
	le, ok := b.(LevelEncrypter)
	if !ok || level < 0 {
		return NewPlain(b, vals)
	}
	padded := make([]uint64, b.Slots())
	copy(padded, vals)
	pt, err := le.EncodePlainAtLevel(padded, level)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Pt: pt, Vals: padded}, nil
}

// OpCounts tallies primitive FHE operations in the categories of the
// paper's Table 1: Encrypt, Rotate, Add (ciphertext-ciphertext additions,
// including subtractions and negations), ConstAdd (plaintext additions),
// Mul (ciphertext-ciphertext multiplications — the only depth-consuming
// op) and ConstMul (plaintext multiplications, an artifact of encoding
// GF(2) in Z_t; see DESIGN.md §3).
type OpCounts struct {
	Encrypt  int64
	Rotate   int64
	Add      int64
	ConstAdd int64
	Mul      int64
	ConstMul int64
	MaxDepth int64
	// RotateHoisted is the subset of Rotate performed through hoisted
	// key switching (shared digit decomposition); it measures how much of
	// the rotation bill was amortized, not an additional op category.
	RotateHoisted int64
	// Relin counts explicit relinearizations of lazily accumulated
	// products. Plain Mul relinearizes internally and does not count
	// here; Relin/Mul therefore measures how much of the
	// relinearization bill lazy accumulation saved.
	Relin int64
	// LimbOps is the limb·op integral on leveled backends: every counted
	// ciphertext operation contributes its result's active RNS limb
	// count. Two runs with identical op counts can differ hugely in this
	// column — it is the gauge for level scheduling (DESIGN.md §8).
	// Backends without a level structure contribute zero.
	LimbOps int64
	// Aligns counts the implicit level alignments a leveled backend
	// performed: binary ciphertext operations (Add, Sub, Mul, MulLazy)
	// handed operands at different levels, one of which it had to
	// modulus-switch itself. A pass under a level plan performs none —
	// every level move is a DropToLevel op of its program (DESIGN.md
	// §8.2) — so a non-zero count there is work the schedule cannot see.
	Aligns int64
}

// Plus returns c + o field-wise (MaxDepth takes the larger); useful
// for aggregating the op bills of multi-pass classifications.
func (c OpCounts) Plus(o OpCounts) OpCounts {
	return OpCounts{
		Encrypt:       c.Encrypt + o.Encrypt,
		Rotate:        c.Rotate + o.Rotate,
		Add:           c.Add + o.Add,
		ConstAdd:      c.ConstAdd + o.ConstAdd,
		Mul:           c.Mul + o.Mul,
		ConstMul:      c.ConstMul + o.ConstMul,
		MaxDepth:      max(c.MaxDepth, o.MaxDepth),
		RotateHoisted: c.RotateHoisted + o.RotateHoisted,
		Relin:         c.Relin + o.Relin,
		LimbOps:       c.LimbOps + o.LimbOps,
		Aligns:        c.Aligns + o.Aligns,
	}
}

// Minus returns c - o field-wise (MaxDepth keeps c's value); useful for
// measuring a single phase.
func (c OpCounts) Minus(o OpCounts) OpCounts {
	return OpCounts{
		Encrypt:       c.Encrypt - o.Encrypt,
		Rotate:        c.Rotate - o.Rotate,
		Add:           c.Add - o.Add,
		ConstAdd:      c.ConstAdd - o.ConstAdd,
		Mul:           c.Mul - o.Mul,
		ConstMul:      c.ConstMul - o.ConstMul,
		MaxDepth:      c.MaxDepth,
		RotateHoisted: c.RotateHoisted - o.RotateHoisted,
		Relin:         c.Relin - o.Relin,
		LimbOps:       c.LimbOps - o.LimbOps,
		Aligns:        c.Aligns - o.Aligns,
	}
}

func (c OpCounts) String() string {
	return fmt.Sprintf("enc=%d rot=%d(hoisted=%d) add=%d cadd=%d mul=%d(relin=%d) cmul=%d depth=%d limbops=%d aligns=%d",
		c.Encrypt, c.Rotate, c.RotateHoisted, c.Add, c.ConstAdd, c.Mul, c.Relin, c.ConstMul, c.MaxDepth, c.LimbOps, c.Aligns)
}

// CountingBackend wraps a Backend with its own operation counter, so a
// single logical task (one classification pass) can be metered even
// while other goroutines drive the same inner backend — the inner
// backend's global counters see everything, the wrapper sees only the
// operations issued through it. Counts mirrors the inner backends'
// accounting, with one approximation: RotateHoisted attributes every
// non-zero step to the hoisted path (the BGV backend checks per-step
// key availability, which the wrapper cannot see).
type CountingBackend struct {
	Counter
	inner   Backend
	leveler LevelDropper // inner's level capability, nil when absent
}

// WithCounts wraps b with a fresh per-wrapper counter.
func WithCounts(b Backend) *CountingBackend {
	c := &CountingBackend{inner: b}
	c.leveler, _ = b.(LevelDropper)
	return c
}

// NoiseBudget implements NoiseMeter via the inner backend (an error when
// the inner backend cannot measure). Measurement is free of charge in
// the op counters.
func (c *CountingBackend) NoiseBudget(ct Ciphertext) (int, error) {
	nm, ok := c.inner.(NoiseMeter)
	if !ok {
		return 0, fmt.Errorf("he: backend %q cannot measure noise", c.inner.Name())
	}
	return nm.NoiseBudget(ct)
}

// noteAlign counts the implicit alignment a leveled inner backend
// performs for a binary op whose operands sit at different levels.
func (c *CountingBackend) noteAlign(a, b Ciphertext) {
	if c.leveler == nil {
		return
	}
	la, errA := c.leveler.CiphertextLevel(a)
	lb, errB := c.leveler.CiphertextLevel(b)
	if errA == nil && errB == nil && la != lb {
		c.CountAlign()
	}
}

// limbs reports ct's active limb count on leveled inner backends, 0
// elsewhere — the per-op contribution to OpCounts.LimbOps.
func (c *CountingBackend) limbs(ct Ciphertext) int {
	if c.leveler == nil || ct == nil {
		return 0
	}
	level, err := c.leveler.CiphertextLevel(ct)
	if err != nil {
		return 0
	}
	return level + 1
}

// DropToLevel implements LevelDropper by delegating to the inner
// backend; it passes ciphertexts through unchanged when the inner
// backend has no level structure. Drops are bookkeeping, not metered
// ops, so nothing is counted.
func (c *CountingBackend) DropToLevel(ct Ciphertext, level int) (Ciphertext, error) {
	if c.leveler == nil {
		return ct, nil
	}
	return c.leveler.DropToLevel(ct, level)
}

// CiphertextLevel implements LevelDropper via the inner backend.
func (c *CountingBackend) CiphertextLevel(ct Ciphertext) (int, error) {
	if c.leveler == nil {
		return 0, fmt.Errorf("he: backend %q has no level structure", c.inner.Name())
	}
	return c.leveler.CiphertextLevel(ct)
}

// MaxLevel implements LevelDropper via the inner backend (0 when the
// inner backend has no level structure).
func (c *CountingBackend) MaxLevel() int {
	if c.leveler == nil {
		return 0
	}
	return c.leveler.MaxLevel()
}

// EncryptAtLevel implements LevelEncrypter by delegating to the inner
// backend, falling back to a top-level Encrypt when the inner backend
// has no leveled encryption — so staging through a counting wrapper
// keeps the scheduled-level fast path.
func (c *CountingBackend) EncryptAtLevel(vals []uint64, level int) (Ciphertext, error) {
	le, ok := c.inner.(LevelEncrypter)
	if !ok || level < 0 {
		return c.Encrypt(vals)
	}
	ct, err := le.EncryptAtLevel(vals, level)
	if err == nil {
		c.CountEncrypt()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// EncodePlainAtLevel implements LevelEncrypter via the inner backend
// (plain EncodePlain when the capability is absent).
func (c *CountingBackend) EncodePlainAtLevel(vals []uint64, level int) (Plain, error) {
	le, ok := c.inner.(LevelEncrypter)
	if !ok || level < 0 {
		return c.inner.EncodePlain(vals)
	}
	return le.EncodePlainAtLevel(vals, level)
}

// EnsureRotationKeys implements RotationKeyer via the inner backend (a
// no-op when the inner backend makes no rotation keys).
func (c *CountingBackend) EnsureRotationKeys(rots []Rotation) error {
	return EnsureRotationKeys(c.inner, rots)
}

// Name implements Backend.
func (c *CountingBackend) Name() string { return c.inner.Name() }

// Slots implements Backend.
func (c *CountingBackend) Slots() int { return c.inner.Slots() }

// PlainModulus implements Backend.
func (c *CountingBackend) PlainModulus() uint64 { return c.inner.PlainModulus() }

// Encrypt implements Backend.
func (c *CountingBackend) Encrypt(vals []uint64) (Ciphertext, error) {
	ct, err := c.inner.Encrypt(vals)
	if err == nil {
		c.CountEncrypt()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// Decrypt implements Backend.
func (c *CountingBackend) Decrypt(ct Ciphertext) ([]uint64, error) { return c.inner.Decrypt(ct) }

// EncodePlain implements Backend.
func (c *CountingBackend) EncodePlain(vals []uint64) (Plain, error) {
	return c.inner.EncodePlain(vals)
}

// Add implements Backend.
func (c *CountingBackend) Add(a, b Ciphertext) (Ciphertext, error) {
	ct, err := c.inner.Add(a, b)
	if err == nil {
		c.noteAlign(a, b)
		c.CountAdd()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// Sub implements Backend.
func (c *CountingBackend) Sub(a, b Ciphertext) (Ciphertext, error) {
	ct, err := c.inner.Sub(a, b)
	if err == nil {
		c.noteAlign(a, b)
		c.CountAdd()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// Neg implements Backend.
func (c *CountingBackend) Neg(a Ciphertext) (Ciphertext, error) {
	ct, err := c.inner.Neg(a)
	if err == nil {
		c.CountAdd()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// AddPlain implements Backend.
func (c *CountingBackend) AddPlain(a Ciphertext, p Plain) (Ciphertext, error) {
	ct, err := c.inner.AddPlain(a, p)
	if err == nil {
		c.CountConstAdd()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// MulPlain implements Backend.
func (c *CountingBackend) MulPlain(a Ciphertext, p Plain) (Ciphertext, error) {
	ct, err := c.inner.MulPlain(a, p)
	if err == nil {
		c.CountConstMul()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// Mul implements Backend.
func (c *CountingBackend) Mul(a, b Ciphertext) (Ciphertext, error) {
	ct, err := c.inner.Mul(a, b)
	if err == nil {
		c.noteAlign(a, b)
		c.CountMul()
		c.CountLimbs(c.limbs(ct))
		c.NoteDepth(ct.Depth())
	}
	return ct, err
}

// MulLazy implements Backend.
func (c *CountingBackend) MulLazy(a, b Ciphertext) (Ciphertext, error) {
	ct, err := c.inner.MulLazy(a, b)
	if err == nil {
		c.noteAlign(a, b)
		c.CountMul()
		c.CountLimbs(c.limbs(ct))
		c.NoteDepth(ct.Depth())
	}
	return ct, err
}

// Relinearize implements Backend. Pass-through results (already degree
// 1, or backends without relinearization) are not counted, matching the
// inner backends.
func (c *CountingBackend) Relinearize(a Ciphertext) (Ciphertext, error) {
	ct, err := c.inner.Relinearize(a)
	if err == nil && ct != a {
		c.CountRelin()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// Rotate implements Backend.
func (c *CountingBackend) Rotate(a Ciphertext, k int) (Ciphertext, error) {
	ct, err := c.inner.Rotate(a, k)
	if err == nil {
		c.CountRotate()
		c.CountLimbs(c.limbs(ct))
	}
	return ct, err
}

// RotateHoisted implements Backend.
func (c *CountingBackend) RotateHoisted(a Ciphertext, steps []int) ([]Ciphertext, error) {
	cts, err := c.inner.RotateHoisted(a, steps)
	if err == nil {
		slots := c.inner.Slots()
		n, limbSum := 0, 0
		for i, s := range steps {
			if ((s%slots)+slots)%slots != 0 {
				n++
				limbSum += c.limbs(cts[i])
			}
		}
		c.CountRotateHoisted(n)
		c.CountLimbs(limbSum)
	}
	return cts, err
}

// Counter is an embeddable atomic operation counter for backends.
type Counter struct {
	encrypt, rotate, add, constAdd, mul, constMul atomic.Int64
	maxDepth, rotateHoisted, relin, limbOps       atomic.Int64
	aligns                                        atomic.Int64
}

// CountEncrypt records one encryption.
func (c *Counter) CountEncrypt() { c.encrypt.Add(1) }

// CountRotate records one rotation.
func (c *Counter) CountRotate() { c.rotate.Add(1) }

// CountRotateHoisted records n rotations performed through hoisted key
// switching. They count toward the Rotate total and are additionally
// tracked in RotateHoisted.
func (c *Counter) CountRotateHoisted(n int) {
	c.rotate.Add(int64(n))
	c.rotateHoisted.Add(int64(n))
}

// CountAdd records one ciphertext addition.
func (c *Counter) CountAdd() { c.add.Add(1) }

// CountConstAdd records one plaintext addition.
func (c *Counter) CountConstAdd() { c.constAdd.Add(1) }

// CountMul records one ciphertext multiplication.
func (c *Counter) CountMul() { c.mul.Add(1) }

// CountRelin records one explicit relinearization.
func (c *Counter) CountRelin() { c.relin.Add(1) }

// CountConstMul records one plaintext multiplication.
func (c *Counter) CountConstMul() { c.constMul.Add(1) }

// CountLimbs adds n to the limb·op integral (the active-limb count of
// the ciphertext an operation just produced; see OpCounts.LimbOps).
func (c *Counter) CountLimbs(n int) {
	if n > 0 {
		c.limbOps.Add(int64(n))
	}
}

// CountAlign records one implicit level alignment (OpCounts.Aligns).
func (c *Counter) CountAlign() { c.aligns.Add(1) }

// NoteDepth records an observed multiplicative depth.
func (c *Counter) NoteDepth(d int) {
	for {
		cur := c.maxDepth.Load()
		if int64(d) <= cur || c.maxDepth.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Counts snapshots the counters.
func (c *Counter) Counts() OpCounts {
	return OpCounts{
		Encrypt:       c.encrypt.Load(),
		Rotate:        c.rotate.Load(),
		Add:           c.add.Load(),
		ConstAdd:      c.constAdd.Load(),
		Mul:           c.mul.Load(),
		ConstMul:      c.constMul.Load(),
		MaxDepth:      c.maxDepth.Load(),
		RotateHoisted: c.rotateHoisted.Load(),
		Relin:         c.relin.Load(),
		LimbOps:       c.limbOps.Load(),
		Aligns:        c.aligns.Load(),
	}
}

// ResetCounts zeroes all counters.
func (c *Counter) ResetCounts() {
	c.encrypt.Store(0)
	c.rotate.Store(0)
	c.add.Store(0)
	c.constAdd.Store(0)
	c.mul.Store(0)
	c.constMul.Store(0)
	c.maxDepth.Store(0)
	c.rotateHoisted.Store(0)
	c.relin.Store(0)
	c.limbOps.Store(0)
	c.aligns.Store(0)
}
