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
//
// Every backend has a level structure and a noise meter: a backend
// without a modulus chain is the level-0 instance (MaxLevel 0, drops the
// identity, leveled encryption and encoding the plain ones) and one
// without noise refuses NoiseBudget.
type Backend interface {
	LevelDropper
	LevelEncrypter
	NoiseMeter

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
	// accumulated first and Relinearize'd once. A lazy result is an
	// operand of Add, Sub and Relinearize only: Rotate, Mul and MulPlain
	// take finalized ciphertexts.
	MulLazy(a, b Ciphertext) (Ciphertext, error)
	// Relinearize finalizes a (sum of) MulLazy result(s), or a sum of lazy
	// rotations (FactorSummer.RotateLazy); finalized ciphertexts pass
	// through unchanged.
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

// LevelDropper is the Backend's level structure (BGV's RNS modulus
// chain): every operation's cost scales with the number of active limbs,
// so a caller that knows a ciphertext's remaining circuit can
// proactively switch it down to a fraction of the chain. The COPSE
// engine uses this to execute each pipeline stage at the level a
// compile-time plan assigned it (Meta.LevelPlan). A backend without a
// chain is level 0 throughout, and its drops are the identity.
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

// LevelEncrypter is the Backend's way of producing operands directly at
// a scheduled level: encrypting below the top of the chain skips the
// modulus switches a post-hoc drop would pay, and pre-lifting a plaintext
// at its consumption level moves the embedding cost from the serving hot
// path to model-load time. Without a chain both are Encrypt and
// EncodePlain.
type LevelEncrypter interface {
	// EncryptAtLevel packs and encrypts vals at the given level (clamped
	// to the chain top).
	EncryptAtLevel(vals []uint64, level int) (Ciphertext, error)
	// EncodePlainAtLevel encodes vals and eagerly lifts the encoding at
	// the given level, the one the program consumes it at, so
	// serving-time uses are cache hits.
	EncodePlainAtLevel(vals []uint64, level int) (Plain, error)
}

// SetEncrypter is an optional Backend capability for encrypting a set of
// vectors at one level in one call — a query's bit planes — which the
// backend may spread across cores. The ciphertexts come back in the
// set's order, and a seeded backend makes the same ones whatever the
// core count.
type SetEncrypter interface {
	EncryptSetAtLevel(set [][]uint64, level int) ([]Ciphertext, error)
}

// Term is one product of a diagonal sum: a staged factor (a mat-vec
// diagonal, StageFactorsAtLevel) and the operand it multiplies.
type Term struct{ Factor, X Operand }

// FactorSummer is an optional Backend capability for the sums of a
// mat-vec: its inner sums Σ_k d_k ⊗ x_k over diagonals d_k staged once
// and reused by every pass, and its sum of giant rotations. A backend
// that implements it stages each diagonal as a factor, in the form its
// fused sum multiplies fastest (BGV: Montgomery form), and a factor is an
// operand of MulDiagSum only: any other operation refuses it. Its lazy
// rotation leaves the key switch unfinished (BGV: over Q·P, not yet
// divided by P), and an unfinished rotation is an operand of Add and of
// Relinearize, which finishes it, only: a sum of G rotations pays one
// finish instead of G (double hoisting). Staging and use therefore go
// through the same capability; a decorator forwards all of it or none.
type FactorSummer interface {
	// StageFactorsAtLevel stages every vector of set (padded to Slots
	// with zeros) as a factor at the given level, in the set's order:
	// encrypted when encrypt is set, as EncryptSetAtLevel encrypts a set,
	// else a plaintext operand that need not keep its Vals. A negative
	// level is the chain top.
	StageFactorsAtLevel(set [][]uint64, encrypt bool, level int) ([]Operand, error)
	// MulDiagSum returns Σ_k terms[k].Factor ⊗ terms[k].X as MulLazy and
	// Add would make it in term order — unrelinearized, the same bytes and
	// the same op counts: n products and n − 1 additions — in one sweep.
	// Every X is at one level; a factor may be staged above it.
	MulDiagSum(terms []Term) (Operand, error)
	// RotateLazy is Rotate with the result left unfinished, counted as
	// Rotate counts.
	RotateLazy(a Ciphertext, k int) (Ciphertext, error)
}

// StageFactorsAtLevel stages every vector of set as a mat-vec factor
// where the backend has fused diagonal sums (FactorSummer), else as the
// operands NewOperandAtLevel makes one after another, which MulDiagSum's
// fallback multiplies.
func StageFactorsAtLevel(b Backend, set [][]uint64, encrypt bool, level int) ([]Operand, error) {
	if fs, ok := b.(FactorSummer); ok {
		return fs.StageFactorsAtLevel(set, encrypt, level)
	}
	ops := make([]Operand, len(set))
	for i, vals := range set {
		var err error
		if ops[i], err = NewOperandAtLevel(b, vals, encrypt, level); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// RotateLazy rotates x left by k, leaving the rotation unfinished where the
// backend has lazy rotations (FactorSummer); elsewhere, and for a
// plaintext operand, it is Rotate.
func RotateLazy(b Backend, x Operand, k int) (Operand, error) {
	if fs, ok := b.(FactorSummer); ok && x.IsCipher() {
		ct, err := fs.RotateLazy(x.Ct, k)
		return Operand{Ct: ct}, err
	}
	return Rotate(b, x, k)
}

// Finish finishes a sum of lazy rotations (RotateLazy)
// with Relinearize where the backend has lazy rotations (FactorSummer).
// Elsewhere those rotations were finished when they were made, so x — like
// a plaintext operand — passes through without a backend call.
func Finish(b Backend, x Operand) (Operand, error) {
	if _, ok := b.(FactorSummer); !ok || !x.IsCipher() {
		return x, nil
	}
	return Relinearize(b, x)
}

// MulDiagSum returns Σ_k terms[k].Factor ⊗ terms[k].X, the factors staged
// by StageFactorsAtLevel on the same backend: in one call where the backend
// is a FactorSummer, else as the chain MulLazy, Add, MulLazy, Add, … in
// term order, each intermediate released once it is summed.
func MulDiagSum(b Backend, terms []Term) (Operand, error) {
	if fs, ok := b.(FactorSummer); ok {
		return fs.MulDiagSum(terms)
	}
	if len(terms) == 0 {
		return Operand{}, fmt.Errorf("he: a diagonal sum of no terms")
	}
	acc, err := MulLazy(b, terms[0].Factor, terms[0].X)
	for _, t := range terms[1:] {
		if err != nil {
			break
		}
		var term, sum Operand
		if term, err = MulLazy(b, t.Factor, t.X); err != nil {
			break
		}
		sum, err = Add(b, acc, term)
		Release(acc.Ct)
		Release(term.Ct)
		acc = sum
	}
	if err != nil {
		Release(acc.Ct)
		return Operand{}, err
	}
	return acc, nil
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

// NoiseMeter is the Backend's reading of the measured decrypt-side noise
// budget of a ciphertext (requires the secret key). The exact clear
// backend has no noise and refuses it. Measurement is a diagnostic, not
// an evaluation op: it records the per-stage noise margins (Trace.Noise)
// that ground the planner's slack, and the benchmark's
// core.result_noise_bits.
type NoiseMeter interface {
	// NoiseBudget reports the remaining noise budget of ct in bits.
	NoiseBudget(ct Ciphertext) (int, error)
}

// NoiseBudgetOf measures a ciphertext operand's remaining noise budget
// in bits; plaintext operands and backends without noise (or without the
// secret key) report -1.
func NoiseBudgetOf(b Backend, op Operand) int {
	if !op.IsCipher() {
		return -1
	}
	bits, err := b.NoiseBudget(op.Ct)
	if err != nil {
		return -1
	}
	return bits
}

// DropToLevel switches a ciphertext operand down to the given level.
// Plaintext operands and negative levels pass through unchanged.
func DropToLevel(b Backend, op Operand, level int) (Operand, error) {
	if level < 0 || !op.IsCipher() {
		return op, nil
	}
	ct, err := b.DropToLevel(op.Ct, level)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Ct: ct}, nil
}

// OperandLimbs reports the active limb count (level + 1) of a ciphertext
// operand on a backend with a modulus chain, and 0 for plaintext operands
// or a backend without one.
func OperandLimbs(b Backend, op Operand) int {
	if !op.IsCipher() || b.MaxLevel() == 0 {
		return 0
	}
	level, err := b.CiphertextLevel(op.Ct)
	if err != nil {
		return 0
	}
	return level + 1
}

// EncryptAtLevel encrypts vals directly at the given level; a negative
// level is a top-level Encrypt.
func EncryptAtLevel(b Backend, vals []uint64, level int) (Ciphertext, error) {
	if level < 0 {
		return b.Encrypt(vals)
	}
	return b.EncryptAtLevel(vals, level)
}

// EncryptSetAtLevel encrypts every vector of set at the given level: in
// one call where the backend is a SetEncrypter, else one EncryptAtLevel
// after another. On an error no ciphertext of the set is returned.
func EncryptSetAtLevel(b Backend, set [][]uint64, level int) ([]Ciphertext, error) {
	if se, ok := b.(SetEncrypter); ok && level >= 0 {
		return se.EncryptSetAtLevel(set, level)
	}
	cts := make([]Ciphertext, len(set))
	for i, vals := range set {
		ct, err := EncryptAtLevel(b, vals, level)
		if err != nil {
			for _, done := range cts[:i] {
				Release(done)
			}
			return nil, err
		}
		cts[i] = ct
	}
	return cts, nil
}

// NewPlainAtLevel encodes vals (padding to Slots with zeros) as a
// plaintext operand pre-lifted at the given level; a negative level is
// NewPlain.
func NewPlainAtLevel(b Backend, vals []uint64, level int) (Operand, error) {
	if level < 0 {
		return NewPlain(b, vals)
	}
	padded := make([]uint64, b.Slots())
	copy(padded, vals)
	pt, err := b.EncodePlainAtLevel(padded, level)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Pt: pt, Vals: padded}, nil
}

// NewOperandAtLevel stages vals at the given level: encrypted
// (EncryptAtLevel) when encrypt is set, else a plaintext operand
// (NewPlainAtLevel).
func NewOperandAtLevel(b Backend, vals []uint64, encrypt bool, level int) (Operand, error) {
	if encrypt {
		ct, err := EncryptAtLevel(b, vals, level)
		if err != nil {
			return Operand{}, err
		}
		return Cipher(ct), nil
	}
	return NewPlainAtLevel(b, vals, level)
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
	}
}

func (c OpCounts) String() string {
	return fmt.Sprintf("enc=%d rot=%d(hoisted=%d) add=%d cadd=%d mul=%d(relin=%d) cmul=%d depth=%d limbops=%d",
		c.Encrypt, c.Rotate, c.RotateHoisted, c.Add, c.ConstAdd, c.Mul, c.Relin, c.ConstMul, c.MaxDepth, c.LimbOps)
}

// Counter is an embeddable atomic operation counter for backends.
type Counter struct {
	encrypt, rotate, add, constAdd, mul, constMul atomic.Int64
	maxDepth, rotateHoisted, relin, limbOps       atomic.Int64
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
}
