// Package hebgv adapts the BGV scheme (internal/bgv) to the he.Backend
// interface used by the COPSE runtime. It plays the role HElib plays in
// the paper: packed ciphertexts, Galois rotations and modulus switching.
// Unlike HElib it makes no noise decision of its own: every level move is
// a DropToLevel the caller's level plan placed, a binary op on operands at
// different levels is refused (*bgv.LevelMismatchError), and decryption
// refuses a ciphertext whose measured noise overflowed
// (*bgv.NoiseOverflowError).
package hebgv

import (
	"fmt"
	"sync"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/ring"
)

// Backend is the BGV-backed he.Backend. It honours the he.Backend
// concurrency contract: the evaluator holds only read-only key
// material, per-operation scratch and every result's polynomials come
// from the ring context's row pool (never from evaluator fields), and a
// released ciphertext (he.Release) gives its rows back; a plaintext's
// lift cache is one atomically swapped lift (made up front by
// level-scheduled staging, see EncodePlainAtLevel), and the encryptor
// takes only a short lock to hand each ciphertext the seed of its own
// sampling stream (bgv.Encryptor.Reserve). Concurrent Classify traffic
// over one shared Backend is the serving layer's normal mode (verified
// under -race by TestServiceConcurrentClassifyBGV and TestEncryptConcurrent).
type Backend struct {
	he.Counter

	params    *bgv.Parameters
	encoder   *bgv.Encoder
	encryptor *bgv.Encryptor
	evaluator *bgv.Evaluator // holds the current evaluation keys
	decryptor *bgv.Decryptor // nil when constructed without the secret key
	sk        *bgv.SecretKey // nil when constructed without the secret key
	pk        *bgv.PublicKey

	// keygen makes the Galois keys staging asks for (EnsureRotationKeys);
	// nil without the secret key. It owns a sampler, so keyMu serializes
	// its use.
	keygen *bgv.KeyGenerator
	keyMu  sync.Mutex
}

// Config controls backend construction.
type Config struct {
	// Params is the BGV parameter set.
	Params bgv.Params
	// Seed, when non-zero, makes key generation and encryption
	// deterministic (tests and reproducible experiments only).
	Seed uint64
}

// New generates the secret key, the public key and the relinearization
// key, in that order, and returns a backend holding both the public and
// secret material (the two-party configurations of the paper share one
// key pair between model and data owner). It makes no Galois keys:
// staging a model asks for the ones its op programs rotate by, at the
// levels they rotate at (EnsureRotationKeys).
func New(cfg Config) (*Backend, error) {
	params, err := bgv.NewParameters(cfg.Params)
	if err != nil {
		return nil, err
	}
	kg := newKeyGenerator(params, cfg.Seed)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := &bgv.EvaluationKeys{Relin: kg.GenRelinKey(sk)}
	encoder, err := bgv.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	return &Backend{
		params:    params,
		encoder:   encoder,
		encryptor: newEncryptor(params, pk, sk, cfg.Seed),
		evaluator: bgv.NewEvaluator(params, keys),
		decryptor: bgv.NewDecryptor(params, sk),
		sk:        sk,
		pk:        pk,
		keygen:    kg,
	}, nil
}

// newKeyGenerator returns a key generator seeded from seed when it is
// non-zero, from the system entropy source otherwise.
func newKeyGenerator(params *bgv.Parameters, seed uint64) *bgv.KeyGenerator {
	if seed != 0 {
		return bgv.NewSeededKeyGenerator(params, seed)
	}
	return bgv.NewKeyGenerator(params)
}

// EnsureRotationKeys implements he.RotationKeyer: every rotation gets a
// direct Galois key at or above its level (clamped to the chain), and a
// key this backend lacks is generated — in the order the rotations name
// it, so seeded runs repeat. The grown key set is published whole
// (bgv.Evaluator.SetKeys): passes already running keep the set they
// loaded. Without the secret key only rotations already covered pass;
// the first other one is refused with its *bgv.MissingKeyError.
func (b *Backend) EnsureRotationKeys(rots []he.Rotation) error {
	b.keyMu.Lock()
	defer b.keyMu.Unlock()
	var missing []bgv.Rotation
	for _, r := range rots {
		if r.Step%b.params.Slots() == 0 {
			continue
		}
		level := min(max(r.Level, 0), b.params.MaxLevel())
		if _, _, err := b.evaluator.GaloisKey(r.Step, level); err != nil {
			if b.keygen == nil {
				return err
			}
			missing = append(missing, bgv.Rotation{Step: r.Step, Level: level})
		}
	}
	if len(missing) > 0 {
		b.evaluator.SetKeys(b.keygen.WithGaloisKeys(b.sk, b.evaluator.Keys(), missing))
	}
	return nil
}

// newEncryptor returns the backend's encryptor: under the secret key when
// the backend holds it, through the public key otherwise (a backend built
// from public material); seeded from seed+1 when seed is non-zero.
func newEncryptor(params *bgv.Parameters, pk *bgv.PublicKey, sk *bgv.SecretKey, seed uint64) *bgv.Encryptor {
	switch {
	case sk != nil && seed != 0:
		return bgv.NewSeededSecretKeyEncryptor(params, sk, seed+1)
	case sk != nil:
		return bgv.NewSecretKeyEncryptor(params, sk)
	case seed != 0:
		return bgv.NewSeededEncryptor(params, pk, seed+1)
	}
	return bgv.NewEncryptor(params, pk)
}

// KeyMaterial reports the in-memory evaluation-key bytes (relin plus
// Galois keys: two polynomials per digit, in Montgomery form, with no
// companion tables) and the bytes the same key set would occupy with
// every key generated at the chain top — the before/after gauge for the
// Galois-key level budget.
func (b *Backend) KeyMaterial() (actual, topLevel int64) {
	keys := b.evaluator.Keys()
	if keys == nil {
		return 0, 0
	}
	return keys.MaterialBytes(), keys.TopLevelBytes(b.params)
}

type ciphertext struct {
	ct    *bgv.Ciphertext
	depth int
	ring  *ring.Context // the pool ct's polynomials go back to
}

func (c *ciphertext) Depth() int { return c.depth }

// Release implements he.Releaser: ct's polynomials go back to the ring
// pool. A second release of the same ciphertext does nothing; any other
// use after the first fails.
func (c *ciphertext) Release() {
	if c.ct != nil {
		c.ring.PutPolys(c.ct.C)
		c.ct = nil
	}
}

// wrap makes an evaluator result an he.Ciphertext of depth d.
func (b *Backend) wrap(ct *bgv.Ciphertext, d int) *ciphertext {
	return &ciphertext{ct: ct, depth: d, ring: b.params.RingCtx}
}

// Level exposes the BGV level for diagnostics.
func (c *ciphertext) Level() int { return c.ct.Level() }

// Name implements he.Backend.
func (b *Backend) Name() string { return "bgv" }

// Slots implements he.Backend.
func (b *Backend) Slots() int { return b.params.Slots() }

// PlainModulus implements he.Backend.
func (b *Backend) PlainModulus() uint64 { return b.params.T }

// Parameters exposes the underlying BGV parameters.
func (b *Backend) Parameters() *bgv.Parameters { return b.params }

// MaxLevel implements he.LevelDropper: the top of the modulus chain.
func (b *Backend) MaxLevel() int { return b.params.MaxLevel() }

// CiphertextLevel implements he.LevelDropper.
func (b *Backend) CiphertextLevel(ct he.Ciphertext) (int, error) {
	c, err := b.castLazy(ct)
	if err != nil {
		return 0, err
	}
	return c.ct.Level(), nil
}

// DropToLevel implements he.LevelDropper: it returns ct modulus-switched
// down to the given level (already-lower ciphertexts pass through
// unchanged), so a pipeline stage whose noise budget needs only a
// fraction of the chain can run every subsequent NTT and key switch over
// that fraction. Only the surviving limbs are ever written.
func (b *Backend) DropToLevel(ct he.Ciphertext, level int) (he.Ciphertext, error) {
	c, err := b.cast(ct)
	if err != nil {
		return nil, err
	}
	if level < 0 {
		level = 0
	}
	if c.ct.Level() <= level {
		return ct, nil
	}
	out, err := b.evaluator.SwitchDown(c.ct, level)
	if err != nil {
		return nil, err
	}
	return b.wrap(out, c.depth), nil
}

// EncryptAtLevel implements he.LevelEncrypter: a fresh encryption landed
// directly at the scheduled level, skipping the modulus switches a
// top-level encryption followed by a drop would pay. It is a set of one
// (EncryptSetAtLevel).
func (b *Backend) EncryptAtLevel(vals []uint64, level int) (he.Ciphertext, error) {
	cts, err := b.EncryptSetAtLevel([][]uint64{vals}, level)
	if err != nil {
		return nil, err
	}
	return cts[0], nil
}

// EncryptSetAtLevel implements he.SetEncrypter: it encodes and encrypts
// every vector of set at the given level on every core (encryptSet).
func (b *Backend) EncryptSetAtLevel(set [][]uint64, level int) ([]he.Ciphertext, error) {
	cts := make([]he.Ciphertext, len(set))
	if err := b.encryptSet(set, level, func(i int, ct *bgv.Ciphertext) { cts[i] = b.wrap(ct, 0) }); err != nil {
		for _, ct := range cts {
			he.Release(ct)
		}
		return nil, err
	}
	return cts, nil
}

// encryptSet encrypts every vector of set at level and hands the i-th
// ciphertext to keep on the task that made it (encodeEach). The set's
// seeds are reserved in order before any of it runs, so a seeded backend
// makes the same ciphertexts whatever the core count.
func (b *Backend) encryptSet(set [][]uint64, level int, keep func(i int, ct *bgv.Ciphertext)) error {
	encs := b.encryptor.Reserve(len(set))
	return b.encodeEach(set, func(i int, pt *bgv.Plaintext) {
		ct := encs.EncryptAtLevel(i, pt, level)
		b.CountEncrypt()
		b.CountLimbs(ct.Level() + 1)
		keep(i, ct)
	})
}

// encodeEach encodes every vector of set and hands the i-th plaintext to
// use, one task per vector on every core (ring.RunAll). An encoding error
// skips its vector's use; the first of the set's is returned once every
// task has run.
func (b *Backend) encodeEach(set [][]uint64, use func(i int, pt *bgv.Plaintext)) error {
	errs := make([]error, len(set))
	ring.RunAll(len(set), func(i int) {
		pt, err := b.encoder.Encode(set[i])
		if err != nil {
			errs[i] = err
			return
		}
		use(i, pt)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EncodePlainAtLevel implements he.LevelEncrypter: the encoding is
// eagerly lifted into the ciphertext ring at the scheduled level, the one
// the program consumes it at, so serving-time plaintext multiplies and
// additions are cache hits.
func (b *Backend) EncodePlainAtLevel(vals []uint64, level int) (he.Plain, error) {
	pt, err := b.encoder.Encode(vals)
	if err != nil {
		return nil, err
	}
	pt.PreLift(b.params.RingCtx, level)
	return pt, nil
}

// NoiseBudget reports the measured remaining noise budget of ct in bits.
func (b *Backend) NoiseBudget(ct he.Ciphertext) (int, error) {
	c, err := b.cast(ct)
	if err != nil {
		return 0, err
	}
	if b.decryptor == nil {
		return 0, fmt.Errorf("hebgv: no secret key")
	}
	return b.decryptor.NoiseBudget(c.ct), nil
}

// castPair casts the operands of a binary op.
func (b *Backend) castPair(x, y he.Ciphertext) (cx, cy *ciphertext, err error) {
	if cx, err = b.cast(x); err != nil {
		return nil, nil, err
	}
	if cy, err = b.cast(y); err != nil {
		return nil, nil, err
	}
	return cx, cy, nil
}

// cast is castLazy refusing an unfinished ciphertext (bgv.ErrUnfinished):
// every op but Add, Relinearize and CiphertextLevel reads a ciphertext
// over Q_ℓ alone.
func (b *Backend) cast(ct he.Ciphertext) (*ciphertext, error) {
	c, err := b.castLazy(ct)
	if err == nil && c.ct != nil && c.ct.Unfinished() {
		return nil, bgv.ErrUnfinished
	}
	return c, err
}

// castLazy casts an operand of this backend, finished or not, refusing a
// factor (errFactor) and a foreign ciphertext.
func (b *Backend) castLazy(ct he.Ciphertext) (*ciphertext, error) {
	c, ok := ct.(*ciphertext)
	if _, factor := ct.(*cipherFactor); factor {
		return nil, errFactor
	}
	if !ok {
		return nil, fmt.Errorf("hebgv: foreign ciphertext %T", ct)
	}
	return c, nil
}

func (b *Backend) castPlain(p he.Plain) (*bgv.Plaintext, error) {
	pp, ok := p.(*bgv.Plaintext)
	if _, factor := p.(*plainFactor); factor {
		return nil, errFactor
	}
	if !ok {
		return nil, fmt.Errorf("hebgv: foreign plaintext %T", p)
	}
	return pp, nil
}

// Encrypt implements he.Backend.
func (b *Backend) Encrypt(vals []uint64) (he.Ciphertext, error) {
	return b.EncryptAtLevel(vals, b.params.MaxLevel())
}

// Decrypt implements he.Backend. A ciphertext whose measured noise
// overflowed its modulus is refused with the decryptor's
// *bgv.NoiseOverflowError, not decoded into wrong slots.
func (b *Backend) Decrypt(ct he.Ciphertext) ([]uint64, error) {
	c, err := b.cast(ct)
	if err != nil {
		return nil, err
	}
	if b.decryptor == nil {
		return nil, fmt.Errorf("hebgv: no secret key")
	}
	pt, err := b.decryptor.Decrypt(c.ct)
	if err != nil {
		return nil, err
	}
	return b.encoder.Decode(pt), nil
}

// EncodePlain implements he.Backend.
func (b *Backend) EncodePlain(vals []uint64) (he.Plain, error) {
	return b.encoder.Encode(vals)
}

// Add implements he.Backend. It also sums unfinished rotations
// (RotateLazy), with each other and with finished
// ciphertexts, into an unfinished sum.
func (b *Backend) Add(x, y he.Ciphertext) (he.Ciphertext, error) {
	cx, err := b.castLazy(x)
	if err != nil {
		return nil, err
	}
	cy, err := b.castLazy(y)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.Add(cx.ct, cy.ct)
	if err != nil {
		return nil, err
	}
	b.CountAdd()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, max(cx.depth, cy.depth)), nil
}

// Sub implements he.Backend.
func (b *Backend) Sub(x, y he.Ciphertext) (he.Ciphertext, error) {
	cx, cy, err := b.castPair(x, y)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.Sub(cx.ct, cy.ct)
	if err != nil {
		return nil, err
	}
	b.CountAdd()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, max(cx.depth, cy.depth)), nil
}

// Neg implements he.Backend.
func (b *Backend) Neg(x he.Ciphertext) (he.Ciphertext, error) {
	cx, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.Neg(cx.ct)
	if err != nil {
		return nil, err
	}
	b.CountAdd()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, cx.depth), nil
}

// AddPlain implements he.Backend.
func (b *Backend) AddPlain(x he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	cx, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	pp, err := b.castPlain(p)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.AddPlain(cx.ct, pp)
	if err != nil {
		return nil, err
	}
	b.CountConstAdd()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, cx.depth), nil
}

// MulPlain implements he.Backend.
func (b *Backend) MulPlain(x he.Ciphertext, p he.Plain) (he.Ciphertext, error) {
	cx, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	pp, err := b.castPlain(p)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.MulPlain(cx.ct, pp)
	if err != nil {
		return nil, err
	}
	b.CountConstMul()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, cx.depth), nil
}

// Mul implements he.Backend.
func (b *Backend) Mul(x, y he.Ciphertext) (he.Ciphertext, error) {
	cx, cy, err := b.castPair(x, y)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.Mul(cx.ct, cy.ct)
	if err != nil {
		return nil, err
	}
	b.CountMul()
	b.CountLimbs(out.Level() + 1)
	d := max(cx.depth, cy.depth) + 1
	b.NoteDepth(d)
	return b.wrap(out, d), nil
}

// MulLazy implements he.Backend: the degree-2 tensor product, deferring
// the relinearization key switch so sums of products pay for it once.
func (b *Backend) MulLazy(x, y he.Ciphertext) (he.Ciphertext, error) {
	cx, cy, err := b.castPair(x, y)
	if err != nil {
		return nil, err
	}
	out, err := b.evaluator.MulNoRelin(cx.ct, cy.ct)
	if err != nil {
		return nil, err
	}
	b.CountMul()
	b.CountLimbs(out.Level() + 1)
	d := max(cx.depth, cy.depth) + 1
	b.NoteDepth(d)
	return b.wrap(out, d), nil
}

// Relinearize implements he.Backend. It finishes an unfinished sum of
// rotations with one division by P per component, and counts nothing: its
// rotations were counted when they were made, as the eager ones are.
func (b *Backend) Relinearize(x he.Ciphertext) (he.Ciphertext, error) {
	cx, err := b.castLazy(x)
	if err != nil {
		return nil, err
	}
	if cx.ct.Unfinished() {
		out, err := b.evaluator.Relinearize(cx.ct)
		if err != nil {
			return nil, err
		}
		return b.wrap(out, cx.depth), nil
	}
	if cx.ct.Degree() == 1 {
		return x, nil
	}
	out, err := b.evaluator.Relinearize(cx.ct)
	if err != nil {
		return nil, err
	}
	b.CountRelin()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, cx.depth), nil
}

// RotateHoisted implements he.Backend: the ciphertext's key-switch digit
// decomposition is computed once and shared across all steps.
func (b *Backend) RotateHoisted(x he.Ciphertext, steps []int) ([]he.Ciphertext, error) {
	cx, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	cts, err := b.evaluator.RotateHoisted(cx.ct, steps)
	if err != nil {
		return nil, err
	}
	// Every non-zero step is one hoisted rotation; step-0 copies rotate
	// nothing and count no limb·ops.
	slots := b.params.Slots()
	outs := make([]he.Ciphertext, len(cts))
	rotated := 0
	for i, ct := range cts {
		outs[i] = b.wrap(ct, cx.depth)
		if steps[i]%slots != 0 {
			rotated++
		}
	}
	b.CountRotateHoisted(rotated)
	b.CountLimbs(rotated * (cx.ct.Level() + 1))
	return outs, nil
}

// Rotate implements he.Backend.
func (b *Backend) Rotate(x he.Ciphertext, k int) (he.Ciphertext, error) {
	return b.rotate(x, k, b.evaluator.Rotate)
}

// RotateLazy implements he.FactorSummer: Rotate with its key switch left
// unfinished over Q_ℓ·P (bgv.Evaluator.RotateLazy), counted as Rotate
// counts.
func (b *Backend) RotateLazy(x he.Ciphertext, k int) (he.Ciphertext, error) {
	return b.rotate(x, k, b.evaluator.RotateLazy)
}

// rotate runs one rotation through rot and counts it.
func (b *Backend) rotate(x he.Ciphertext, k int, rot func(*bgv.Ciphertext, int) (*bgv.Ciphertext, error)) (he.Ciphertext, error) {
	cx, err := b.cast(x)
	if err != nil {
		return nil, err
	}
	out, err := rot(cx.ct, k)
	if err != nil {
		return nil, err
	}
	b.CountRotate()
	b.CountLimbs(out.Level() + 1)
	return b.wrap(out, cx.depth), nil
}
