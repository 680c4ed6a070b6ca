package bgv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"copse/internal/ring"
)

// Plaintext holds an encoded message: a polynomial with coefficients in
// [0, T). Its lift into the ciphertext ring is cached, since plaintext
// model components (matrix diagonals, masks) are reused across many
// homomorphic operations. The cache is one lift: row i depends only on
// prime i, so a lift at level L serves every level up to L as it is (the
// ring kernels loop over their output's rows), and only a read above L
// lifts again. Serving-time reads are a single atomic load, and PreLift
// lets model staging lift at the scheduled level up front so no query
// ever pays the embedding (SetLift + NTT) inline.
type Plaintext struct {
	Coeffs []uint64 // length N, values < T

	cached atomic.Pointer[ring.Poly] // NTT-domain lift, serving its level and below
}

// NewPlaintext wraps encoded coefficients.
func NewPlaintext(coeffs []uint64) *Plaintext {
	return &Plaintext{Coeffs: coeffs}
}

// Lift returns the cached NTT-domain embedding of the plaintext, at the
// given level or above it; a read above the cached lift's level lifts
// again at that level and swaps the new lift in. Concurrent first lifts
// may compute the embedding twice; one copy wins the swap and the other
// is dropped.
func (pt *Plaintext) Lift(ctx *ring.Context, level int) *ring.Poly {
	for {
		old := pt.cached.Load()
		if old != nil && old.Level() >= level {
			return old
		}
		p := pt.embed(ctx, level)
		if pt.cached.CompareAndSwap(old, p) {
			return p
		}
	}
}

// embed returns a fresh NTT-domain embedding of the plaintext at the
// given level. Every coefficient is below T, and T below every prime of
// the chain: each residue row is the coefficients themselves.
func (pt *Plaintext) embed(ctx *ring.Context, level int) *ring.Poly {
	p := ctx.NewPoly(level)
	for i := 0; i <= level; i++ {
		copy(p.Coeffs[i], pt.Coeffs)
	}
	ctx.NTT(p)
	return p
}

// MontgomeryLift returns a fresh NTT-domain embedding of the plaintext at
// the given level in Montgomery form (ring.Context.MontgomeryForm), the
// form ring.Context.DotMontgomeryAdd takes its fixed operands in. It is
// made in place and not cached: a staged factor holds it instead of a
// lift, and it serves every level up to its own.
func (pt *Plaintext) MontgomeryLift(ctx *ring.Context, level int) *ring.Poly {
	p := pt.embed(ctx, level)
	ctx.MontgomeryForm(p, p)
	return p
}

// publishAt installs v at a level index of a lock-free copy-on-write
// table unless another goroutine won the race, returning the canonical
// entry either way. It is the switching-key view cache.
func publishAt[T any](tab *atomic.Pointer[[]*T], level int, v *T) *T {
	for {
		old := tab.Load()
		var next []*T
		if old != nil {
			if level < len(*old) && (*old)[level] != nil {
				return (*old)[level]
			}
			next = make([]*T, max(len(*old), level+1))
			copy(next, *old)
		} else {
			next = make([]*T, level+1)
		}
		next[level] = v
		if tab.CompareAndSwap(old, &next) {
			return v
		}
	}
}

// PreLift lifts the plaintext at the given level (clamped to the chain
// top; a negative level is ignored) — model staging calls this so the
// scheduled consumption level of a diagonal, mask or threshold is a cache
// hit from the first query on.
func (pt *Plaintext) PreLift(ctx *ring.Context, level int) {
	if level >= 0 {
		pt.Lift(ctx, min(level, ctx.MaxLevel()))
	}
}

// Ciphertext is a BGV ciphertext of degree len(C)-1 in the secret key,
// stored in NTT domain. It carries no noise estimate: a level plan fixes
// the level of every ciphertext before it exists, and decryption measures
// the noise it decrypts through (Decryptor.Decrypt).
//
// An unfinished ciphertext is a rotation whose key switch was left over
// Q_ℓ·P (Evaluator.RotateLazy), or a sum of such: each component holds
// its ℓ+1 chain rows and then Special rows of the special primes, and
// stands for P times the ciphertext it will be once Relinearize divides P
// out. Only Add and Relinearize take one; every other op refuses it
// (ErrUnfinished).
type Ciphertext struct {
	C       []*ring.Poly
	Special int // special-prime rows past the chain rows; 0 when finished
}

// Level returns the ciphertext level: its chain primes less one.
func (ct *Ciphertext) Level() int { return ct.C[0].Level() - ct.Special }

// Unfinished reports whether ct still carries a key switch over Q_ℓ·P.
func (ct *Ciphertext) Unfinished() bool { return ct.Special > 0 }

// Degree returns the degree of the ciphertext in s (1 for fresh
// ciphertexts, 2 after an unrelinearized multiplication).
func (ct *Ciphertext) Degree() int { return len(ct.C) - 1 }

// Copy returns a deep copy.
func (ct *Ciphertext) Copy() *Ciphertext {
	out := &Ciphertext{Special: ct.Special}
	for _, c := range ct.C {
		out.C = append(out.C, c.Copy())
	}
	return out
}

// Encryptor encrypts plaintexts: under the secret key when it was built
// with one, under the public key otherwise. The two produce ciphertexts of
// the same form that decrypt alike; the secret-key one is cheaper — one
// number-theoretic transform set where the public-key one pays three —
// and less noisy, so a party that holds the secret key (the backend that
// generated it) encrypts with it, and a party built from public material
// only (a gateway) through the public key.
//
// Safe for concurrent use. The encryptor's own stream only hands out
// seeds: each ciphertext draws one 32-byte seed from it, in order, under
// a short lock, and then samples its randomness from a ChaCha8 stream of
// its own outside the lock. A seeded encryptor therefore makes the same
// ciphertexts for the same sequence of reservations (Reserve), whichever
// goroutines encrypt them.
type Encryptor struct {
	params *Parameters
	pk     *PublicKey
	sk     *SecretKey // nil: encrypt through pk

	// Montgomery-form copies of pk.B and pk.A (public-key encryptor
	// only): u multiplies into both and adds onto the transformed errors
	// in one pass (ring.Context.DotMontgomeryAdd).
	pkB, pkA *ring.Poly

	mu    sync.Mutex
	seeds *ring.Sampler // the encryptor's stream, drawn from under mu

	samplers sync.Pool // *ring.Sampler, reseeded for every ciphertext
}

func newEncryptor(params *Parameters, pk *PublicKey, sk *SecretKey, seeds *ring.Sampler) *Encryptor {
	e := &Encryptor{params: params, pk: pk, sk: sk, seeds: seeds}
	e.samplers.New = func() any { return ring.NewSeededSampler(params.RingCtx, 0) }
	if sk == nil {
		ctx := params.RingCtx
		e.pkB, e.pkA = ctx.NewPoly(pk.B.Level()), ctx.NewPoly(pk.A.Level())
		ctx.MontgomeryForm(pk.B, e.pkB)
		ctx.MontgomeryForm(pk.A, e.pkA)
	}
	return e
}

// NewEncryptor returns a public-key encryptor seeded from system entropy.
func NewEncryptor(params *Parameters, pk *PublicKey) *Encryptor {
	return newEncryptor(params, pk, nil, ring.NewSampler(params.RingCtx))
}

// NewSeededEncryptor returns a deterministic public-key encryptor for
// tests.
func NewSeededEncryptor(params *Parameters, pk *PublicKey, seed uint64) *Encryptor {
	return newEncryptor(params, pk, nil, ring.NewSeededSampler(params.RingCtx, seed))
}

// NewSecretKeyEncryptor returns a secret-key encryptor seeded from system
// entropy.
func NewSecretKeyEncryptor(params *Parameters, sk *SecretKey) *Encryptor {
	return newEncryptor(params, nil, sk, ring.NewSampler(params.RingCtx))
}

// NewSeededSecretKeyEncryptor returns a deterministic secret-key encryptor
// for tests and reproducible experiments.
func NewSeededSecretKeyEncryptor(params *Parameters, sk *SecretKey, seed uint64) *Encryptor {
	return newEncryptor(params, nil, sk, ring.NewSeededSampler(params.RingCtx, seed))
}

// Encrypt produces a fresh encryption of pt at the top level.
func (e *Encryptor) Encrypt(pt *Plaintext) *Ciphertext {
	return e.EncryptAtLevel(pt, e.params.MaxLevel())
}

// EncryptAtLevel produces a fresh encryption directly at the given level
// (clamped to the chain top): the keys' unused top residues are simply not
// touched, which is the RLWE instance a freshly encrypted, then
// modulus-switched ciphertext would inhabit — minus the switches. Level
// scheduling uses this to land operands at their planned stage level for
// free. It is a reservation of one (Reserve).
func (e *Encryptor) EncryptAtLevel(pt *Plaintext, level int) *Ciphertext {
	return e.Reserve(1).EncryptAtLevel(0, pt, level)
}

// Reserve draws the seeds of the next n encryptions, in order, under the
// encryptor's lock.
func (e *Encryptor) Reserve(n int) *Reservation {
	seeds := make([][32]byte, n)
	e.mu.Lock()
	for i := range seeds {
		seeds[i] = e.seeds.Seed()
	}
	e.mu.Unlock()
	return &Reservation{e: e, seeds: seeds}
}

// Reservation is a set of n encryptions, each with the seed of its own
// stream drawn. Its encryptions are independent of one another and may
// run concurrently, each index once.
type Reservation struct {
	e     *Encryptor
	seeds [][32]byte
}

// EncryptAtLevel makes the i-th encryption of the reservation: pt at the
// given level (clamped to the chain top), from the i-th seed's stream.
//
// Under the secret key, (c0, c1) = (−a·s + NTT(t·e + m), a) with a drawn
// uniformly in the NTT domain. Under the public key, (c0, c1) =
// (B·u + NTT(t·e0 + m), A·u + NTT(t·e1)): the message is folded into e0
// before the transform, so u, e0 and e1 are the three transforms. Either
// way the stream is drawn in one order — a, e; or u, e0, e1.
func (r *Reservation) EncryptAtLevel(i int, pt *Plaintext, level int) *Ciphertext {
	e := r.e
	s := e.samplers.Get().(*ring.Sampler)
	s.Reseed(r.seeds[i])
	defer e.samplers.Put(s)
	level = min(max(level, 0), e.params.MaxLevel())
	if e.sk != nil {
		return e.encryptSecret(s, pt, level)
	}
	return e.encryptPublic(s, pt, level)
}

// encryptPublic is the public-key encryption from sampler s.
func (e *Encryptor) encryptPublic(s *ring.Sampler, pt *Plaintext, level int) *Ciphertext {
	ctx := e.params.RingCtx
	u := s.TernaryPoly(level)
	ctx.NTT(u)
	c0 := ctx.GetPoly(level)
	ctx.SetLift(e.scaleError(s.ErrorCoeffs(), pt.Coeffs), c0)
	ctx.NTT(c0)
	c1 := ctx.GetPoly(level)
	ctx.SetLift(e.scaleError(s.ErrorCoeffs(), nil), c1)
	ctx.NTT(c1)
	ctx.DotMontgomeryAdd([]*ring.Poly{u}, []*ring.Poly{e.pkB}, []*ring.Poly{e.pkA}, c0, c1)
	ctx.PutPoly(u)
	return &Ciphertext{C: []*ring.Poly{c0, c1}}
}

// encryptSecret is the secret-key encryption from sampler s. Its noise,
// t·e, is below a public-key encryption's, so the level planner's one
// fresh estimate bounds both.
func (e *Encryptor) encryptSecret(s *ring.Sampler, pt *Plaintext, level int) *Ciphertext {
	ctx := e.params.RingCtx
	a := s.UniformPoly(level, true)
	c0 := ctx.GetPoly(level)
	ctx.SetLift(e.scaleError(s.ErrorCoeffs(), pt.Coeffs), c0)
	ctx.NTT(c0)
	as := ctx.GetPoly(level)
	ctx.MulCoeffs(a, e.sk.S, as)
	ctx.Sub(c0, as, c0)
	ctx.PutPoly(as)
	return &Ciphertext{C: []*ring.Poly{c0, a}}
}

// scaleError overwrites the error coefficients em with t·e + m (m nil:
// t·e). The sum stays small, so the lift of the result is exact.
func (e *Encryptor) scaleError(em []int64, m []uint64) []int64 {
	t := int64(e.params.T)
	for j := range em {
		em[j] *= t
	}
	for j, v := range m {
		em[j] += int64(v)
	}
	return em
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor returns a decryptor for sk.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// phase computes c0 + c1·s (+ c2·s²) in coefficient domain at the
// ciphertext's level, on a polynomial from the ring pool the caller
// returns.
func (d *Decryptor) phase(ct *Ciphertext) *ring.Poly {
	ctx := d.params.RingCtx
	level := ct.Level()
	s := restrict(d.sk.S, level)
	acc := ctx.CopyPooled(ct.C[0])
	sPow := ctx.CopyPooled(s)
	tmp := ctx.GetPoly(level)
	for i := 1; i < len(ct.C); i++ {
		ctx.MulCoeffs(ct.C[i], sPow, tmp)
		ctx.Add(acc, tmp, acc)
		if i+1 < len(ct.C) {
			ctx.MulCoeffs(sPow, s, sPow)
		}
	}
	ctx.PutPolys([]*ring.Poly{sPow, tmp})
	ctx.INTT(acc)
	return acc
}

// Decrypt recovers the plaintext coefficients of ct. The reconstruction
// measures the phase it centers, and a phase with no budget left — its
// largest coefficient within a bit of Q/2, where |t·e + m| wraps and the
// coefficients mod t are garbage — is refused with a *NoiseOverflowError
// instead of decoded: the measurement is exact where a noise estimate
// would be a guess.
func (d *Decryptor) Decrypt(ct *Ciphertext) (*Plaintext, error) {
	if err := finished(ct); err != nil {
		return nil, err
	}
	phi := d.phase(ct)
	defer d.params.RingCtx.PutPoly(phi)
	coeffs, bits := d.params.RingCtx.ToCenteredMod(phi, d.params.T)
	if budget := d.params.QBits(ct.Level()) - bits - 1; budget <= 0 {
		return nil, &NoiseOverflowError{Level: ct.Level(), Budget: budget}
	}
	return NewPlaintext(coeffs), nil
}

// NoiseBudget returns the remaining noise budget of ct in bits: the
// number of modulus bits left before |t·e + m| reaches Q/2 and decryption
// fails. Negative budgets mean the ciphertext is already undecryptable.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) int {
	phi := d.phase(ct)
	defer d.params.RingCtx.PutPoly(phi)
	noiseBits := d.params.RingCtx.MaxCenteredBits(phi)
	return d.params.QBits(ct.Level()) - noiseBits - 1
}

func bitsOf(x uint64) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

// ErrUnfinished refuses an unfinished ciphertext (Ciphertext.Unfinished)
// passed to an op that reads it as a ciphertext over Q_ℓ: its rows stand
// for P times the value, and the special rows are not chain rows.
var ErrUnfinished = fmt.Errorf("bgv: an unfinished key switch is an operand of Add and Relinearize only")

// finished refuses any unfinished ciphertext among cts.
func finished(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct.Unfinished() {
			return ErrUnfinished
		}
	}
	return nil
}

// errNotEnoughLevels is returned when an operation would need a level
// below zero.
var errNotEnoughLevels = fmt.Errorf("bgv: modulus chain exhausted (increase Params.Levels)")

// LevelMismatchError is the refusal of a binary ciphertext op whose
// operands sit at different levels, A and B. The evaluator switches no
// operand down on its own: a level plan places every move as an op, so a
// mismatch is a program the plan did not level.
type LevelMismatchError struct {
	A, B int
}

func (e *LevelMismatchError) Error() string {
	return fmt.Sprintf("bgv: operands at levels %d and %d (a binary op needs both at one level)", e.A, e.B)
}

// NoiseOverflowError is Decrypt's refusal of a ciphertext whose measured
// noise has reached the modulus at its level: Budget bits (≤ 0) were left,
// so the decoded slots would be wrong.
type NoiseOverflowError struct {
	Level, Budget int
}

func (e *NoiseOverflowError) Error() string {
	return fmt.Sprintf("bgv: decryption at level %d measured a noise budget of %d bits: the noise overflowed the modulus", e.Level, e.Budget)
}

// MissingKeyError is the refusal of a rotation by Step of a ciphertext at
// Level that no Galois key serves directly: the key for its element sits
// at KeyLevel, below the ciphertext, or there is none (KeyLevel −1).
// Staging generates a key for every rotation a program makes, at the
// highest level it makes it, so a missing key is a rotation no staged
// program asked for.
type MissingKeyError struct {
	Step, Level, KeyLevel int
}

func (e *MissingKeyError) Error() string {
	if e.KeyLevel < 0 {
		return fmt.Sprintf("bgv: no Galois key for rotation step %d (needed at level %d)", e.Step, e.Level)
	}
	return fmt.Sprintf("bgv: the Galois key for rotation step %d sits at level %d, below the rotation at level %d", e.Step, e.KeyLevel, e.Level)
}
