package bgv

import (
	"fmt"
	"maps"
	"sync/atomic"

	"copse/internal/ring"
)

// SecretKey is a ternary RLWE secret, stored in NTT domain at the top
// level.
type SecretKey struct {
	S *ring.Poly
}

// PublicKey is an RLWE encryption of zero: B = -(A·s + t·e).
type PublicKey struct {
	B, A *ring.Poly
}

// SwitchingKey re-encrypts a "foreign" secret s' (s² for
// relinearization, s itself for a Galois key) under a secret s_out, one
// entry per hybrid key-switch digit j over the modulus Q·P:
// B[j] = -(A[j]·s_out + t·e_j) + P·g_j·s', where g_j is 1 on the chain
// primes of digit j and 0 on every other prime (ring/basisext.go). Each
// poly holds the key's level+1 chain rows followed by the special-prime
// rows. Because g_j is 0/1 per prime, a key generated at level ℓ serves
// every level ≤ ℓ by dropping rows — including levels that cut a digit
// group in two — but cannot serve levels above ℓ: it has no residues
// for those primes. Keys for rotation steps used only by the scheduled
// back half of the pipeline are therefore generated directly at their
// stage level, cutting key material (WithGaloisKeys).
//
// B and A are stored in Montgomery form, every residue w as w·2^64 mod q
// (ring.Context.MontgomeryForm): the evaluator's digit ⊙ key inner
// product (ring.Context.DotMontgomeryAdd) multiplies them as they stand
// and takes the 2^64 out in the one reduction it makes per coefficient,
// so a key needs no companion table beside it.
type SwitchingKey struct {
	B, A []*ring.Poly

	views atomic.Pointer[[]*SwitchingKey] // level-indexed truncated views
}

// Level returns the highest level this key can serve (the level it was
// generated at).
func (k *SwitchingKey) Level() int { return k.B[0].Level() - ring.DigitPrimes }

// MaterialBytes returns the in-memory size of the key's polynomials: B
// and A, two per digit.
func (k *SwitchingKey) MaterialBytes() int64 {
	var total int64
	for d := range k.B {
		total += int64(len(k.B[d].Coeffs)) * int64(len(k.B[d].Coeffs[0])) * 8 * 2
	}
	return total
}

// AtLevel returns a view of k truncated to the given level: only the
// digits that exist at that level are kept, and each retained key poly
// is restricted to the active chain primes plus the special primes. A
// key switch at a scheduled-down level therefore extends fewer digits
// and multiplies fewer limbs than the top-level key would suggest. Views
// share the full key's residue rows (no copying) and are cached per
// level; the key's own level returns k itself.
func (k *SwitchingKey) AtLevel(level int) *SwitchingKey {
	top := k.Level()
	if level >= top {
		return k
	}
	if tab := k.views.Load(); tab != nil && level < len(*tab) {
		if v := (*tab)[level]; v != nil {
			return v
		}
	}
	digits := ring.HybridDigits(level)
	v := &SwitchingKey{B: make([]*ring.Poly, digits), A: make([]*ring.Poly, digits)}
	// rows keeps chain rows 0..level and the special rows above the
	// key's own chain.
	rows := func(all [][]uint64) [][]uint64 {
		return append(append(make([][]uint64, 0, level+1+ring.DigitPrimes), all[:level+1]...), all[top+1:]...)
	}
	for d := 0; d < digits; d++ {
		v.B[d] = &ring.Poly{Coeffs: rows(k.B[d].Coeffs), IsNTT: true}
		v.A[d] = &ring.Poly{Coeffs: rows(k.A[d].Coeffs), IsNTT: true}
	}
	return publishAt(&k.views, level, v)
}

// EvaluationKeys bundles everything the evaluator (Sally) needs: the
// relinearization key and one switching key per Galois element used for
// rotations.
type EvaluationKeys struct {
	Relin  *SwitchingKey
	Galois map[uint64]*SwitchingKey
}

// MaterialBytes returns the total in-memory key material (relin + all
// Galois keys).
func (ek *EvaluationKeys) MaterialBytes() int64 {
	var total int64
	if ek.Relin != nil {
		total += ek.Relin.MaterialBytes()
	}
	for _, k := range ek.Galois {
		total += k.MaterialBytes()
	}
	return total
}

// TopLevelBytes returns the key material the same key set would occupy
// had every key been generated at the chain top — the pre-level-budget
// baseline hebgv's Backend.KeyMaterial reports next to the actual bytes.
func (ek *EvaluationKeys) TopLevelBytes(p *Parameters) int64 {
	per := p.SwitchingKeyBytes(p.MaxLevel())
	n := int64(len(ek.Galois))
	if ek.Relin != nil {
		n++
	}
	return n * per
}

// KeyGenerator produces key material. It is not safe for concurrent use.
type KeyGenerator struct {
	params  *Parameters
	sampler *ring.Sampler
}

// NewKeyGenerator returns a generator seeded from the system entropy
// source.
func NewKeyGenerator(params *Parameters) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSampler(params.RingCtx)}
}

// NewSeededKeyGenerator returns a deterministic generator for tests and
// reproducible experiments.
func NewSeededKeyGenerator(params *Parameters, seed uint64) *KeyGenerator {
	return &KeyGenerator{params: params, sampler: ring.NewSeededSampler(params.RingCtx, seed)}
}

// GenSecretKey samples a fresh ternary secret.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	ctx := kg.params.RingCtx
	s := kg.sampler.TernaryPoly(kg.params.MaxLevel())
	ctx.NTT(s)
	return &SecretKey{S: s}
}

// GenPublicKey returns a public encryption key for sk.
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	ctx := kg.params.RingCtx
	level := kg.params.MaxLevel()
	a := kg.sampler.UniformPoly(level, true)
	e := kg.sampler.ErrorPoly(level)
	ctx.MulScalar(e, kg.params.T, e)
	ctx.NTT(e)
	b := ctx.NewPoly(level)
	ctx.MulCoeffs(a, sk.S, b)
	ctx.Add(b, e, b)
	ctx.Neg(b, b)
	return &PublicKey{B: b, A: a}
}

// secretQP lifts the secret to Q_level·P (coefficient domain): the
// special-prime residues are not stored with the key, so the small
// coefficients are recovered as the centered residues modulo q_0.
func (kg *KeyGenerator) secretQP(sk *SecretKey, level int) *ring.Poly {
	ctx := kg.params.RingCtx
	q0 := ctx.Moduli[0]
	row := append([]uint64(nil), sk.S.Coeffs[0]...)
	q0.INTT(row)
	coeffs := make([]int64, len(row))
	for j, v := range row {
		if v > q0.Q/2 {
			coeffs[j] = -int64(q0.Q - v)
		} else {
			coeffs[j] = int64(v)
		}
	}
	qp := ctx.QP(level)
	s := qp.NewPoly(qp.MaxLevel())
	qp.SetLift(coeffs, s)
	return s
}

// Switching keys are made one digit per task on every core (ring.RunAll).
// A task draws its digit's uniform a and then its error coefficients
// from the generator's stream once the task before it has drawn
// (inStreamOrder), and finishes the digit beside the other tasks: the
// stream is consumed as one goroutine would consume it, so a seeded
// generator makes the same keys whatever the core count.

// keyPlan is a switching key to make: it switches target (NTT domain,
// restricted to level) to sOut (NTT domain over Q_level·P).
type keyPlan struct {
	target, sOut *ring.Poly
	level        int
}

// newKeyPlan plans the key from target to sOut, a coefficient-domain QP
// poly at level that the call transforms in place.
func (kg *KeyGenerator) newKeyPlan(target, sOut *ring.Poly, level int) keyPlan {
	kg.params.RingCtx.QP(level).NTT(sOut)
	return keyPlan{target: restrict(target, level), sOut: sOut, level: level}
}

// genSwitchingKeys makes the planned keys, in order, one digit per task.
// A goroutine holds one digit's draws at a time.
func (kg *KeyGenerator) genSwitchingKeys(plans []keyPlan) []*SwitchingKey {
	type digit struct{ key, d int }
	var digits []digit
	keys := make([]*SwitchingKey, len(plans))
	for k, p := range plans {
		n := ring.HybridDigits(p.level)
		keys[k] = &SwitchingKey{B: make([]*ring.Poly, n), A: make([]*ring.Poly, n)}
		for d := range n {
			digits = append(digits, digit{k, d})
		}
	}
	as, es := make([]*ring.Poly, len(digits)), make([][]int64, len(digits))
	inStreamOrder(len(digits), func(i int) {
		qp := kg.params.RingCtx.QP(plans[digits[i].key].level)
		s := kg.sampler.In(qp)
		as[i] = s.UniformPoly(qp.MaxLevel(), true)
		es[i] = s.ErrorCoeffs() // the scratch of s, a sampler of its own
	}, func(i int) {
		k, d := digits[i].key, digits[i].d
		keys[k].B[d], keys[k].A[d] = kg.finishDigit(plans[k], d, as[i], es[i])
		es[i] = nil
	})
	return keys
}

// inStreamOrder runs n tasks on every core: task i runs draw(i) once
// draw(i−1) has returned, then finish(i) beside the others. RunAll claims
// tasks in index order, so every task a draw waits for is running.
func inStreamOrder(n int, draw, finish func(i int)) {
	drawn := make([]chan struct{}, n)
	for i := range drawn {
		drawn[i] = make(chan struct{})
	}
	ring.RunAll(n, func(i int) {
		if i > 0 {
			<-drawn[i-1]
		}
		func() {
			defer close(drawn[i])
			draw(i)
		}()
		finish(i)
	})
}

// finishDigit makes digit d of the planned key from its draws a and e:
// B[d] = −(a·sOut + t·e) + P·g_d·target and A[d] = a, each half left in
// Montgomery form.
func (kg *KeyGenerator) finishDigit(p keyPlan, d int, a *ring.Poly, e []int64) (*ring.Poly, *ring.Poly) {
	ctx := kg.params.RingCtx
	qp := ctx.QP(p.level)
	rows := qp.MaxLevel()
	te := qp.GetPoly(rows)
	qp.SetLift(e, te)
	qp.MulScalar(te, kg.params.T, te)
	qp.NTT(te)
	b := qp.NewPoly(rows)
	qp.MulCoeffs(a, p.sOut, b)
	qp.Add(b, te, b)
	qp.Neg(b, b)
	qp.PutPoly(te)
	// b += P·g_d·target: P mod q_i on the digit's own primes, zero on
	// every other chain prime and on the special primes.
	factors := make([]uint64, p.level+1)
	for i := range factors {
		if i/ring.DigitPrimes == d {
			factors[i] = ctx.PModQ(i)
		}
	}
	scaled := ctx.GetPoly(p.level)
	ctx.MulScalarVec(p.target, factors, scaled)
	bq := restrict(b, p.level)
	ctx.Add(bq, scaled, bq)
	ctx.PutPoly(scaled)
	qp.MontgomeryForm(b, b)
	qp.MontgomeryForm(a, a)
	return b, a
}

// GenRelinKey builds the relinearization key (switching s² to s).
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) *SwitchingKey {
	ctx := kg.params.RingCtx
	top := kg.params.MaxLevel()
	s2 := ctx.NewPoly(top)
	ctx.MulCoeffs(sk.S, sk.S, s2)
	return kg.genSwitchingKeys([]keyPlan{kg.newKeyPlan(s2, kg.secretQP(sk, top), top)})[0]
}

// galoisKeyPlan plans the Galois key for g at the given level. The key
// switches s to σ_g^{-1}(s): the evaluator key-switches c1 as it stands
// and applies σ_g to the result, which lands back under s — so the
// automorphism costs two row permutations per rotation instead of one
// per digit. The key serves rotations at any level ≤ its own; a
// rotation above it is refused (*MissingKeyError).
func (kg *KeyGenerator) galoisKeyPlan(sk *SecretKey, g uint64, level int) keyPlan {
	qp := kg.params.RingCtx.QP(level)
	sOut := qp.NewPoly(qp.MaxLevel())
	qp.Automorphism(kg.secretQP(sk, level), invGaloisElt(g, kg.params.N()), sOut)
	return kg.newKeyPlan(sk.S, sOut, level)
}

// invGaloisElt returns g^{-1} in the unit group of Z_2N (g odd): that
// group has exponent N/2, so the inverse is g^{N/2-1}.
func invGaloisElt(g uint64, n int) uint64 {
	mask := uint64(2*n) - 1
	inv := uint64(1)
	for i := 0; i < n/2-1; i++ {
		inv = (inv * g) & mask
	}
	return inv
}

// GenEvaluationKeys builds the relinearization key plus Galois keys for
// the given rotation steps, all at the chain top. Step 0 is ignored.
func (kg *KeyGenerator) GenEvaluationKeys(sk *SecretKey, steps []int) (*EvaluationKeys, error) {
	rots := make([]Rotation, len(steps))
	for i, s := range steps {
		rots[i] = Rotation{Step: s, Level: kg.params.MaxLevel()}
	}
	return kg.WithGaloisKeys(sk, &EvaluationKeys{Relin: kg.GenRelinKey(sk)}, rots), nil
}

// Rotation is one rotation a key set must serve directly: a slot step at
// a chain level.
type Rotation struct{ Step, Level int }

// WithGaloisKeys returns ek with a direct Galois key for every rotation
// in rots: a missing key (or one below a needed level) is generated at
// the highest level its element is rotated at, clamped to the chain, in
// the order the elements first appear — so seeded runs repeat. ek is
// never written: the result is a new set sharing ek's other keys, which
// an evaluator publishes (Evaluator.SetKeys) while passes run on the old
// one. ek may be nil.
func (kg *KeyGenerator) WithGaloisKeys(sk *SecretKey, ek *EvaluationKeys, rots []Rotation) *EvaluationKeys {
	top := kg.params.MaxLevel()
	want := make(map[uint64]int)
	var order []uint64
	for _, r := range rots {
		if r.Step%kg.params.Slots() == 0 {
			continue
		}
		g, lvl := kg.params.GaloisElt(r.Step), min(max(r.Level, 0), top)
		if cur, seen := want[g]; !seen {
			want[g] = lvl
			order = append(order, g)
		} else if lvl > cur {
			want[g] = lvl
		}
	}
	if ek == nil {
		ek = &EvaluationKeys{}
	}
	var gen []uint64
	for _, g := range order {
		if k := ek.Galois[g]; k == nil || k.Level() < want[g] {
			gen = append(gen, g)
		}
	}
	if len(gen) == 0 {
		return ek
	}
	plans := make([]keyPlan, len(gen))
	ring.RunAll(len(gen), func(i int) { plans[i] = kg.galoisKeyPlan(sk, gen[i], want[gen[i]]) })
	out := &EvaluationKeys{Relin: ek.Relin, Galois: map[uint64]*SwitchingKey{}}
	maps.Copy(out.Galois, ek.Galois)
	for i, k := range kg.genSwitchingKeys(plans) {
		out.Galois[gen[i]] = k
	}
	return out
}

// restrict returns a view of p at the given (lower or equal) level,
// sharing the underlying residues.
func restrict(p *ring.Poly, level int) *ring.Poly {
	if p.Level() < level {
		panic(fmt.Sprintf("bgv: cannot restrict level-%d poly to level %d", p.Level(), level))
	}
	return &ring.Poly{Coeffs: p.Coeffs[:level+1], IsNTT: p.IsNTT}
}
