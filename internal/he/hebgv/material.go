package hebgv

import (
	"fmt"

	"copse/internal/bgv"
	"copse/internal/he"
)

// Key-material portability: a cluster distributes one key pair across
// processes — workers evaluate and decrypt, and make the Galois keys
// their own staged programs rotate by; the stateless gateway encrypts
// queries and adds shard results with the public key alone. Material is
// the in-memory form; internal/cluster puts it on the wire.

// Material is a backend's exportable key set. Secret and Keys may be
// nil: Public alone supports encrypt + keyless ops (add/sub), Keys adds
// rotations and multiplications, Secret adds decryption and the making
// of any key the material lacks.
type Material struct {
	// Params is the seedable parameter set (prime generation is
	// deterministic, so the chain itself need not travel).
	Params bgv.Params
	Secret *bgv.SecretKey
	Public *bgv.PublicKey
	Keys   *bgv.EvaluationKeys
}

// Material exports the backend's key set: the secret key, the public key
// and every evaluation key made so far. The returned structure shares
// the backend's key polynomials; callers must treat it as read-only.
func (b *Backend) Material() *Material {
	return &Material{
		Params: b.params.Params,
		Secret: b.sk,
		Public: b.pk,
		Keys:   b.evaluator.Keys(),
	}
}

// PublicMaterial exports the encryption scope of the key set, the
// parameters and the public key — what a worker hands the gateway.
func (b *Backend) PublicMaterial() *Material {
	return &Material{Params: b.params.Params, Public: b.pk}
}

// NewFromMaterial constructs a backend around existing key material
// instead of generating the key pair. cfg.Params is ignored (the
// material pins the parameters); cfg.Seed seeds the encryptor and the
// key generator. A material without Secret yields a backend that
// encrypts through the public key and evaluates with the keys it carries
// but fails Decrypt/NoiseBudget (with Secret it encrypts under the
// secret key, as New's); without Keys it supports only additive
// workloads (Rotate/Mul fail inside the evaluator). With Secret the
// backend makes what the material lacks: a relinearization key at
// construction, Galois keys as staging asks for them
// (EnsureRotationKeys).
func NewFromMaterial(cfg Config, m *Material) (*Backend, error) {
	if m == nil || m.Public == nil {
		return nil, fmt.Errorf("hebgv: material needs at least a public key")
	}
	params, err := bgv.NewParameters(m.Params)
	if err != nil {
		return nil, err
	}
	encoder, err := bgv.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	b := &Backend{
		params:    params,
		encoder:   encoder,
		encryptor: newEncryptor(params, m.Public, m.Secret, cfg.Seed),
		evaluator: bgv.NewEvaluator(params, m.Keys),
		sk:        m.Secret,
		pk:        m.Public,
	}
	if m.Secret != nil {
		b.decryptor = bgv.NewDecryptor(params, m.Secret)
		b.keygen = newKeyGenerator(params, cfg.Seed)
		if m.Keys == nil || m.Keys.Relin == nil {
			keys := &bgv.EvaluationKeys{Relin: b.keygen.GenRelinKey(m.Secret)}
			if m.Keys != nil {
				keys.Galois = m.Keys.Galois
			}
			b.evaluator.SetKeys(keys)
		}
	}
	return b, nil
}

// ExportCiphertext unwraps an operand ciphertext for the wire: the raw
// BGV ciphertext plus the accumulated multiplicative depth (which
// travels alongside so the receiving backend keeps honest Depth
// accounting).
func (b *Backend) ExportCiphertext(ct he.Ciphertext) (*bgv.Ciphertext, int, error) {
	c, err := b.cast(ct)
	if err != nil {
		return nil, 0, err
	}
	return c.ct, c.depth, nil
}

// ImportCiphertext wraps a wire ciphertext for this backend. It refuses
// one this ring cannot hold — limbs past the chain, polynomials of
// different levels, rows other than N words — so a malformed frame fails
// its own request and none of its rows reaches an evaluator or the pool.
func (b *Backend) ImportCiphertext(ct *bgv.Ciphertext, depth int) (he.Ciphertext, error) {
	ctx := b.params.RingCtx
	if ct == nil || len(ct.C) < 2 {
		return nil, fmt.Errorf("hebgv: imported ciphertext has fewer than 2 polynomials")
	}
	limbs := len(ct.C[0].Coeffs)
	for _, p := range ct.C {
		if len(p.Coeffs) != limbs || limbs < 1 || limbs > ctx.MaxLevel()+1 {
			return nil, fmt.Errorf("hebgv: imported ciphertext has %d limbs in a polynomial, want %d of at most %d",
				len(p.Coeffs), limbs, ctx.MaxLevel()+1)
		}
		for _, row := range p.Coeffs {
			if len(row) != ctx.N {
				return nil, fmt.Errorf("hebgv: imported ciphertext has ring degree %d, want %d", len(row), ctx.N)
			}
		}
	}
	return b.wrap(ct, depth), nil
}
