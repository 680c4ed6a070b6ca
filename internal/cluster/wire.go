// Package cluster implements COPSE's horizontal scale-out subsystem:
// worker nodes that own (model shard, key set) pairs and evaluate the
// classify pass, and a stateless gateway that routes by model name and
// key fingerprint, fans queries out to the workers holding a forest's
// shards, and merges the encrypted per-shard vote sums with plain
// level-2 adds (see core.ShardForest and DESIGN.md §12).
//
// This file is the wire layer: every object that crosses a process
// boundary — key material (with its parameters), ciphertext batches,
// model metadata — travels as a versioned, length-prefixed binary frame.
// The control plane (HTTP/JSON) carries frames base64-less as raw
// bodies; the data plane streams them directly over the socket.
package cluster

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he/hebgv"
	"copse/internal/ring"
)

// Frame header: magic, version, kind, payload length. Little-endian
// throughout.
const (
	wireMagic = "CPSW"
	// WireVersion 2 carries hybrid switching keys (digits × chain and
	// special-prime limbs) in the key-material frame; version-1 key
	// frames hold base-2^w gadget keys and fail the shape validation.
	// Version 3 drops the noise estimate from the ciphertext frame
	// (ciphertextVersion); key and meta frames kept their layout, so
	// version-2 ones still load.
	WireVersion = 3

	// ciphertextVersion is the first version of the ciphertext frame's
	// layout: an older frame holds an 8-byte noise estimate after each
	// depth, and is refused.
	ciphertextVersion = 3

	// maxWireLevels supplements bgv.Params.Validate with a wire-level
	// sanity bound: Validate leaves Levels unbounded above (a local
	// caller can legitimately ask for a deep chain), but a frame
	// claiming hundreds of levels is certainly garbage, and the decoder
	// would pay prime generation and NTT table precomputation
	// proportional to the lie before any later check could catch it.
	maxWireLevels = 64
)

// defaultMaxFrameBytes bounds a frame so a corrupt or hostile length
// prefix cannot drive an allocation: large enough for a logN-15
// (Secure128Params) evaluation-key set, small enough to fail fast on
// garbage.
const defaultMaxFrameBytes = 1 << 31

// maxFrameBytes is the payload size every frame decoder accepts (and the
// decompressed size of a key-material frame): defaultMaxFrameBytes, which
// tests lower to exercise the limit.
var maxFrameBytes atomic.Int64

func init() { maxFrameBytes.Store(defaultMaxFrameBytes) }

// FrameSizeError is the typed error a decoder returns when a frame's
// declared (or decompressed) size exceeds the configured limit.
type FrameSizeError struct {
	Size, Limit int64
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("cluster: frame payload %d bytes exceeds limit %d", e.Size, e.Limit)
}

// TruncatedFrameError is the typed error a decoder returns when the
// stream or payload ends before the bytes its own header promised.
type TruncatedFrameError struct {
	What      string
	Want, Got int64
}

func (e *TruncatedFrameError) Error() string {
	return fmt.Sprintf("cluster: truncated %s: want %d bytes, got %d", e.What, e.Want, e.Got)
}

// KeyShapeError is the typed error DecodeKeyMaterial returns when a
// switching key's declared digit or limb counts, or the shape of one of
// its polynomials, disagree with what the frame's own Params imply.
type KeyShapeError struct {
	What      string
	Got, Want int
}

func (e *KeyShapeError) Error() string {
	return fmt.Sprintf("cluster: switching key %s is %d, parameters imply %d", e.What, e.Got, e.Want)
}

// Frame kinds. The numbers are part of the wire format, so they start at
// 2: kind 1 was a parameters frame no node sent (parameters travel inside
// the key-material frame), and the others kept their numbers when it went.
const (
	KindKeyMaterial uint16 = iota + 2
	KindCiphertexts
	KindMeta
)

// WireVersionError is the typed error a decoder returns when a frame
// was produced by a newer wire version than this process understands, or
// by one older than Min, the first version of its kind's layout.
type WireVersionError struct {
	Got, Supported uint16
	Min            uint16
}

func (e *WireVersionError) Error() string {
	if e.Got < e.Min {
		return fmt.Sprintf("cluster: wire version %d frame predates its layout at version %d", e.Got, e.Min)
	}
	return fmt.Sprintf("cluster: wire version %d not supported (max %d)", e.Got, e.Supported)
}

// frameHeader is the size of the versioned header: magic, version,
// kind and payload length.
const frameHeader = 12

// appendHeader appends the versioned header of a frame of the given kind
// and payload size to b.
func appendHeader(b []byte, kind uint16, size int) []byte {
	b = append(b, wireMagic...)
	b = binary.LittleEndian.AppendUint16(b, WireVersion)
	b = binary.LittleEndian.AppendUint16(b, kind)
	return binary.LittleEndian.AppendUint32(b, uint32(size))
}

// writeFrame wraps a payload in the versioned header.
func writeFrame(w io.Writer, kind uint16, payload []byte) error {
	if _, err := w.Write(appendHeader(make([]byte, 0, frameHeader), kind, len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// frameGrowCap bounds the payload buffer readFrame allocates on the word
// of a frame's length prefix alone.
const frameGrowCap = 16 << 20

// readFrame reads one frame, enforcing magic, version and kind, into a
// buffer of its own.
func readFrame(r io.Reader, wantKind uint16) ([]byte, error) {
	var buf bytes.Buffer
	if err := readFrameInto(r, wantKind, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readFrameInto reads one frame, enforcing magic, version and kind, and
// leaves its payload in buf, whose earlier contents it drops.
func readFrameInto(r io.Reader, wantKind uint16, buf *bytes.Buffer) error {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("cluster: reading frame header: %w", err)
	}
	if string(hdr[:4]) != wireMagic {
		return fmt.Errorf("cluster: bad frame magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v > WireVersion {
		return &WireVersionError{Got: v, Supported: WireVersion}
	}
	if k := binary.LittleEndian.Uint16(hdr[6:8]); k != wantKind {
		return fmt.Errorf("cluster: frame kind %d, want %d", k, wantKind)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); wantKind == KindCiphertexts && v < ciphertextVersion {
		return &WireVersionError{Got: v, Supported: WireVersion, Min: ciphertextVersion}
	}
	n := int64(binary.LittleEndian.Uint32(hdr[8:12]))
	if limit := maxFrameBytes.Load(); n > limit {
		return &FrameSizeError{Size: n, Limit: limit}
	}
	// Grow the buffer once, to the announced length up to 16 MiB, so a
	// query frame is read into one allocation (none into a pooled buffer
	// that already holds it); past that it grows as data arrives, so a
	// lying length prefix costs at most 16 MiB more than the bytes
	// actually received. ReadFrom keeps MinRead bytes free ahead of every
	// read, the one that meets the end included.
	if need := int(min(n, frameGrowCap)) + bytes.MinRead; buf.Cap() < need {
		*buf = *bytes.NewBuffer(make([]byte, 0, need))
	} else {
		buf.Reset()
	}
	if got, err := io.CopyN(buf, r, n); err != nil {
		return fmt.Errorf("cluster: reading frame payload: %w",
			&TruncatedFrameError{What: "frame payload", Want: n, Got: got})
	}
	return nil
}

// framePool recycles the payload buffers of ciphertext frames, which
// decodeCiphertexts copies every polynomial out of: a query frame of a
// few MiB is then read into a buffer an earlier request left, instead of
// a fresh one per request. A buffer grown past the growth cap is left
// to the collector, so the pool holds no more than a query frame's worth
// per buffer.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// --- primitive writers/readers over a bytes.Buffer ---

func putU8(b *bytes.Buffer, v uint8) { b.WriteByte(v) }
func putU16(b *bytes.Buffer, v uint16) {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], v)
	b.Write(t[:])
}
func putU32(b *bytes.Buffer, v uint32) {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	b.Write(t[:])
}
func putU64(b *bytes.Buffer, v uint64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	b.Write(t[:])
}

type reader struct {
	b   []byte
	off int
	err error

	// pool, when set, is the ring whose row pool poly draws from, once
	// the polynomial's shape fits it; taken lists what it drew, which a
	// failed decode hands back (release).
	pool  *ring.Context
	taken []*ring.Poly
}

// release returns every polynomial the reader drew from its pool.
func (r *reader) release() {
	if r.pool != nil {
		r.pool.PutPolys(r.taken)
	}
	r.taken = nil
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = &TruncatedFrameError{
			What: fmt.Sprintf("payload (offset %d)", r.off),
			Want: int64(n),
			Got:  int64(len(r.b) - r.off),
		}
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("cluster: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return nil
}

// --- polynomials ---

// polySize is the encoded size of p: NTT flag, limbs, ring degree and
// raw residues.
func polySize(p *ring.Poly) int { return 7 + 8*len(p.Coeffs)*len(p.Coeffs[0]) }

// appendPoly appends p's encoding (polySize) to b.
func appendPoly(b []byte, p *ring.Poly) []byte {
	flags := uint8(0)
	if p.IsNTT {
		flags = 1
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Coeffs)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Coeffs[0])))
	for _, limb := range p.Coeffs {
		for _, c := range limb {
			b = binary.LittleEndian.AppendUint64(b, c)
		}
	}
	return b
}

// putPoly writes p's encoding into b.
func putPoly(b *bytes.Buffer, p *ring.Poly) {
	b.Grow(polySize(p))
	b.Write(appendPoly(b.AvailableBuffer(), p))
}

// poly reads one polynomial. With a pool its rows come from the pool,
// only after the frame is known to hold all of them and their shape fits
// the pool's ring, and every residue must be reduced by its prime.
func (r *reader) poly() *ring.Poly {
	flags := r.u8()
	limbs := int(r.u16())
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if limbs < 1 || limbs > maxWireLevels+ring.DigitPrimes || n < 1 || n > 1<<16 {
		r.err = fmt.Errorf("cluster: implausible poly shape (%d limbs, N=%d)", limbs, n)
		return nil
	}
	if r.pool != nil && (limbs > r.pool.MaxLevel()+1 || n != r.pool.N) {
		r.err = fmt.Errorf("cluster: poly of %d limbs over N=%d does not fit the ring (at most %d limbs over N=%d)",
			limbs, n, r.pool.MaxLevel()+1, r.pool.N)
		return nil
	}
	raw := r.take(limbs * n * 8)
	if raw == nil {
		return nil
	}
	var p *ring.Poly
	if r.pool != nil {
		p = r.pool.GetPoly(limbs - 1)
		r.taken = append(r.taken, p)
	} else {
		p = &ring.Poly{Coeffs: make([][]uint64, limbs)}
		for i := range p.Coeffs {
			p.Coeffs[i] = make([]uint64, n)
		}
	}
	p.IsNTT = flags&1 != 0
	for i, limb := range p.Coeffs {
		for j := range limb {
			limb[j] = binary.LittleEndian.Uint64(raw[j*8:])
		}
		raw = raw[n*8:]
		// The key-switch inner product's bound holds for reduced
		// residues only.
		if r.pool != nil && slices.Max(limb) >= r.pool.Moduli[i].Q {
			r.err = fmt.Errorf("cluster: ciphertext residue %d not reduced modulo %d", slices.Max(limb), r.pool.Moduli[i].Q)
			return nil
		}
	}
	return p
}

// --- parameters ---

// putParams writes a parameter set. The prime chain itself never
// travels: bgv prime generation is deterministic, so Params alone
// reconstructs identical parameters on the far side.
func putParams(b *bytes.Buffer, p bgv.Params) {
	putU8(b, uint8(p.LogN))
	putU64(b, p.T)
	putU8(b, uint8(p.PrimeBits))
	putU16(b, uint16(p.Levels))
	putU8(b, uint8(p.DigitBits))
}

func (r *reader) params() bgv.Params {
	return bgv.Params{
		LogN:      int(r.u8()),
		T:         r.u64(),
		PrimeBits: int(r.u8()),
		Levels:    int(r.u16()),
		DigitBits: int(r.u8()),
	}
}

// wireParamsHook, when non-nil, gets a veto over decoded parameter
// sets before the decoder pays prime generation and NTT precompute.
// FuzzWireDecode installs one to keep per-input cost bounded; it is
// nil in production.
var wireParamsHook func(bgv.Params) error

// checkWireParams applies the wire-level sanity bounds a decoder must
// enforce on top of bgv.Params.Validate before paying the cost of
// parameter construction.
func checkWireParams(p bgv.Params) error {
	if p.Levels > maxWireLevels {
		return fmt.Errorf("cluster: implausible level count %d (wire max %d)", p.Levels, maxWireLevels)
	}
	if wireParamsHook != nil {
		return wireParamsHook(p)
	}
	return nil
}

// --- key material ---

// putSwitchingKey writes the key's shape — digits, chain limbs (the
// Q-part of every key poly) and special-prime limbs (the P-part) — and
// then each digit's (B, A) pair, chain rows first. The key is held in
// Montgomery form; its residues travel in normal form, taken out over
// the ring ctx of the key's parameters, so the frame does not depend on
// how a process stores its keys.
func putSwitchingKey(b *bytes.Buffer, ctx *ring.Context, k *bgv.SwitchingKey) {
	putU16(b, uint16(len(k.B)))
	putU16(b, uint16(k.Level()+1))
	putU16(b, uint16(len(k.B[0].Coeffs)-k.Level()-1))
	qp := ctx.QP(k.Level())
	p := qp.NewPoly(qp.MaxLevel())
	for d := range k.B {
		qp.NormalForm(k.B[d], p)
		putPoly(b, p)
		qp.NormalForm(k.A[d], p)
		putPoly(b, p)
	}
}

// switchingKey reads one key and checks every count against the shape
// the decoded parameters imply: a key at level ℓ ≤ MaxLevel has
// HybridDigits(ℓ) digits, each an NTT-domain poly of ℓ+1 chain limbs
// plus the ring.DigitPrimes special limbs over N coefficients.
func (r *reader) switchingKey(ctx *ring.Context) *bgv.SwitchingKey {
	digits, chain, special := int(r.u16()), int(r.u16()), int(r.u16())
	if r.err != nil {
		return nil
	}
	check := func(what string, got, want int) bool {
		if r.err == nil && got != want {
			r.err = &KeyShapeError{What: what, Got: got, Want: want}
		}
		return r.err == nil
	}
	if chain < 1 || chain > len(ctx.Moduli) {
		check("chain limb count", chain, len(ctx.Moduli))
		return nil
	}
	if !check("special limb count", special, ring.DigitPrimes) ||
		!check("digit count", digits, ring.HybridDigits(chain-1)) {
		return nil
	}
	qp := ctx.QP(chain - 1)
	k := &bgv.SwitchingKey{B: make([]*ring.Poly, digits), A: make([]*ring.Poly, digits)}
	keyPoly := func() *ring.Poly {
		p := r.poly()
		if r.err != nil {
			return nil
		}
		if !p.IsNTT {
			r.err = fmt.Errorf("cluster: switching-key polynomial not in NTT domain")
			return nil
		}
		if !check("polynomial limb count", len(p.Coeffs), chain+special) ||
			!check("polynomial degree", len(p.Coeffs[0]), ctx.N) {
			return nil
		}
		// The key-switch inner product's bound holds for reduced
		// residues only, so reject an unreduced one here.
		for i, row := range p.Coeffs {
			for _, c := range row {
				if q := qp.Moduli[i].Q; c >= q {
					r.err = fmt.Errorf("cluster: switching-key residue %d not reduced modulo %d", c, q)
					return nil
				}
			}
		}
		qp.MontgomeryForm(p, p)
		return p
	}
	for d := 0; d < digits; d++ {
		k.B[d] = keyPoly()
		k.A[d] = keyPoly()
		if r.err != nil {
			return nil
		}
	}
	return k
}

const (
	matHasSecret = 1 << iota
	matHasRelin
	matHasGalois
)

// EncodeKeyMaterial frames a key set. Secret and evaluation keys are
// optional — EncodeKeyMaterial(w, b.PublicMaterial()) produces the
// public scope a worker hands the gateway. The payload is gzipped: key
// polynomials are uniform mod q, but the frame is cold-path and the
// header overhead is negligible.
func EncodeKeyMaterial(w io.Writer, m *hebgv.Material) error {
	var b bytes.Buffer
	putParams(&b, m.Params)
	flags := uint8(0)
	if m.Secret != nil {
		flags |= matHasSecret
	}
	if m.Keys != nil && m.Keys.Relin != nil {
		flags |= matHasRelin
	}
	if m.Keys != nil && len(m.Keys.Galois) > 0 {
		flags |= matHasGalois
	}
	var ctx *ring.Context
	if flags&(matHasRelin|matHasGalois) != 0 {
		params, err := bgv.NewParameters(m.Params)
		if err != nil {
			return err
		}
		ctx = params.RingCtx
	}
	putU8(&b, flags)
	putPoly(&b, m.Public.B)
	putPoly(&b, m.Public.A)
	if flags&matHasSecret != 0 {
		putPoly(&b, m.Secret.S)
	}
	if flags&matHasRelin != 0 {
		putSwitchingKey(&b, ctx, m.Keys.Relin)
	}
	if flags&matHasGalois != 0 {
		putU32(&b, uint32(len(m.Keys.Galois)))
		for _, elt := range sortedElts(m.Keys.Galois) {
			putU64(&b, elt)
			putSwitchingKey(&b, ctx, m.Keys.Galois[elt])
		}
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(b.Bytes()); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return writeFrame(w, KindKeyMaterial, zbuf.Bytes())
}

// DecodeKeyMaterial reads a key-material frame, putting the switching
// keys into Montgomery form over the (deterministically regenerated)
// prime chain.
func DecodeKeyMaterial(rd io.Reader) (*hebgv.Material, error) {
	payload, err := readFrame(rd, KindKeyMaterial)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("cluster: key material not gzipped: %w", err)
	}
	// Bound the decompressed size too: gzip can expand ~1000:1, so a
	// small in-limit frame could otherwise balloon far past the frame
	// budget (a classic decompression bomb).
	limit := maxFrameBytes.Load()
	raw, err := io.ReadAll(io.LimitReader(zr, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) > limit {
		return nil, &FrameSizeError{Size: int64(len(raw)), Limit: limit}
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	r := &reader{b: raw}
	p := r.params()
	if r.err != nil {
		return nil, r.err
	}
	if err := checkWireParams(p); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	params, err := bgv.NewParameters(p)
	if err != nil {
		return nil, err
	}
	ctx := params.RingCtx
	m := &hebgv.Material{Params: p}
	flags := r.u8()
	m.Public = &bgv.PublicKey{B: r.poly(), A: r.poly()}
	if flags&matHasSecret != 0 {
		m.Secret = &bgv.SecretKey{S: r.poly()}
	}
	if flags&(matHasRelin|matHasGalois) != 0 {
		m.Keys = &bgv.EvaluationKeys{Galois: map[uint64]*bgv.SwitchingKey{}}
	}
	if flags&matHasRelin != 0 {
		m.Keys.Relin = r.switchingKey(ctx)
	}
	if flags&matHasGalois != 0 {
		n := int(r.u32())
		if r.err == nil && n > 1<<20 {
			r.err = fmt.Errorf("cluster: implausible Galois key count %d", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			elt := r.u64()
			m.Keys.Galois[elt] = r.switchingKey(ctx)
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// sortedElts returns the Galois elements in ascending order so encoding
// is deterministic (map iteration is not).
func sortedElts(g map[uint64]*bgv.SwitchingKey) []uint64 {
	elts := make([]uint64, 0, len(g))
	for e := range g {
		elts = append(elts, e)
	}
	for i := 1; i < len(elts); i++ {
		for j := i; j > 0 && elts[j] < elts[j-1]; j-- {
			elts[j], elts[j-1] = elts[j-1], elts[j]
		}
	}
	return elts
}

// KeyFingerprint is the routing identity of a key set: the hex SHA-256
// of its encoded public key. Workers holding shards of the same forest
// must agree on it before the gateway fans a query out.
func KeyFingerprint(m *hebgv.Material) (string, error) {
	var b bytes.Buffer
	putParams(&b, m.Params)
	putPoly(&b, m.Public.B)
	putPoly(&b, m.Public.A)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// --- ciphertext batches ---

// WireCiphertext is one ciphertext plus the backend bookkeeping that
// travels with it.
type WireCiphertext struct {
	Ct *bgv.Ciphertext
	// Depth is the accumulated multiplicative depth (he.Ciphertext's
	// Depth contract).
	Depth int
}

// EncodeCiphertexts frames a batch of ciphertexts — the data plane's
// payload for both query fan-out and result return — and writes the
// frame to w at once.
func EncodeCiphertexts(w io.Writer, cts []WireCiphertext) error {
	_, err := w.Write(ciphertextFrame(cts))
	return err
}

// ciphertextFrame is EncodeCiphertexts' frame in one slice sized
// exactly, which the serving paths send as it stands.
func ciphertextFrame(cts []WireCiphertext) []byte {
	size := 4
	for _, wc := range cts {
		size += 2 + 1
		for _, p := range wc.Ct.C {
			size += polySize(p)
		}
	}
	b := appendHeader(make([]byte, 0, frameHeader+size), KindCiphertexts, size)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cts)))
	for _, wc := range cts {
		b = binary.LittleEndian.AppendUint16(b, uint16(wc.Depth))
		b = append(b, uint8(len(wc.Ct.C)))
		for _, p := range wc.Ct.C {
			b = appendPoly(b, p)
		}
	}
	return b
}

// DecodeCiphertexts reads a ciphertext-batch frame.
func DecodeCiphertexts(rd io.Reader) ([]WireCiphertext, error) {
	return decodeCiphertexts(rd, nil, func(n int) error {
		if n > 1<<20 {
			return fmt.Errorf("cluster: implausible ciphertext count %d", n)
		}
		return nil
	})
}

// decodeOneCiphertext reads a ciphertext frame that must hold exactly
// one ciphertext — a shard's vote sum, or the merge of them — refusing
// any other announced count before a ciphertext of it is allocated.
func decodeOneCiphertext(rd io.Reader) (WireCiphertext, error) {
	cts, err := decodeCiphertexts(rd, nil, func(n int) error {
		if n != 1 {
			return fmt.Errorf("cluster: frame announces %d ciphertexts, want 1", n)
		}
		return nil
	})
	if err != nil {
		return WireCiphertext{}, err
	}
	return cts[0], nil
}

// decodeCiphertexts reads a ciphertext frame whose announced count
// admit accepts; it is asked before any ciphertext is allocated. With a
// pool, every polynomial's rows come from that ring's row pool (reader.
// poly), so the release of the ciphertexts after their use returns them;
// a frame refused after rows were drawn hands them back.
func decodeCiphertexts(rd io.Reader, pool *ring.Context, admit func(n int) error) (_ []WireCiphertext, err error) {
	buf := framePool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= frameGrowCap+bytes.MinRead {
			framePool.Put(buf)
		}
	}()
	if err := readFrameInto(rd, KindCiphertexts, buf); err != nil {
		return nil, err
	}
	r := &reader{b: buf.Bytes(), pool: pool}
	defer func() {
		if err != nil {
			r.release()
		}
	}()
	n := int(r.u32())
	if r.err == nil {
		if err := admit(n); err != nil {
			return nil, err
		}
	}
	out := make([]WireCiphertext, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		wc := WireCiphertext{Depth: int(r.u16())}
		polys := int(r.u8())
		if r.err != nil {
			break
		}
		if polys < 2 || polys > 8 {
			return nil, fmt.Errorf("cluster: implausible ciphertext degree %d", polys-1)
		}
		wc.Ct = &bgv.Ciphertext{C: make([]*ring.Poly, polys)}
		for j := 0; j < polys; j++ {
			wc.Ct.C[j] = r.poly()
		}
		out = append(out, wc)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

// --- model metadata ---

// EncodeMeta frames a model's Meta (including its level plan) for the
// control plane: what the gateway needs to encrypt query batches and
// decode merged results. Gob matches the artifact encoding, so every
// Meta evolution that keeps artifacts loadable keeps the wire loadable.
func EncodeMeta(w io.Writer, m *core.Meta) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(m); err != nil {
		return fmt.Errorf("cluster: encoding meta: %w", err)
	}
	return writeFrame(w, KindMeta, b.Bytes())
}

// DecodeMeta reads a Meta frame and refuses, with the
// *core.UnsupportedModelError of Meta.Validate, a Meta of a shape no
// compiler output has.
func DecodeMeta(rd io.Reader) (*core.Meta, error) {
	payload, err := readFrame(rd, KindMeta)
	if err != nil {
		return nil, err
	}
	m := &core.Meta{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(m); err != nil {
		return nil, fmt.Errorf("cluster: decoding meta: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: decoding meta: %w", err)
	}
	return m, nil
}
