package ring

import (
	"math/big"
	"math/bits"
)

// crtLevel holds the constants for reconstructing integers from their RNS
// residues at one level of the prime chain.
type crtLevel struct {
	bigQ  *big.Int   // product of active primes
	halfQ *big.Int   // bigQ / 2, for centering
	qiHat []*big.Int // bigQ / q_i
	inv   []uint64   // (bigQ/q_i)^{-1} mod q_i

	// Word-level mirrors of the constants above, for the allocation-free
	// reconstruction used on the hot decomposition path.
	words  int        // 64-bit words covering bigQ
	qWords []uint64   // bigQ, little-endian, length `words`
	qiHatW [][]uint64 // bigQ / q_i, little-endian, length `words`
}

func (ctx *Context) buildCRT() {
	ctx.crt = make([]*crtLevel, len(ctx.Moduli))
	for level := range ctx.Moduli {
		cl := &crtLevel{bigQ: big.NewInt(1)}
		for i := 0; i <= level; i++ {
			cl.bigQ = new(big.Int).Mul(cl.bigQ, new(big.Int).SetUint64(ctx.Moduli[i].Q))
		}
		cl.halfQ = new(big.Int).Rsh(cl.bigQ, 1)
		for i := 0; i <= level; i++ {
			q := ctx.Moduli[i].Q
			hat := new(big.Int).Div(cl.bigQ, new(big.Int).SetUint64(q))
			cl.qiHat = append(cl.qiHat, hat)
			hatModQ := new(big.Int).Mod(hat, new(big.Int).SetUint64(q)).Uint64()
			cl.inv = append(cl.inv, InvMod(hatModQ, q))
		}
		cl.words = (cl.bigQ.BitLen() + 63) / 64
		cl.qWords = toWords(cl.bigQ, cl.words)
		for _, hat := range cl.qiHat {
			cl.qiHatW = append(cl.qiHatW, toWords(hat, cl.words))
		}
		ctx.crt[level] = cl
	}
}

// toWords returns the little-endian 64-bit words of x, padded to n,
// independent of the platform's big.Word size (32 or 64, both of which
// divide 64, so each big.Word lands in exactly one output word).
func toWords(x *big.Int, n int) []uint64 {
	out := make([]uint64, n)
	const wordBits = bits.UintSize
	for i, w := range x.Bits() {
		bit := i * wordBits
		out[bit/64] |= uint64(w) << uint(bit%64)
	}
	return out
}

// reconstructWords computes (Σ_i res_i·inv_i·qiHat_i) mod Q into acc,
// a little-endian word vector of length words+1 — the same value
// reconstructCoeff produces, without big.Int allocations. The sum is at
// most (level+1)·Q, so the reduction is a short subtract loop.
func (cl *crtLevel) reconstructWords(res []uint64, moduli []*Modulus, acc []uint64) {
	clear(acc)
	w := cl.words
	for i, r := range res {
		v := MulMod(r, cl.inv[i], moduli[i].Q)
		hat := cl.qiHatW[i]
		var carry uint64
		for k := 0; k < w; k++ {
			hi, lo := bits.Mul64(v, hat[k])
			s, c1 := bits.Add64(acc[k], lo, 0)
			s, c2 := bits.Add64(s, carry, 0)
			acc[k] = s
			carry = hi + c1 + c2 // v < 2^62, so hi + 2 cannot wrap
		}
		acc[w] += carry
	}
	for wordsGE(acc, cl.qWords) {
		wordsSub(acc, cl.qWords)
	}
}

// wordsGE reports acc ≥ q, where acc has one extra top word.
func wordsGE(acc, q []uint64) bool {
	if acc[len(q)] != 0 {
		return true
	}
	for k := len(q) - 1; k >= 0; k-- {
		if acc[k] != q[k] {
			return acc[k] > q[k]
		}
	}
	return true
}

// wordsSub sets acc -= q in place.
func wordsSub(acc, q []uint64) {
	var borrow uint64
	for k := range q {
		acc[k], borrow = bits.Sub64(acc[k], q[k], borrow)
	}
	acc[len(q)] -= borrow
}

// BigQ returns the full modulus at the given level.
func (ctx *Context) BigQ(level int) *big.Int { return ctx.crt[level].bigQ }

// reconstructCoeff writes the CRT reconstruction of residues res (one per
// active prime) into out, reduced into [0, Q).
func (cl *crtLevel) reconstructCoeff(res []uint64, moduli []*Modulus, out, scratch *big.Int) {
	out.SetUint64(0)
	for i, r := range res {
		v := MulMod(r, cl.inv[i], moduli[i].Q)
		scratch.SetUint64(v)
		scratch.Mul(scratch, cl.qiHat[i])
		out.Add(out, scratch)
	}
	out.Mod(out, cl.bigQ)
}

// ToCenteredMod reconstructs each coefficient of p (coefficient domain),
// centers it in (-Q/2, Q/2], and reduces modulo m. This is the final step
// of BGV decryption.
func (ctx *Context) ToCenteredMod(p *Poly, m uint64) []uint64 {
	if p.IsNTT {
		panic("ring: ToCenteredMod requires coefficient-domain input")
	}
	cl := ctx.crt[p.Level()]
	out := make([]uint64, ctx.N)
	acc := new(big.Int)
	scratch := new(big.Int)
	mBig := new(big.Int).SetUint64(m)
	res := make([]uint64, p.Level()+1)
	for j := 0; j < ctx.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		cl.reconstructCoeff(res, ctx.Moduli, acc, scratch)
		if acc.Cmp(cl.halfQ) > 0 {
			acc.Sub(acc, cl.bigQ)
		}
		acc.Mod(acc, mBig) // big.Int Mod is Euclidean: result in [0, m)
		out[j] = acc.Uint64()
	}
	return out
}

// MaxCenteredBits returns the bit length of the largest centered
// coefficient of p. It is used to measure ciphertext noise.
func (ctx *Context) MaxCenteredBits(p *Poly) int {
	if p.IsNTT {
		panic("ring: MaxCenteredBits requires coefficient-domain input")
	}
	cl := ctx.crt[p.Level()]
	acc := new(big.Int)
	scratch := new(big.Int)
	res := make([]uint64, p.Level()+1)
	maxBits := 0
	for j := 0; j < ctx.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		cl.reconstructCoeff(res, ctx.Moduli, acc, scratch)
		if acc.Cmp(cl.halfQ) > 0 {
			acc.Sub(acc, cl.bigQ)
			acc.Neg(acc)
		}
		if bl := acc.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	return maxBits
}

// DecomposeBase2w decomposes a coefficient-domain polynomial into base-2^w
// digit polynomials: p = Σ_k digits[k] · 2^{kw}, with every digit
// coefficient in [0, 2^w), returned in NTT domain from the context's pool
// (PutPolys returns them).
//
// Deprecated: this is the retained big-integer reference of the base-2^w
// key-switching gadget, kept for bench/micro.go and the ring tests. The
// evaluator key-switches through DecomposeHybrid (basisext.go).
func (ctx *Context) DecomposeBase2w(p *Poly, w int) []*Poly {
	if p.IsNTT {
		panic("ring: DecomposeBase2w requires coefficient-domain input")
	}
	level := p.Level()
	cl := ctx.crt[level]
	digits := make([]*Poly, (cl.bigQ.BitLen()+w-1)/w)
	for k := range digits {
		digits[k] = ctx.GetPoly(level)
	}
	acc := make([]uint64, cl.words+1)
	res := make([]uint64, level+1)
	for j := 0; j < ctx.N; j++ {
		for i := range res {
			res[i] = p.Coeffs[i][j]
		}
		cl.reconstructWords(res, ctx.Moduli, acc)
		for k, dig := range digits {
			d := extractBitsWords(acc, k*w, w)
			for i := 0; i <= level; i++ {
				q := ctx.Moduli[i].Q
				if d < q {
					dig.Coeffs[i][j] = d
				} else {
					dig.Coeffs[i][j] = d % q
				}
			}
		}
	}
	for _, dig := range digits {
		ctx.NTT(dig)
	}
	return digits
}

// extractBitsWords reads `width` bits starting at bit offset `start` from
// a little-endian []uint64. width must be at most 63.
func extractBitsWords(words []uint64, start, width int) uint64 {
	wordIdx := start >> 6
	bitIdx := start & 63
	if wordIdx >= len(words) {
		return 0
	}
	v := words[wordIdx] >> uint(bitIdx)
	if got := 64 - bitIdx; got < width && wordIdx+1 < len(words) {
		v |= words[wordIdx+1] << uint(got)
	}
	return v & (uint64(1)<<uint(width) - 1)
}
