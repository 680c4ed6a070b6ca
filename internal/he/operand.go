package he

import "fmt"

// Operand is either a ciphertext or a plaintext vector. The COPSE
// algorithm is written once over operands; which side is encrypted is
// decided by the party configuration (paper §7): M=D encrypts both model
// and features, M=S keeps the model plaintext, D=S keeps the features
// plaintext.
type Operand struct {
	Ct   Ciphertext // non-nil for ciphertext operands
	Pt   Plain      // encoded plaintext handle (non-nil for plaintext operands)
	Vals []uint64   // raw plaintext values backing Pt
}

// Cipher wraps a ciphertext as an operand.
func Cipher(ct Ciphertext) Operand { return Operand{Ct: ct} }

// NewPlain encodes vals (padding to Slots with zeros) as a plaintext
// operand.
func NewPlain(b Backend, vals []uint64) (Operand, error) {
	padded := make([]uint64, b.Slots())
	copy(padded, vals)
	pt, err := b.EncodePlain(padded)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Pt: pt, Vals: padded}, nil
}

// IsCipher reports whether the operand is encrypted.
func (o Operand) IsCipher() bool { return o.Ct != nil }

// Reveal decrypts a ciphertext operand or returns the plaintext values.
func Reveal(b Backend, o Operand) ([]uint64, error) {
	if o.IsCipher() {
		return b.Decrypt(o.Ct)
	}
	return o.Vals, nil
}

// Add returns x + y element-wise.
func Add(b Backend, x, y Operand) (Operand, error) {
	switch {
	case x.IsCipher() && y.IsCipher():
		ct, err := b.Add(x.Ct, y.Ct)
		return Operand{Ct: ct}, err
	case x.IsCipher():
		ct, err := b.AddPlain(x.Ct, y.Pt)
		return Operand{Ct: ct}, err
	case y.IsCipher():
		ct, err := b.AddPlain(y.Ct, x.Pt)
		return Operand{Ct: ct}, err
	default:
		t := b.PlainModulus()
		vals := make([]uint64, b.Slots())
		for i := range vals {
			vals[i] = (x.Vals[i] + y.Vals[i]) % t
		}
		return NewPlain(b, vals)
	}
}

// Sub returns x − y element-wise; a plaintext side is negated and added.
func Sub(b Backend, x, y Operand) (Operand, error) {
	if x.IsCipher() && y.IsCipher() {
		ct, err := b.Sub(x.Ct, y.Ct)
		return Operand{Ct: ct}, err
	}
	neg, err := Neg(b, y)
	if err != nil {
		return Operand{}, err
	}
	return Add(b, x, neg)
}

// Neg returns −x element-wise.
func Neg(b Backend, x Operand) (Operand, error) {
	if x.IsCipher() {
		ct, err := b.Neg(x.Ct)
		return Operand{Ct: ct}, err
	}
	t := b.PlainModulus()
	vals := make([]uint64, b.Slots())
	for i := range vals {
		vals[i] = (t - x.Vals[i]%t) % t
	}
	return NewPlain(b, vals)
}

// Mul returns x · y element-wise. This is boolean AND for 0/1 operands.
func Mul(b Backend, x, y Operand) (Operand, error) {
	switch {
	case x.IsCipher() && y.IsCipher():
		ct, err := b.Mul(x.Ct, y.Ct)
		return Operand{Ct: ct}, err
	case x.IsCipher():
		ct, err := b.MulPlain(x.Ct, y.Pt)
		return Operand{Ct: ct}, err
	case y.IsCipher():
		ct, err := b.MulPlain(y.Ct, x.Pt)
		return Operand{Ct: ct}, err
	default:
		t := b.PlainModulus()
		vals := make([]uint64, b.Slots())
		for i := range vals {
			vals[i] = x.Vals[i] * y.Vals[i] % t
		}
		return NewPlain(b, vals)
	}
}

// MulLazy is Mul that may leave a ciphertext×ciphertext product
// unrelinearized; sums of such products support Add and are finalized
// once with Relinearize. Products with a plaintext side need no
// relinearization and behave exactly like Mul.
func MulLazy(b Backend, x, y Operand) (Operand, error) {
	if x.IsCipher() && y.IsCipher() {
		ct, err := b.MulLazy(x.Ct, y.Ct)
		return Operand{Ct: ct}, err
	}
	return Mul(b, x, y)
}

// Relinearize finalizes an operand accumulated from MulLazy products.
// Plaintext and already-finalized operands pass through unchanged.
func Relinearize(b Backend, x Operand) (Operand, error) {
	if !x.IsCipher() {
		return x, nil
	}
	ct, err := b.Relinearize(x.Ct)
	return Operand{Ct: ct}, err
}

// Rotate rotates the operand's slots left by k.
func Rotate(b Backend, x Operand, k int) (Operand, error) {
	if x.IsCipher() {
		ct, err := b.Rotate(x.Ct, k)
		return Operand{Ct: ct}, err
	}
	slots := b.Slots()
	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = x.Vals[(i+k%slots+slots)%slots]
	}
	return NewPlain(b, vals)
}

// RotateHoisted rotates the operand's slots left by every step in steps,
// sharing per-ciphertext work across the batch where the backend supports
// hoisting. The result slice is parallel to steps.
func RotateHoisted(b Backend, x Operand, steps []int) ([]Operand, error) {
	if x.IsCipher() {
		cts, err := b.RotateHoisted(x.Ct, steps)
		if err != nil {
			return nil, err
		}
		outs := make([]Operand, len(cts))
		for i, ct := range cts {
			outs[i] = Operand{Ct: ct}
		}
		return outs, nil
	}
	outs := make([]Operand, len(steps))
	for i, k := range steps {
		out, err := Rotate(b, x, k)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

// Xor returns x ⊕ y for 0/1 operands, using the Z_t encoding
// a ⊕ b = a + b − 2ab. With one plaintext side this is the affine map
// a·(1−2m) + m and costs no ciphertext multiplication.
func Xor(b Backend, x, y Operand) (Operand, error) {
	switch {
	case x.IsCipher() && y.IsCipher():
		prod, err := b.Mul(x.Ct, y.Ct)
		if err != nil {
			return Operand{}, err
		}
		sum, err := b.Add(x.Ct, y.Ct)
		if err != nil {
			return Operand{}, err
		}
		twice, err := b.Add(prod, prod)
		if err != nil {
			return Operand{}, err
		}
		ct, err := b.Sub(sum, twice)
		return Operand{Ct: ct}, err
	case x.IsCipher():
		return xorCipherPlain(b, x.Ct, y.Vals)
	case y.IsCipher():
		return xorCipherPlain(b, y.Ct, x.Vals)
	default:
		t := b.PlainModulus()
		vals := make([]uint64, b.Slots())
		for i := range vals {
			vals[i] = plainXor(x.Vals[i], y.Vals[i], t)
		}
		return NewPlain(b, vals)
	}
}

func plainXor(a, m, t uint64) uint64 {
	sum := (a + m) % t
	prod2 := 2 * (a % t) * (m % t) % t
	return (sum + t - prod2) % t
}

func xorCipherPlain(b Backend, ct Ciphertext, mask []uint64) (Operand, error) {
	t := b.PlainModulus()
	coef := make([]uint64, b.Slots())
	add := make([]uint64, b.Slots())
	for i, m := range mask {
		coef[i] = (1 + t - (2*m)%t) % t // 1 - 2m
		add[i] = m % t
	}
	coefPt, err := b.EncodePlain(coef)
	if err != nil {
		return Operand{}, err
	}
	addPt, err := b.EncodePlain(add)
	if err != nil {
		return Operand{}, err
	}
	scaled, err := b.MulPlain(ct, coefPt)
	if err != nil {
		return Operand{}, err
	}
	out, err := b.AddPlain(scaled, addPt)
	return Operand{Ct: out}, err
}

// Not returns 1 − x for a 0/1 operand.
func Not(b Backend, x Operand) (Operand, error) {
	ones := make([]uint64, b.Slots())
	for i := range ones {
		ones[i] = 1
	}
	if !x.IsCipher() {
		t := b.PlainModulus()
		vals := make([]uint64, b.Slots())
		for i := range vals {
			vals[i] = (1 + t - x.Vals[i]%t) % t
		}
		return NewPlain(b, vals)
	}
	neg, err := b.Neg(x.Ct)
	if err != nil {
		return Operand{}, err
	}
	onesPt, err := b.EncodePlain(ones)
	if err != nil {
		return Operand{}, err
	}
	out, err := b.AddPlain(neg, onesPt)
	return Operand{Ct: out}, err
}

// MulAll multiplies all operands together with a balanced product tree,
// giving multiplicative depth ceil(log2(len(ops))) — the paper's
// accumulation step (§3.3 step 4, Table 1c).
func MulAll(b Backend, ops []Operand) (Operand, error) {
	if len(ops) == 0 {
		return Operand{}, fmt.Errorf("he: MulAll of zero operands")
	}
	for len(ops) > 1 {
		next := make([]Operand, 0, (len(ops)+1)/2)
		for i := 0; i+1 < len(ops); i += 2 {
			p, err := Mul(b, ops[i], ops[i+1])
			if err != nil {
				return Operand{}, err
			}
			next = append(next, p)
		}
		if len(ops)%2 == 1 {
			next = append(next, ops[len(ops)-1])
		}
		ops = next
	}
	return ops[0], nil
}
