package he_test

import (
	"math/rand/v2"
	"testing"

	"copse/internal/he"
	"copse/internal/he/heclear"
)

func bitsVec(r *rand.Rand, n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(r.IntN(2))
	}
	return v
}

// operandFor returns vals as either a cipher or plain operand.
func operandFor(t *testing.T, b he.Backend, vals []uint64, cipher bool) he.Operand {
	t.Helper()
	if cipher {
		ct, err := b.Encrypt(vals)
		if err != nil {
			t.Fatal(err)
		}
		return he.Cipher(ct)
	}
	op, err := he.NewPlain(b, vals)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestOperandAlgebra checks Add/Mul/Sub over every cipher/plain
// combination against direct boolean arithmetic.
func TestOperandAlgebra(t *testing.T) {
	b := heclear.New(16, 65537)
	r := rand.New(rand.NewPCG(1, 1))
	for _, xCipher := range []bool{true, false} {
		for _, yCipher := range []bool{true, false} {
			x := bitsVec(r, 16)
			y := bitsVec(r, 16)
			ox := operandFor(t, b, x, xCipher)
			oy := operandFor(t, b, y, yCipher)

			check := func(name string, got he.Operand, f func(a, c uint64) uint64) {
				vals, err := he.Reveal(b, got)
				if err != nil {
					t.Fatalf("%s reveal: %v", name, err)
				}
				for i := range x {
					if vals[i] != f(x[i], y[i]) {
						t.Fatalf("%s (cipher=%v,%v) slot %d: got %d want %d",
							name, xCipher, yCipher, i, vals[i], f(x[i], y[i]))
					}
				}
			}

			sum, err := he.Add(b, ox, oy)
			if err != nil {
				t.Fatal(err)
			}
			check("add", sum, func(a, c uint64) uint64 { return a + c })

			prod, err := he.Mul(b, ox, oy)
			if err != nil {
				t.Fatal(err)
			}
			check("mul", prod, func(a, c uint64) uint64 { return a * c })

			diff, err := he.Sub(b, ox, oy)
			if err != nil {
				t.Fatal(err)
			}
			check("sub", diff, func(a, c uint64) uint64 { return (a + 65537 - c) % 65537 })
		}
	}
}

func TestRotateOperand(t *testing.T) {
	b := heclear.New(8, 65537)
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, cipher := range []bool{true, false} {
		op := operandFor(t, b, vals, cipher)
		rot, err := he.Rotate(b, op, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := he.Reveal(b, rot)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			want := vals[(i+3)%8]
			if got[i] != want {
				t.Errorf("cipher=%v slot %d: got %d want %d", cipher, i, got[i], want)
			}
		}
	}
}

func TestOpCountsMinus(t *testing.T) {
	a := he.OpCounts{Encrypt: 5, Rotate: 4, Add: 10, ConstAdd: 2, Mul: 7, ConstMul: 3, MaxDepth: 4, RotateHoisted: 3, Relin: 2}
	b := he.OpCounts{Encrypt: 1, Rotate: 1, Add: 4, ConstAdd: 1, Mul: 2, ConstMul: 1, MaxDepth: 2, RotateHoisted: 1, Relin: 1}
	d := a.Minus(b)
	if d.Encrypt != 4 || d.Rotate != 3 || d.Add != 6 || d.ConstAdd != 1 || d.Mul != 5 || d.ConstMul != 2 {
		t.Errorf("Minus: %+v", d)
	}
	if d.RotateHoisted != 2 || d.Relin != 1 {
		t.Errorf("Minus new counters: %+v", d)
	}
	if d.MaxDepth != 4 {
		t.Errorf("Minus should keep the minuend depth, got %d", d.MaxDepth)
	}
	if s := d.String(); s == "" {
		t.Error("empty String()")
	}
}

// TestRotateHoistedOperand: the batched helper must agree with repeated
// single rotations for both cipher and plain operands.
func TestRotateHoistedOperand(t *testing.T) {
	b := heclear.New(8, 65537)
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	steps := []int{0, 1, 3, 5}
	for _, cipher := range []bool{true, false} {
		op := operandFor(t, b, vals, cipher)
		outs, err := he.RotateHoisted(b, op, steps)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != len(steps) {
			t.Fatalf("got %d outputs for %d steps", len(outs), len(steps))
		}
		for si, step := range steps {
			got, err := he.Reveal(b, outs[si])
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if want := vals[(i+step)%8]; got[i] != want {
					t.Errorf("cipher=%v step %d slot %d: got %d want %d", cipher, step, i, got[i], want)
				}
			}
		}
	}
}

// TestMulLazyRelinearize: a sum of lazy products finalized once must
// equal the eager equivalent, and hoisted rotations must be counted.
func TestMulLazyRelinearize(t *testing.T) {
	b := heclear.New(8, 65537)
	x := operandFor(t, b, []uint64{1, 2, 3, 4, 5, 6, 7, 8}, true)
	y := operandFor(t, b, []uint64{2, 2, 2, 2, 2, 2, 2, 2}, true)
	p1, err := he.MulLazy(b, x, y)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := he.MulLazy(b, x, x)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := he.Add(b, p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	sum, err = he.Relinearize(b, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := he.Reveal(b, sum)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		v := i + 1
		if want := (2*v + v*v) % 65537; got[i] != want {
			t.Errorf("slot %d: got %d want %d", i, got[i], want)
		}
	}
	// Plain operands pass through Relinearize untouched.
	plain := operandFor(t, b, []uint64{9, 9, 9, 9, 9, 9, 9, 9}, false)
	back, err := he.Relinearize(b, plain)
	if err != nil {
		t.Fatal(err)
	}
	if back.IsCipher() {
		t.Error("Relinearize turned a plain operand into a ciphertext")
	}
}
