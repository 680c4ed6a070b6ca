package bgv

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

type testKit struct {
	params *Parameters
	enc    *Encoder
	encr   *Encryptor
	dec    *Decryptor
	eval   *Evaluator
	sk     *SecretKey
}

// newTestKit builds a full BGV instance with Galois keys for the given
// rotation steps (power-of-two steps are always included).
func newTestKit(t *testing.T, levels int, steps []int) *testKit {
	t.Helper()
	params, err := NewParameters(TestParams(levels))
	if err != nil {
		t.Fatalf("NewParameters: %v", err)
	}
	kg := NewSeededKeyGenerator(params, 1234)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	allSteps := append(PowerOfTwoSteps(params.Slots()), steps...)
	keys, err := kg.GenEvaluationKeys(sk, allSteps)
	if err != nil {
		t.Fatalf("GenEvaluationKeys: %v", err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	return &testKit{
		params: params,
		enc:    enc,
		encr:   NewSeededEncryptor(params, pk, 99),
		dec:    NewDecryptor(params, sk),
		eval:   NewEvaluator(params, keys),
		sk:     sk,
	}
}

func (k *testKit) encryptVec(t *testing.T, vals []uint64) *Ciphertext {
	t.Helper()
	pt, err := k.enc.Encode(vals)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return k.encr.Encrypt(pt)
}

func (k *testKit) decryptVec(t *testing.T, ct *Ciphertext) []uint64 {
	t.Helper()
	pt, err := k.dec.Decrypt(ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	return k.enc.Decode(pt)
}

func randVec(r *rand.Rand, n int, t uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.Uint64N(t)
	}
	return v
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	params, err := NewParameters(TestParams(2))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 10; trial++ {
		vals := randVec(r, params.Slots(), params.T)
		pt, err := enc.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		got := enc.Decode(pt)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("slot %d: got %d want %d", i, got[i], vals[i])
			}
		}
	}
}

// TestEncodeIsSlotwise: products/sums of plaintexts act slot-wise.
func TestEncodeIsSlotwise(t *testing.T) {
	kit := newTestKit(t, 3, nil)
	r := rand.New(rand.NewPCG(2, 2))
	a := randVec(r, kit.params.Slots(), kit.params.T)
	b := randVec(r, kit.params.Slots(), kit.params.T)
	cta := kit.encryptVec(t, a)
	ptb, err := kit.enc.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := kit.eval.MulPlain(cta, ptb)
	if err != nil {
		t.Fatal(err)
	}
	got := kit.decryptVec(t, prod)
	for i := range a {
		want := a[i] * b[i] % kit.params.T
		if got[i] != want {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want)
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	kit := newTestKit(t, 2, nil)
	r := rand.New(rand.NewPCG(3, 3))
	vals := randVec(r, kit.params.Slots(), kit.params.T)
	ct := kit.encryptVec(t, vals)
	if budget := kit.dec.NoiseBudget(ct); budget <= 0 {
		t.Fatalf("fresh ciphertext has no noise budget: %d", budget)
	}
	got := kit.decryptVec(t, ct)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], vals[i])
		}
	}
}

func TestHomomorphicAddSubNeg(t *testing.T) {
	kit := newTestKit(t, 2, nil)
	r := rand.New(rand.NewPCG(4, 4))
	a := randVec(r, kit.params.Slots(), kit.params.T)
	b := randVec(r, kit.params.Slots(), kit.params.T)
	cta, ctb := kit.encryptVec(t, a), kit.encryptVec(t, b)

	sum, err := kit.eval.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := kit.eval.Sub(sum, ctb)
	if err != nil {
		t.Fatal(err)
	}
	gotSum := kit.decryptVec(t, sum)
	gotDiff := kit.decryptVec(t, diff)
	T := kit.params.T
	for i := range a {
		if gotSum[i] != (a[i]+b[i])%T {
			t.Fatalf("add slot %d: got %d want %d", i, gotSum[i], (a[i]+b[i])%T)
		}
		if gotDiff[i] != a[i] {
			t.Fatalf("a+b-b slot %d: got %d want %d", i, gotDiff[i], a[i])
		}
	}

	neg, err := kit.eval.Neg(cta)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := kit.eval.Add(cta, neg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range kit.decryptVec(t, zero) {
		if v != 0 {
			t.Fatalf("a + (-a) slot %d = %d", i, v)
		}
	}
}

func TestHomomorphicAddPlainMulScalar(t *testing.T) {
	kit := newTestKit(t, 2, nil)
	r := rand.New(rand.NewPCG(5, 5))
	a := randVec(r, kit.params.Slots(), kit.params.T)
	b := randVec(r, kit.params.Slots(), kit.params.T)
	cta := kit.encryptVec(t, a)
	ptb, err := kit.enc.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := kit.eval.AddPlain(cta, ptb)
	if err != nil {
		t.Fatal(err)
	}
	T := kit.params.T
	for i, v := range kit.decryptVec(t, sum) {
		if v != (a[i]+b[i])%T {
			t.Fatalf("addplain slot %d: got %d want %d", i, v, (a[i]+b[i])%T)
		}
	}
	scaled, err := kit.eval.MulScalar(cta, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range kit.decryptVec(t, scaled) {
		if v != a[i]*7%T {
			t.Fatalf("mulscalar slot %d: got %d want %d", i, v, a[i]*7%T)
		}
	}
}

func TestHomomorphicMul(t *testing.T) {
	kit := newTestKit(t, 3, nil)
	r := rand.New(rand.NewPCG(6, 6))
	a := randVec(r, kit.params.Slots(), kit.params.T)
	b := randVec(r, kit.params.Slots(), kit.params.T)
	cta, ctb := kit.encryptVec(t, a), kit.encryptVec(t, b)
	prod, err := kit.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	if budget := kit.dec.NoiseBudget(prod); budget <= 0 {
		t.Fatalf("product has no noise budget: %d", budget)
	}
	T := kit.params.T
	for i, v := range kit.decryptVec(t, prod) {
		want := a[i] * b[i] % T
		if v != want {
			t.Fatalf("mul slot %d: got %d want %d", i, v, want)
		}
	}
}

// TestMulChain multiplies to the depth the chain supports and checks
// correctness at every step, then verifies that exceeding the chain
// fails cleanly.
func TestMulChain(t *testing.T) {
	const levels = 5
	kit := newTestKit(t, levels, nil)
	slots := kit.params.Slots()
	T := kit.params.T

	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = uint64(i%5 + 1)
	}
	want := make([]uint64, slots)
	copy(want, vals)
	ct := kit.encryptVec(t, vals)

	depth := 0
	for {
		next, err := kit.eval.Mul(ct, ct)
		if err != nil {
			break
		}
		ct = next
		depth++
		for i := range want {
			want[i] = want[i] * want[i] % T
		}
		got := kit.decryptVec(t, ct)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("depth %d slot %d: got %d want %d", depth, i, got[i], want[i])
			}
		}
		if depth > levels {
			t.Fatalf("chain supported %d multiplications with only %d levels", depth, levels)
		}
	}
	if depth < levels-2 {
		t.Errorf("chain supported only %d multiplications with %d levels", depth, levels)
	}
}

func TestRotate(t *testing.T) {
	kit := newTestKit(t, 2, []int{1, 3, 7})
	slots := kit.params.Slots()
	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = uint64(i)
	}
	ct := kit.encryptVec(t, vals)
	for _, step := range []int{0, 1, 3, 7, -1, 100, slots - 1} {
		rot, err := kit.eval.Rotate(ct, step)
		if err != nil {
			t.Fatalf("Rotate(%d): %v", step, err)
		}
		got := kit.decryptVec(t, rot)
		for i := range got {
			want := vals[((i+step)%slots+slots)%slots]
			if got[i] != want {
				t.Fatalf("Rotate(%d) slot %d: got %d want %d", step, i, got[i], want)
			}
		}
	}
}

// TestRotateComposed exercises rotations that have no dedicated key and
// must be composed from power-of-two hops.
func TestRotateComposed(t *testing.T) {
	kit := newTestKit(t, 2, nil) // only power-of-two keys
	slots := kit.params.Slots()
	vals := make([]uint64, slots)
	for i := range vals {
		vals[i] = uint64(i * 3 % 1000)
	}
	ct := kit.encryptVec(t, vals)
	for _, step := range []int{5, 11, 37, slots/2 + 1} {
		rot, err := kit.eval.Rotate(ct, step)
		if err != nil {
			t.Fatalf("Rotate(%d): %v", step, err)
		}
		got := kit.decryptVec(t, rot)
		for i := range got {
			want := vals[(i+step)%slots]
			if got[i] != want {
				t.Fatalf("composed Rotate(%d) slot %d: got %d want %d", step, i, got[i], want)
			}
		}
	}
}

func TestModSwitchPreservesPlaintext(t *testing.T) {
	kit := newTestKit(t, 4, nil)
	r := rand.New(rand.NewPCG(7, 7))
	vals := randVec(r, kit.params.Slots(), kit.params.T)
	ct := kit.encryptVec(t, vals)
	for ct.Level() > 0 {
		if err := kit.eval.ModSwitch(ct); err != nil {
			t.Fatal(err)
		}
		got := kit.decryptVec(t, ct)
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("level %d slot %d: got %d want %d", ct.Level(), i, got[i], vals[i])
			}
		}
	}
	if err := kit.eval.ModSwitch(ct); err == nil {
		t.Error("ModSwitch at level 0 should fail")
	}
}

// TestHomomorphicPropertyQuick is a property test: for random vectors,
// Dec(Enc(a) ⊕ Enc(b)) == a ⊕ b for ⊕ ∈ {+, ·}.
func TestHomomorphicPropertyQuick(t *testing.T) {
	kit := newTestKit(t, 3, nil)
	slots := kit.params.Slots()
	T := kit.params.T
	f := func(seed uint64, useMul bool) bool {
		r := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		a := randVec(r, slots, T)
		b := randVec(r, slots, T)
		cta, ctb := kit.encryptVec(t, a), kit.encryptVec(t, b)
		var res *Ciphertext
		var err error
		if useMul {
			res, err = kit.eval.Mul(cta, ctb)
		} else {
			res, err = kit.eval.Add(cta, ctb)
		}
		if err != nil {
			return false
		}
		got := kit.decryptVec(t, res)
		for i := range a {
			want := (a[i] + b[i]) % T
			if useMul {
				want = a[i] * b[i] % T
			}
			if got[i] != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestParamsValidate(t *testing.T) {
	good := TestParams(3)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{LogN: 2, T: 65537, PrimeBits: 55, Levels: 2, DigitBits: 30},
		{LogN: 11, T: 100, PrimeBits: 55, Levels: 2, DigitBits: 30},
		{LogN: 11, T: 65537, PrimeBits: 10, Levels: 2, DigitBits: 30},
		{LogN: 11, T: 65537, PrimeBits: 55, Levels: 0, DigitBits: 30},
		{LogN: 11, T: 65537, PrimeBits: 55, Levels: 2, DigitBits: 60},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestParamsForSlots pins the slots→ring table.
func TestParamsForSlots(t *testing.T) {
	for _, slots := range []int{1024, 2048, 16384} {
		p, err := ParamsForSlots(slots, 10)
		if err != nil {
			t.Fatalf("slots %d: %v", slots, err)
		}
		if p.Slots() != slots || p.Levels != 10 {
			t.Errorf("slots %d: ring packs %d slots over %d levels", slots, p.Slots(), p.Levels)
		}
	}
	_, err := ParamsForSlots(64, 10)
	if err == nil || !strings.Contains(err.Error(), "1024, 2048 or 16384") {
		t.Errorf("64 slots: %v, want a refusal naming 1024, 2048 or 16384", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	params, err := NewParameters(TestParams(1))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(make([]uint64, params.Slots()+1)); err == nil {
		t.Error("oversized vector accepted")
	}
	if _, err := enc.Encode([]uint64{params.T}); err == nil {
		t.Error("out-of-range value accepted")
	}
}
