package matrix

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"copse/internal/bits"
	"copse/internal/he"
	"copse/internal/he/heclear"
)

func randBool(r *rand.Rand, rows, cols int, density float64) *Bool {
	m := NewBool(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				m.Set(i, j, 1)
			}
		}
	}
	return m
}

// TestDiagonalsDefinition checks d_i[r] = M[r][(r+i) mod period].
func TestDiagonalsDefinition(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	m := randBool(r, 5, 3, 0.5)
	period := 4
	diags, err := m.Diagonals(period)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != period {
		t.Fatalf("got %d diagonals, want %d", len(diags), period)
	}
	for i := 0; i < period; i++ {
		for row := 0; row < m.Rows; row++ {
			c := (row + i) % period
			want := uint64(0)
			if c < m.Cols {
				want = m.At(row, c)
			}
			if diags[i][row] != want {
				t.Errorf("diag %d row %d: got %d want %d", i, row, diags[i][row], want)
			}
		}
	}
}

func TestDiagonalsErrors(t *testing.T) {
	m := NewBool(2, 5)
	if _, err := m.Diagonals(4); err == nil {
		t.Error("period below cols accepted")
	}
	if _, err := m.Diagonals(6); err == nil {
		t.Error("non-power-of-two period accepted")
	}
}

// stage prepares m in the single-query layout (span = all slots) at the
// chain top. matrix_test.go stages the degenerate split baby = period,
// giant = 1 — the naive one-rotation-per-diagonal kernel; bsgs_test.go
// covers proper splits.
func stage(b he.Backend, m *Bool, period, baby, giant int, encrypt bool) (*Diagonals, error) {
	return PrepareDiagonalsBSGSSpanAt(b, m, period, baby, giant, b.Slots(), encrypt, -1)
}

// replicatedPlain builds the slot-periodic layout of v (padded to
// period) that MatVecBSGS expects.
func replicatedPlain(v []uint64, period, slots int) []uint64 {
	out := make([]uint64, slots)
	for i := range out {
		if i%period < len(v) {
			out[i] = v[i%period]
		}
	}
	return out
}

// TestMatVecMatchesPlain: homomorphic MatVec equals the plain product,
// over random shapes, for both plain and encrypted matrices.
func TestMatVecMatchesPlain(t *testing.T) {
	b := heclear.New(64, 65537)
	f := func(seed uint64, rRaw, cRaw uint8, encryptMat, skipZero bool) bool {
		rows := int(rRaw%10) + 1
		cols := int(cRaw%10) + 1
		if skipZero && encryptMat {
			skipZero = false // skipping is only allowed for plaintext models
		}
		r := rand.New(rand.NewPCG(seed, 2))
		m := randBool(r, rows, cols, 0.4)
		v := make([]uint64, cols)
		for i := range v {
			v[i] = uint64(r.IntN(2))
		}
		period := bits.NextPow2(cols)
		d, err := stage(b, m, period, period, 1, encryptMat)
		if err != nil {
			return false
		}
		ct, err := b.Encrypt(replicatedPlain(v, period, b.Slots()))
		if err != nil {
			return false
		}
		got, err := MatVecBSGS(b, d, he.Cipher(ct), skipZero, 1)
		if err != nil {
			return false
		}
		gotVals, err := he.Reveal(b, got)
		if err != nil {
			return false
		}
		want, err := m.MulVec(v)
		if err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			if gotVals[i] != want[i]%65537 {
				return false
			}
		}
		// Slots beyond rows must be clean zeros (the next pipeline stage
		// relies on this).
		for i := rows; i < b.Slots(); i++ {
			if gotVals[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMatVecTallMatrix checks the m > n cyclic-extension case from
// Halevi–Shoup (§4.1.2).
func TestMatVecTallMatrix(t *testing.T) {
	b := heclear.New(32, 65537)
	m := NewBool(7, 2) // 7 rows, 2 cols
	r := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 7; i++ {
		m.Set(i, r.IntN(2), 1)
	}
	v := []uint64{1, 0}
	period := 2
	d, err := stage(b, m, period, period, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := b.Encrypt(replicatedPlain(v, period, 32))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MatVecBSGS(b, d, he.Cipher(ct), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotVals, err := he.Reveal(b, got)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MulVec(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotVals[i] != want[i] {
			t.Errorf("row %d: got %d want %d", i, gotVals[i], want[i])
		}
	}
}

func TestMatVecWorkersMatchSerial(t *testing.T) {
	b := heclear.New(64, 65537)
	r := rand.New(rand.NewPCG(4, 4))
	m := randBool(r, 20, 13, 0.3)
	v := make([]uint64, 13)
	for i := range v {
		v[i] = uint64(r.IntN(2))
	}
	period := bits.NextPow2(13)
	baby, giant := BSGSSplit(period)
	d, err := stage(b, m, period, baby, giant, false)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := b.Encrypt(replicatedPlain(v, period, 64))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := MatVecBSGS(b, d, he.Cipher(ct), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MatVecBSGS(b, d, he.Cipher(ct), false, 8)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := he.Reveal(b, serial)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := he.Reveal(b, parallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if sv[i] != pv[i] {
			t.Fatalf("slot %d: serial %d vs parallel %d", i, sv[i], pv[i])
		}
	}
}

// TestSkipZeroSavesWork: the plaintext-model optimization must reduce
// rotations/multiplications without changing the result (this is the
// mechanism behind Figure 9).
func TestSkipZeroSavesWork(t *testing.T) {
	b := heclear.New(32, 65537)
	m := NewBool(8, 8) // permutation-like sparse matrix: most diagonals zero
	for i := 0; i < 8; i++ {
		m.Set(i, i, 1)
	}
	d, err := stage(b, m, 8, 8, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	v := []uint64{1, 0, 1, 1, 0, 0, 1, 0}
	ct, err := b.Encrypt(replicatedPlain(v, 8, 32))
	if err != nil {
		t.Fatal(err)
	}

	b.ResetCounts()
	full, err := MatVecBSGS(b, d, he.Cipher(ct), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullCounts := b.Counts()

	b.ResetCounts()
	skipped, err := MatVecBSGS(b, d, he.Cipher(ct), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	skipCounts := b.Counts()

	if skipCounts.ConstMul >= fullCounts.ConstMul {
		t.Errorf("skipZero did not reduce multiplications: %d vs %d", skipCounts.ConstMul, fullCounts.ConstMul)
	}
	fv, err := he.Reveal(b, full)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := he.Reveal(b, skipped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fv {
		if fv[i] != sv[i] {
			t.Fatalf("slot %d differs: %d vs %d", i, fv[i], sv[i])
		}
	}
}

func TestMatVecAllZeroMatrix(t *testing.T) {
	b := heclear.New(16, 65537)
	m := NewBool(4, 4)
	d, err := stage(b, m, 4, 4, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := b.Encrypt([]uint64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := MatVecBSGS(b, d, he.Cipher(ct), true, 1)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := he.Reveal(b, out)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != 0 {
			t.Errorf("slot %d = %d, want 0", i, v)
		}
	}
}

func TestReplicate(t *testing.T) {
	b := heclear.New(32, 65537)
	v := []uint64{5, 6, 7, 0} // logical width 4, stored in [0,4)
	ct, err := b.Encrypt(v)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replicate(b, he.Cipher(ct), 4)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := he.Reveal(b, rep)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if vals[i] != v[i%4] {
			t.Errorf("slot %d: got %d want %d", i, vals[i], v[i%4])
		}
	}
	if _, err := Replicate(b, he.Cipher(ct), 3); err == nil {
		t.Error("non-power-of-two width accepted")
	}
	// width == slots is a no-op.
	same, err := Replicate(b, he.Cipher(ct), 32)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := he.Reveal(b, same)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := he.Reveal(b, he.Cipher(ct))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sv {
		if sv[i] != orig[i] {
			t.Errorf("full-width replicate changed slot %d", i)
		}
	}
}

func TestPad(t *testing.T) {
	got := Pad([]uint64{1, 2, 3}, 0)
	if len(got) != 4 || got[0] != 1 || got[3] != 0 {
		t.Errorf("Pad = %v", got)
	}
	got = Pad([]uint64{1}, 7)
	if len(got) != 8 {
		t.Errorf("Pad with min: len %d, want 8", len(got))
	}
}

func TestParallelFor(t *testing.T) {
	sum := make([]int, 100)
	if err := ParallelFor(100, 8, func(i int) error {
		sum[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		if sum[i] != i*i {
			t.Fatalf("index %d not processed", i)
		}
	}
	wantErr := errors.New("boom")
	err := ParallelFor(50, 4, func(i int) error {
		if i == 17 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("got err %v, want boom", err)
	}
	// Serial path.
	if err := ParallelFor(3, 1, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecDimensionError(t *testing.T) {
	m := NewBool(2, 3)
	if _, err := m.MulVec([]uint64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestPrepareDiagonalsTooBig(t *testing.T) {
	b := heclear.New(8, 65537)
	if _, err := stage(b, NewBool(9, 2), 2, 2, 1, false); err == nil {
		t.Error("matrix taller than slots accepted")
	}
	if _, err := stage(b, NewBool(2, 9), 16, 16, 1, false); err == nil {
		t.Error("period wider than slots accepted")
	}
}
