package matrix

import (
	"errors"
	"math/rand/v2"
	"slices"
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
// period) that a mat-vec over staged diagonals expects.
func replicatedPlain(v []uint64, period, slots int) []uint64 {
	out := make([]uint64, slots)
	for i := range out {
		if i%period < len(v) {
			out[i] = v[i%period]
		}
	}
	return out
}

// matVec evaluates, in the clear, the baby-step/giant-step identity the op
// program's mat-vec computes (internal/core) over d's staged operands:
//
//	M·v = Σ_g rot(Σ_j d_{g·Baby+j} ⊙ rot(v, j), g·Baby),
//
// rot a left rotation of the slot vector v, skipping the diagonals d
// records zero when skipZero.
func matVec(t *testing.T, b he.Backend, d *Diagonals, v []uint64, skipZero bool) []uint64 {
	t.Helper()
	n, mod := b.Slots(), b.PlainModulus()
	out := make([]uint64, n)
	for g := 0; g < d.Giant; g++ {
		for j := 0; j < d.Baby; j++ {
			i := g*d.Baby + j
			if skipZero && d.Zero[i] {
				continue
			}
			diag, err := he.Reveal(b, d.Ops[i])
			if err != nil {
				t.Fatal(err)
			}
			for s := range out {
				u := (s + g*d.Baby) % n
				out[s] = (out[s] + diag[u]*v[(u+j)%n]) % mod
			}
		}
	}
	return out
}

// TestMatVecMatchesPlain: the staged diagonals compute the plain product,
// over random shapes, for both plain and encrypted matrices, in the naive
// split.
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
		gotVals := matVec(t, b, d, replicatedPlain(v, period, b.Slots()), skipZero)
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
	gotVals := matVec(t, b, d, replicatedPlain(v, period, 32), false)
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

// TestZeroDiagonalsRecorded: staging records exactly the all-zero
// diagonals, which a plaintext model's program skips (the mechanism behind
// Figure 9), and skipping them leaves the product unchanged: a diagonal
// matrix has one non-zero diagonal of eight, the zero matrix none.
func TestZeroDiagonalsRecorded(t *testing.T) {
	b := heclear.New(32, 65537)
	diag := NewBool(8, 8)
	for i := 0; i < 8; i++ {
		diag.Set(i, i, 1)
	}
	v := replicatedPlain([]uint64{1, 0, 1, 1, 0, 0, 1, 0}, 8, 32)
	for name, m := range map[string]*Bool{"diagonal": diag, "zero": NewBool(8, 8)} {
		d, err := stage(b, m, 8, 8, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, z := range d.Zero {
			if want := name == "zero" || i > 0; z != want {
				t.Errorf("%s: diagonal %d recorded zero=%v", name, i, z)
			}
		}
		if full, skipped := matVec(t, b, d, v, false), matVec(t, b, d, v, true); !slices.Equal(full, skipped) {
			t.Errorf("%s: skipping the zero diagonals moved the product: %v, all of them %v", name, skipped, full)
		}
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
