package matrix

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"copse/internal/bits"
	"copse/internal/he/heclear"
)

func TestBSGSSplit(t *testing.T) {
	cases := []struct{ period, baby, giant int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4},
		{32, 8, 4}, {64, 8, 8}, {1024, 32, 32},
	}
	for _, c := range cases {
		baby, giant := BSGSSplit(c.period)
		if baby != c.baby || giant != c.giant {
			t.Errorf("BSGSSplit(%d) = (%d, %d), want (%d, %d)", c.period, baby, giant, c.baby, c.giant)
		}
		if baby*giant != max(c.period, 1) {
			t.Errorf("BSGSSplit(%d): %d·%d != period", c.period, baby, giant)
		}
	}
}

// TestBSGSStagingMatchesPlain: the diagonals staged for a BSGS split
// compute the plain product over random shapes, for plain and encrypted matrices, with and without
// zero skipping.
func TestBSGSStagingMatchesPlain(t *testing.T) {
	b := heclear.New(64, 65537)
	f := func(seed uint64, rRaw, cRaw uint8, encryptMat, skipZero bool) bool {
		rows := int(rRaw%10) + 1
		cols := int(cRaw%10) + 1
		if skipZero && encryptMat {
			skipZero = false
		}
		r := rand.New(rand.NewPCG(seed, 2))
		m := randBool(r, rows, cols, 0.4)
		v := make([]uint64, cols)
		for i := range v {
			v[i] = uint64(r.IntN(2))
		}
		period := bits.NextPow2(cols)
		baby, giant := BSGSSplit(period)
		d, err := stage(b, m, period, baby, giant, encryptMat)
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
		for i := rows; i < b.Slots(); i++ {
			if gotVals[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPrepareDiagonalsBSGSBadSplit(t *testing.T) {
	b := heclear.New(16, 65537)
	if _, err := stage(b, NewBool(4, 4), 4, 3, 2, false); err == nil {
		t.Error("split not factoring period accepted")
	}
	if _, err := stage(b, NewBool(4, 4), 32, 8, 4, false); err == nil {
		t.Error("period wider than slots accepted")
	}
}

// TestPrepareDiagonalsBSGSBlocksMatchesPlain is the block-diagonal
// staging property test: with an independent random matrix per slot
// block and a block-periodic vector carrying an independent payload per
// block, one mat-vec over the staged diagonals computes every block's own
// M_k·v_k.
func TestPrepareDiagonalsBSGSBlocksMatchesPlain(t *testing.T) {
	const slots, span = 64, 16
	b := heclear.New(slots, 65537)
	blocks := slots / span
	f := func(seed uint64, rRaw, cRaw uint8, skipZero bool) bool {
		r := rand.New(rand.NewPCG(seed, 9))
		rows := int(rRaw%5) + 1
		cols := int(cRaw%5) + 1
		period := bits.NextPow2(cols)
		if rows+period-2 >= span {
			rows = span - period + 1 // keep reads inside the block
		}
		mats := make([]*Bool, blocks)
		vecs := make([][]uint64, blocks)
		packed := make([]uint64, slots)
		for k := range mats {
			mats[k] = randBool(r, rows, cols, 0.4)
			v := make([]uint64, cols)
			for i := range v {
				v[i] = uint64(r.IntN(2))
			}
			vecs[k] = v
			// period-periodic within block k only.
			for off := 0; off < span; off += period {
				copy(packed[k*span+off:k*span+off+len(v)], v)
			}
		}
		baby, giant := BSGSSplit(period)
		d, err := PrepareDiagonalsBSGSBlocksAt(b, mats, nil, period, baby, giant, span, false, -1)
		if err != nil {
			t.Logf("prepare: %v", err)
			return false
		}
		gotVals := matVec(t, b, d, packed, skipZero)
		for k := range mats {
			want, err := mats[k].MulVec(vecs[k])
			if err != nil {
				return false
			}
			for i := 0; i < rows; i++ {
				if gotVals[k*span+i] != want[i]%65537 {
					t.Logf("block %d row %d: got %d want %d", k, i, gotVals[k*span+i], want[i]%65537)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRowCoefficientSurvivesPreRotation: a row coefficient is applied to
// the plaintext diagonals before the giant-step pre-rotation moves them, so
// it must land on its own row whatever giant group the diagonal belongs to:
// with an independent matrix and coefficient vector per block (signs 1 and
// t − 1, zeros, arbitrary residues, and a block without coefficients), one
// mat-vec computes diag(c_k)·M_k·v_k in every block, under every split
// of the period, and a row scaled by zero makes its diagonals skippable.
func TestRowCoefficientSurvivesPreRotation(t *testing.T) {
	const slots, span, rows, cols, period, modulus = 128, 32, 13, 16, 16, 65537
	b := heclear.New(slots, modulus)
	r := rand.New(rand.NewPCG(20, 1))
	blocks := slots / span
	mats, coefs, vecs := make([]*Bool, blocks), make([][]uint64, blocks), make([][]uint64, blocks)
	packed := make([]uint64, slots)
	for k := range mats {
		mats[k] = randBool(r, rows, cols, 0.5)
		vecs[k] = make([]uint64, cols)
		for i := range vecs[k] {
			vecs[k][i] = uint64(r.IntN(2))
		}
		for off := 0; off < span; off += period {
			copy(packed[k*span+off:], vecs[k])
		}
		if k == blocks-1 {
			continue // no coefficients: all ones
		}
		coefs[k] = make([]uint64, rows)
		for i := range coefs[k] {
			coefs[k][i] = []uint64{1, modulus - 1, 0, r.Uint64N(modulus)}[r.IntN(4)]
		}
	}
	for _, split := range [][2]int{{4, 4}, {16, 1}, {2, 8}, {1, 16}} {
		for _, skipZero := range []bool{false, true} {
			d, err := PrepareDiagonalsBSGSBlocksAt(b, mats, coefs, period, split[0], split[1], span, false, -1)
			if err != nil {
				t.Fatal(err)
			}
			vals := matVec(t, b, d, packed, skipZero)
			for k := range mats {
				want, err := mats[k].MulVec(vecs[k])
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if coefs[k] != nil {
						want[i] = want[i] * coefs[k][i] % modulus
					}
					if vals[k*span+i] != want[i] {
						t.Errorf("split %v skipZero=%v block %d row %d: got %d, want %d", split, skipZero, k, i, vals[k*span+i], want[i])
					}
				}
			}
		}
	}
	zeroed := make([][]uint64, blocks)
	for k := range zeroed {
		zeroed[k] = make([]uint64, rows)
	}
	d, err := PrepareDiagonalsBSGSBlocksAt(b, mats, zeroed, period, 4, 4, span, false, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i, z := range d.Zero {
		if !z {
			t.Errorf("diagonal %d of an all-zero scaling is not recorded zero", i)
		}
	}
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, mats, zeroed[:1], period, 4, 4, span, false, -1); err == nil {
		t.Error("coefficient vectors not matching the blocks accepted")
	}
	zeroed[1] = zeroed[1][:rows-1]
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, mats, zeroed, period, 4, 4, span, false, -1); err == nil {
		t.Error("coefficient vector not matching the rows accepted")
	}
}

func TestPrepareDiagonalsBSGSBlocksErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	mk := func(n int, rows, cols int) []*Bool {
		out := make([]*Bool, n)
		for i := range out {
			out[i] = NewBool(rows, cols)
		}
		return out
	}
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, mk(2, 4, 4), nil, 4, 2, 2, 16, false, -1); err == nil {
		t.Error("block count not matching slots/span accepted")
	}
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, nil, nil, 4, 2, 2, 16, false, -1); err == nil {
		t.Error("empty block list accepted")
	}
	mixed := mk(4, 4, 4)
	mixed[2] = NewBool(3, 4)
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, mixed, nil, 4, 2, 2, 16, false, -1); err == nil {
		t.Error("mismatched block shapes accepted")
	}
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, mk(4, 4, 4), nil, 4, 3, 2, 16, false, -1); err == nil {
		t.Error("split not factoring period accepted")
	}
	if _, err := PrepareDiagonalsBSGSBlocksAt(b, mk(4, 15, 8), nil, 8, 4, 2, 16, false, -1); err == nil {
		t.Error("reads crossing blocks accepted")
	}
}
