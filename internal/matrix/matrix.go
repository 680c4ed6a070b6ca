// Package matrix implements the boolean matrices and the staging of the
// Halevi–Shoup generalized-diagonal matrix/vector kernel of the paper's
// §4.1.2: a matrix is stored as its wrapped diagonals so that M·v becomes
// Σ_i d_i ⊙ rot(v, i) — a constant multiplicative depth of 1 regardless
// of the matrix size. The op program (internal/core) evaluates the
// product over the staged diagonals, one he.MulDiagSum per giant step.
package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"copse/internal/he"
)

// Bool is a dense 0/1 matrix.
type Bool struct {
	Rows, Cols int
	data       []uint64
}

// NewBool allocates a zero rows×cols matrix.
func NewBool(rows, cols int) *Bool {
	return &Bool{Rows: rows, Cols: cols, data: make([]uint64, rows*cols)}
}

// At returns entry (i, j).
func (m *Bool) At(i, j int) uint64 { return m.data[i*m.Cols+j] }

// GobEncode implements gob.GobEncoder. The entries are unexported, so
// gob calls GobEncode and GobDecode to write and read every artifact's
// Reshuffle and Levels: without them an artifact ships its matrices
// with no entries.
func (m *Bool) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range []any{m.Rows, m.Cols, m.data} {
		if err := enc.Encode(v); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Bool) GobDecode(p []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(p))
	if err := dec.Decode(&m.Rows); err != nil {
		return err
	}
	if err := dec.Decode(&m.Cols); err != nil {
		return err
	}
	if err := dec.Decode(&m.data); err != nil {
		return err
	}
	if len(m.data) != m.Rows*m.Cols {
		return fmt.Errorf("matrix: corrupt gob payload: %d entries for %dx%d", len(m.data), m.Rows, m.Cols)
	}
	return nil
}

// Set writes entry (i, j).
func (m *Bool) Set(i, j int, v uint64) { m.data[i*m.Cols+j] = v & 1 }

// MulVec computes M·v over plain integers (mod nothing; inputs are 0/1),
// the reference for the homomorphic kernel.
func (m *Bool) MulVec(v []uint64) ([]uint64, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("matrix: vector length %d != %d columns", len(v), m.Cols)
	}
	out := make([]uint64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s uint64
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Diagonals returns the generalized diagonals of m, padded to `period`
// columns (period must be a power of two ≥ Cols so that slot-row
// rotations implement the wrapped indexing — see DESIGN.md §6). Diagonal
// i has length Rows with d_i[r] = M[r][(r+i) mod period], where columns
// ≥ Cols read as zero.
func (m *Bool) Diagonals(period int) ([][]uint64, error) {
	if period < m.Cols {
		return nil, fmt.Errorf("matrix: period %d below %d columns", period, m.Cols)
	}
	if period&(period-1) != 0 {
		return nil, fmt.Errorf("matrix: period %d is not a power of two", period)
	}
	out := make([][]uint64, period)
	for i := range out {
		d := make([]uint64, m.Rows)
		for r := 0; r < m.Rows; r++ {
			c := (r + i) % period
			if c < m.Cols {
				d[r] = m.At(r, c)
			}
		}
		out[i] = d
	}
	return out, nil
}

// Diagonals is a matrix prepared for homomorphic multiplication in the
// baby-step/giant-step layout: diagonal g·Baby+j is stored pre-rotated
// right by g·Baby in Ops[g·Baby+j], so the kernel needs only Baby−1
// rotations of the vector plus Giant−1 rotations of the partial sums —
// ~2·√Period instead of the naive kernel's Period−1. The split is
// BSGSSplit(Period), the one split every matrix is staged with.
//
// With a plaintext model the operands are plain, all-zero diagonals may
// be skipped, and they share one staged operand; with an encrypted model
// every diagonal is its own ciphertext and all must be processed
// (skipping would leak the branching structure — paper §7.1).
type Diagonals struct {
	Rows   int
	Period int
	// Baby, Giant = BSGSSplit(Period).
	Baby, Giant int
	Ops         []he.Operand
	Zero        []bool // plaintext-known zero diagonals
}

// BSGSSplit factors a power-of-two period into baby and giant step
// counts with baby·giant = period and baby = 2^ceil(log2(period)/2), the
// split minimizing baby+giant over powers of two. It is the one split
// rule: the stager and the program builder's worst-case shapes both take
// it from here.
func BSGSSplit(period int) (baby, giant int) {
	if period <= 1 {
		return 1, 1
	}
	log := 0
	for 1<<log < period {
		log++
	}
	baby = 1 << ((log + 1) / 2)
	return baby, period / baby
}

// checkSpan validates a slot-block width for blocked staging: span must
// be a power of two dividing the slot count, wide enough to hold both the
// matrix rows and the rotation period.
func checkSpan(b he.Backend, m *Bool, period, span int) error {
	slots := b.Slots()
	if m.Rows > slots || period > slots {
		return fmt.Errorf("matrix: %dx%d (period %d) exceeds %d slots", m.Rows, m.Cols, period, slots)
	}
	if span <= 0 || span&(span-1) != 0 || slots%span != 0 {
		return fmt.Errorf("matrix: span %d must be a power of two dividing %d slots", span, slots)
	}
	if m.Rows > span || period > span {
		return fmt.Errorf("matrix: span %d cannot hold %d rows (period %d)", span, m.Rows, period)
	}
	// With span = slots the ciphertext-wide rotation wrap covers reads
	// past the block edge (the vector is globally periodic). Smaller
	// blocks have no wrap: every read r + i (r < Rows, i < period) must
	// land inside the block or it would touch the neighbouring query.
	if span < slots && m.Rows+period-2 >= span {
		return fmt.Errorf("matrix: span %d too narrow for %d rows with period %d (reads would cross blocks)",
			span, m.Rows, period)
	}
	return nil
}

// PrepareDiagonalsAt builds the operand form of the block-diagonal
// matrix with mats[k] in the k-th span-aligned slot block, staged for the
// baby-step/giant-step kernel of the split BSGSSplit(period): diagonal
// i = g·baby+j is pre-rotated right by g·baby, so that
//
//	M·v = Σ_g rot( Σ_j d'_{g,j} ⊙ rot(v, j), g·baby )
//
// needs only (baby−1) + (giant−1) rotations. Pre-rotating happens on the
// plaintext diagonals before encryption/encoding, so it is free.
//
// Slot k·span + r + g·baby holds mats[k]'s d_{g·baby+j}[r]: against a
// vector whose blocks each carry an independent period-periodic query
// (see DESIGN.md §7), one kernel pass computes an independent
// matrix-vector product per block, so a caller that repeats one matrix
// in every block stages one product per packed query, and span =
// b.Slots() is the single-query layout. Per-block matrices are the
// batched result shuffle (one permutation per packed query, one set of
// rotations for the whole batch; DESIGN.md §10) and the level lanes (one
// level matrix per lane, the pattern repeated in every block; §13.5).
// len(mats) must equal slots/span and all matrices must share one shape.
// The block must absorb every read: Rows − 1 + period − 1 < span (COPSE
// stages span = 2·SPad for exactly this reason). A diagonal is recorded
// zero (skippable) only when it is zero in every block.
//
// coefs, when non-nil, scales the rows: block k stages diag(coefs[k])·mats[k]
// (a nil coefs[k] is all ones), the coefficients already reduced mod the
// plaintext modulus. A row's coefficient travels with the row through the
// giant-step pre-rotation, so the kernel is unchanged — this is how the
// level stage folds its mask's sign 1 − 2·m into the matrix (DESIGN.md
// §13.5).
//
// If encrypt is true the diagonals are encrypted; otherwise they are
// encoded plaintexts. The diagonals are staged as one set of mat-vec
// factors (he.StageFactorsAtLevel), in order: on a backend with fused
// diagonal sums (he.FactorSummer) in the form its sum multiplies
// fastest, and then an operand of he.MulDiagSum only. Operands are
// produced at the given scheme level (the stage level a compile-time
// plan assigned the matrix product; see Meta.LevelPlan): encrypted
// diagonals are encrypted there directly and plaintext diagonals are
// lifted there. A negative level (or a backend without levels) stages at
// the top.
//
// Plaintext diagonals that are zero in every block are staged once: the
// first is encoded and lifted, and every later Ops[i] recorded zero is
// that same operand. A program that skips zero diagonals never reads them,
// and one that multiplies every diagonal (the result shuffle, whose
// permutations change each pass) gets a correct zero product from the
// shared operand. Encrypted diagonals are each staged on their own: an
// encrypted model's program multiplies all of them, so that the zero
// pattern stays hidden (paper §7.1), and each must be a fresh encryption.
func PrepareDiagonalsAt(b he.Backend, mats []*Bool, coefs [][]uint64, period, span int, encrypt bool, level int) (*Diagonals, error) {
	slots := b.Slots()
	if len(mats) == 0 {
		return nil, fmt.Errorf("matrix: no block matrices")
	}
	if err := checkSpan(b, mats[0], period, span); err != nil {
		return nil, err
	}
	if len(mats) != slots/span {
		return nil, fmt.Errorf("matrix: %d block matrices for %d blocks (%d slots / span %d)", len(mats), slots/span, slots, span)
	}
	if coefs == nil {
		coefs = make([][]uint64, len(mats))
	}
	if len(coefs) != len(mats) {
		return nil, fmt.Errorf("matrix: %d row-coefficient vectors for %d block matrices", len(coefs), len(mats))
	}
	rows, cols := mats[0].Rows, mats[0].Cols
	for k, m := range mats {
		if m.Rows != rows || m.Cols != cols {
			return nil, fmt.Errorf("matrix: block %d is %dx%d, block 0 is %dx%d", k, m.Rows, m.Cols, rows, cols)
		}
		if coefs[k] != nil && len(coefs[k]) != rows {
			return nil, fmt.Errorf("matrix: block %d has %d row coefficients for %d rows", k, len(coefs[k]), rows)
		}
	}
	// A caller that repeats a pattern of matrices over the blocks passes
	// the same pointers again: each is expanded once.
	raw := make([][][]uint64, len(mats))
	expanded := map[*Bool][][]uint64{}
	for k, m := range mats {
		diags, ok := expanded[m]
		if !ok {
			var err error
			if diags, err = m.Diagonals(period); err != nil {
				return nil, err
			}
			expanded[m] = diags
		}
		raw[k] = diags
	}
	baby, giant := BSGSSplit(period)
	d := &Diagonals{Rows: rows, Period: period, Baby: baby, Giant: giant, Zero: make([]bool, period)}
	// The distinct diagonals are staged as one set, in order; at[i] is
	// diagonal i's operand in it.
	var set [][]uint64
	at := make([]int, period)
	zero := -1 // the first all-zero plaintext diagonal's operand
	for i := 0; i < period; i++ {
		shift := (i / baby) * baby
		ext := make([]uint64, slots)
		allZero := true
		for k := range mats {
			base := k * span
			for r, v := range raw[k][i] {
				if coefs[k] != nil {
					v *= coefs[k][r]
				}
				if v != 0 {
					allZero = false
				}
				ext[(base+r+shift)%slots] = v
			}
		}
		d.Zero[i] = allZero
		if allZero && !encrypt {
			if zero < 0 {
				zero = len(set)
				set = append(set, ext)
			}
			at[i] = zero
			continue
		}
		at[i] = len(set)
		set = append(set, ext)
	}
	ops, err := he.StageFactorsAtLevel(b, set, encrypt, level)
	if err != nil {
		return nil, err
	}
	for _, k := range at {
		d.Ops = append(d.Ops, ops[k])
	}
	return d, nil
}

// PanicError is a panic recovered inside a pass op (core's runOp) and
// returned as an error: a goroutine that panicked would otherwise kill
// the whole process, taking every in-flight request down with one
// poisoned input. The serving layer unwraps it into its typed
// internal-error taxonomy.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("matrix: recovered panic in a pass op: %v", e.Value)
}
