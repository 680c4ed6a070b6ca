// Package matrix implements the boolean matrices and the staging of the
// Halevi–Shoup generalized-diagonal matrix/vector kernel of the paper's
// §4.1.2: a matrix is stored as its wrapped diagonals so that M·v becomes
// Σ_i d_i ⊙ rot(v, i) — a constant multiplicative depth of 1 regardless
// of the matrix size. The op program (internal/core) evaluates the
// product over the staged diagonals.
package matrix

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime/debug"

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

// GobEncode implements gob.GobEncoder (the entries are unexported).
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
// ~2·√Period instead of Period−1. The split Baby = Period, Giant = 1 is
// the naive one-rotation-per-diagonal kernel (no pre-rotation, no giant
// steps), which is how stagings without a BSGS plan are expressed.
//
// With a plaintext model the operands are plain and all-zero diagonals
// may be skipped; with an encrypted model every diagonal is a ciphertext
// and all must be processed (skipping would leak the branching
// structure — paper §7.1).
type Diagonals struct {
	Rows   int
	Period int
	// Baby·Giant == Period.
	Baby, Giant int
	Ops         []he.Operand
	Zero        []bool // plaintext-known zero diagonals
}

// BSGSSplit factors a power-of-two period into baby and giant step
// counts with baby·giant = period and baby = 2^ceil(log2(period)/2), the
// split minimizing baby+giant over powers of two.
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

func makeDiagOperand(b he.Backend, vals []uint64, encrypt bool, level int) (he.Operand, error) {
	if encrypt {
		ct, err := he.EncryptAtLevel(b, vals, level)
		if err != nil {
			return he.Operand{}, err
		}
		return he.Cipher(ct), nil
	}
	return he.NewPlainAtLevel(b, vals, level)
}

// PrepareDiagonalsBSGSSpanAt builds the operand form of m — it is
// PrepareDiagonalsBSGSBlocksAt with m in every block: diagonal
// i = g·baby+j is pre-rotated right by g·baby, so that
//
//	M·v = Σ_g rot( Σ_j d'_{g,j} ⊙ rot(v, j), g·baby )
//
// needs only (baby−1) + (giant−1) rotations. Pre-rotating happens on the
// plaintext diagonals before encryption/encoding, so it is free. Pass the
// split staged by the compiler (or BSGSSplit(period)).
//
// Each pre-rotated diagonal is replicated into every span-aligned slot
// block: slot k·span + r + g·baby holds d_{g·baby+j}[r] for every block
// k. Against a vector whose blocks each carry an independent
// period-periodic query (see DESIGN.md §7), the kernel then computes one
// independent matrix-vector product per block; span = b.Slots() is the
// single-query layout. The caller guarantees the block absorbs every
// read: Rows − 1 + period − 1 < span (COPSE stages span = 2·SPad for
// exactly this reason).
//
// If encrypt is true the diagonals are encrypted; otherwise they are
// encoded plaintexts. Operands are produced at the given scheme level
// (the stage level a compile-time plan assigned the matrix product; see
// Meta.LevelPlan): encrypted diagonals are encrypted there directly and
// plaintext diagonals are pre-lifted there. A negative level (or a
// backend without levels) stages at the top.
func PrepareDiagonalsBSGSSpanAt(b he.Backend, m *Bool, period, baby, giant, span int, encrypt bool, level int) (*Diagonals, error) {
	if err := checkSpan(b, m, period, span); err != nil {
		return nil, err
	}
	mats := make([]*Bool, b.Slots()/span)
	for k := range mats {
		mats[k] = m
	}
	return PrepareDiagonalsBSGSBlocksAt(b, mats, nil, period, baby, giant, span, encrypt, level)
}

// PrepareDiagonalsBSGSBlocksAt is the block-diagonal stager: it stages
// an *independent* matrix per span-aligned slot block — mats[k]'s
// pre-rotated diagonal values occupy block k's slots — so a single BSGS
// kernel pass evaluates a different matrix-vector product in every
// block. This is the staging behind the batched result shuffle (one
// permutation per packed query, one set of rotations for the whole
// batch; DESIGN.md §10) and the level lanes (one level matrix per lane,
// the pattern repeated in every block; §13.5). len(mats) must equal slots/span and
// all matrices must share one shape; the span/period/read-containment
// rules of PrepareDiagonalsBSGSSpanAt apply unchanged. A diagonal is
// recorded zero (skippable) only when it is zero in every block.
//
// coefs, when non-nil, scales the rows: block k stages diag(coefs[k])·mats[k]
// (a nil coefs[k] is all ones), the coefficients already reduced mod the
// plaintext modulus. A row's coefficient travels with the row through the
// giant-step pre-rotation, so the kernel is unchanged — this is how the
// level stage folds its mask's sign 1 − 2·m into the matrix (DESIGN.md
// §13.5).
func PrepareDiagonalsBSGSBlocksAt(b he.Backend, mats []*Bool, coefs [][]uint64, period, baby, giant, span int, encrypt bool, level int) (*Diagonals, error) {
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
	if baby < 1 || giant < 1 || baby*giant != period {
		return nil, fmt.Errorf("matrix: BSGS split %d×%d does not factor period %d", baby, giant, period)
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
	d := &Diagonals{Rows: rows, Period: period, Baby: baby, Giant: giant, Zero: make([]bool, period)}
	ext := make([]uint64, slots)
	for i := 0; i < period; i++ {
		shift := (i / baby) * baby
		clear(ext)
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
		op, err := makeDiagOperand(b, ext, encrypt, level)
		if err != nil {
			return nil, err
		}
		d.Ops = append(d.Ops, op)
	}
	return d, nil
}

// PanicError is a panic recovered inside a ParallelFor body and
// returned as an error: a worker goroutine that panicked would
// otherwise kill the whole process, taking every in-flight request
// down with one poisoned input. The serving layer unwraps it into its
// typed internal-error taxonomy.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("matrix: recovered panic in parallel body: %v", e.Value)
}

// safeCall runs fn(i), converting a panic into a *PanicError.
func safeCall(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ParallelFor runs fn(0..n-1) on `workers` goroutines and returns the
// first error encountered. A panic in fn is recovered and reported as
// a *PanicError instead of crashing the process.
func ParallelFor(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := safeCall(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers > n {
		workers = n
	}
	work := make(chan int)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			var firstErr error
			for i := range work {
				if firstErr != nil {
					continue
				}
				if err := safeCall(fn, i); err != nil {
					firstErr = err
				}
			}
			errs <- firstErr
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	var firstErr error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
