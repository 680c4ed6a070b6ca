package ring

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"weak"
)

// Polynomial memory. Every row of every polynomial is N words, whatever
// its level and whichever prime it is reduced by, so a context and its QP
// views keep one pool of rows: a polynomial at level ℓ takes ℓ+1 of them
// and gives each back, with the list that held them, so a warm GetPoly
// allocates only its Poly. The accumulators of a key switch take chain
// and special rows alike, and a polynomial that comes back lower than it
// left (ModSwitchDown truncates its rows) still refills every level.
//
// Ownership: a polynomial from GetPoly/GetPolyZero is its caller's until
// PutPoly, after which neither it nor any of its rows may be read again.
// The evaluator draws every output from here; whoever owns a ciphertext
// at the end of its life (the executor at a register's last read, the
// serving layer at the end of a request) hands its rows back. A
// polynomial that is never returned is simply collected.
//
// The pool is a free list under one mutex, taken once per polynomial.
// It needs no size setting: it takes back only polynomials it made, so it
// never holds more rows than were out at once. Its row lists have room
// for one row more than any polynomial has (width), which is how PutPoly
// tells them from a polynomial made elsewhere — a decoded wire
// ciphertext, a Copy — whose rows it leaves to the collector: taking
// them would only grow the free list past what any pass draws.
//
// The garbage collector does not empty the pool; it trims it. The list
// is last in, first out, so the rows at its bottom that no GetPoly
// reached since the previous collection are what the passes of that
// window did not need; each collection gives them up, and the next one
// frees them. A steady load keeps every row it draws; a burst's extra
// rows are given up within two collections of its end, which an idle
// process still runs (the runtime forces one every two minutes).
type rowPool struct {
	mu   sync.Mutex
	free [][]uint64
	// headers holds the emptied row lists of returned polynomials, each
	// of capacity width: the chain and the special primes, plus one.
	headers [][][]uint64
	width   int
	// lowFree and lowHeaders are the fewest entries free and headers held
	// since the last trim.
	lowFree, lowHeaders int

	// returned holds the rows on the free list while pool checks are on
	// (SetPoolChecks), keyed by their first word.
	returned map[*uint64]bool
}

// poolChecks is the test-only use-after-release oracle (SetPoolChecks).
var poolChecks atomic.Bool

// poison is what a checked pool overwrites returned rows with: above
// every modulus, so a read of a released row cannot decode to the right
// answer.
const poison = ^uint64(0)

// SetPoolChecks turns the use-after-release oracle on or off for every
// context, for tests: while it is on, every row returned to a pool is
// overwritten with a value above every modulus, and returning a row
// that is already in the pool panics.
func SetPoolChecks(on bool) { poolChecks.Store(on) }

// takeRows fills rows with rows from the pool, making what it lacks. The
// caller holds ctx.rows.mu.
func (ctx *Context) takeRows(rows [][]uint64) {
	rp := &ctx.rows
	k := len(rp.free) - min(len(rows), len(rp.free))
	n := copy(rows, rp.free[k:])
	clear(rp.free[k:])
	rp.free = rp.free[:k]
	rp.lowFree = min(rp.lowFree, k)
	if rp.returned != nil {
		for _, row := range rows[:n] {
			delete(rp.returned, &row[0])
		}
	}
	for i := n; i < len(rows); i++ {
		rows[i] = make([]uint64, ctx.N)
	}
}

// trim hands the collector the rows and row lists no GetPoly reached
// since the last trim, and starts the next window.
func (rp *rowPool) trim() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.returned != nil {
		for _, row := range rp.free[:rp.lowFree] {
			delete(rp.returned, &row[0])
		}
	}
	rp.free = slices.Delete(rp.free, 0, rp.lowFree)
	rp.headers = slices.Delete(rp.headers, 0, rp.lowHeaders)
	rp.lowFree, rp.lowHeaders = len(rp.free), len(rp.headers)
}

// trimEachGC trims s's pool once per collection for as long as s lives,
// from the finalizer of a sentinel that re-arms itself and holds s only
// weakly.
func trimEachGC(s *shared) {
	type sentinel struct{ s weak.Pointer[shared] }
	var fire func(*sentinel)
	fire = func(t *sentinel) {
		if s := t.s.Value(); s != nil {
			s.rows.trim()
			runtime.SetFinalizer(t, fire)
		}
	}
	runtime.SetFinalizer(&sentinel{weak.Make(s)}, fire)
}

// giveRows hands rows back: onto the free list when keep is set (they
// are the pool's) and the row is N words long, else to the collector, so
// no row list that only looks like the pool's can put a short or long
// row in front of a later GetPoly. The caller holds ctx.rows.mu.
func (ctx *Context) giveRows(rows [][]uint64, keep bool) {
	check := poolChecks.Load()
	rp := &ctx.rows
	if check && rp.returned == nil {
		rp.returned = map[*uint64]bool{}
	}
	for _, row := range rows {
		if check {
			if rp.returned[&row[0]] {
				panic("ring: row returned to the pool twice")
			}
			for j := range row {
				row[j] = poison
			}
		}
		if keep && len(row) == ctx.N {
			if check {
				rp.returned[&row[0]] = true
			}
			rp.free = append(rp.free, row)
		}
	}
}

// GetPoly returns a polynomial at the given level with rows from the
// pool. Its coefficients are arbitrary (callers that fully overwrite
// every residue should prefer this over GetPolyZero); IsNTT is false.
func (ctx *Context) GetPoly(level int) *Poly {
	rp := &ctx.rows
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var rows [][]uint64
	if n := len(rp.headers); n > 0 {
		rows, rp.headers = rp.headers[n-1][:level+1], rp.headers[:n-1]
		rp.lowHeaders = min(rp.lowHeaders, n-1)
	} else {
		rows = make([][]uint64, level+1, rp.width)
	}
	ctx.takeRows(rows)
	return &Poly{Coeffs: rows}
}

// GetPolyZero returns a zeroed polynomial at the given level.
func (ctx *Context) GetPolyZero(level int) *Poly {
	p := ctx.GetPoly(level)
	for _, row := range p.Coeffs {
		clear(row)
	}
	return p
}

// PutPoly returns p's rows to the pool; p must not be used after the
// call (its rows are gone: Coeffs is nil).
func (ctx *Context) PutPoly(p *Poly) {
	if p == nil {
		return
	}
	rp := &ctx.rows
	rp.mu.Lock()
	rows := p.Coeffs[:cap(p.Coeffs)]
	ours := len(rows) == rp.width
	ctx.giveRows(p.Coeffs, ours)
	if ours {
		clear(rows)
		rp.headers = append(rp.headers, rows[:0])
	}
	rp.mu.Unlock()
	p.Coeffs = nil
}

// PutPolys returns every poly in ps to the pool.
func (ctx *Context) PutPolys(ps []*Poly) {
	for _, p := range ps {
		ctx.PutPoly(p)
	}
}

// getRow and putRow lend one scratch row.
func (ctx *Context) getRow() []uint64 {
	var row [1][]uint64
	ctx.rows.mu.Lock()
	ctx.takeRows(row[:])
	ctx.rows.mu.Unlock()
	return row[0]
}

func (ctx *Context) putRow(r []uint64) {
	ctx.rows.mu.Lock()
	ctx.giveRows([][]uint64{r}, true)
	ctx.rows.mu.Unlock()
}
