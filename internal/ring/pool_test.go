package ring

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestRowPoolTrim pins the trim: the rows no GetPoly reached since the
// last trim go to the collector, the rest stay, and the collections of an
// idle process trim its pool empty.
func TestRowPoolTrim(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := testContext(t)
	free := func() int {
		ctx.rows.mu.Lock()
		defer ctx.rows.mu.Unlock()
		return len(ctx.rows.free)
	}
	ctx.PutPoly(ctx.GetPoly(2))
	ctx.rows.trim() // the window drew every row the pool holds
	if got := free(); got != 3 {
		t.Fatalf("a trim after a window that drew 3 rows left %d, want 3", got)
	}
	ctx.PutPoly(ctx.GetPoly(0))
	ctx.rows.trim() // the window drew one row: the two below it go
	if got := free(); got != 1 {
		t.Fatalf("a trim after a window that drew 1 of 3 rows left %d, want 1", got)
	}
	for i := 0; free() > 0; i++ {
		if i == 100 {
			t.Fatal("collections left an idle pool its rows")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestRowPoolTakesBackOnlyItsRows pins the pool's rules: a row it made
// comes back out for any level, a row made elsewhere is never handed out
// again; and, under the use-after-release checks, a returned row is
// poisoned and a second return panics.
func TestRowPoolTakesBackOnlyItsRows(t *testing.T) {
	ctx := testContext(t)
	p := ctx.GetPoly(2)
	rows := map[*uint64]bool{}
	for _, row := range p.Coeffs {
		rows[&row[0]] = true
	}
	foreign := p.Copy()
	ctx.PutPoly(p)
	ctx.PutPoly(foreign)
	if p.Coeffs != nil {
		t.Fatal("PutPoly left the polynomial its rows")
	}
	for _, q := range []*Poly{ctx.GetPoly(0), ctx.GetPoly(1)} {
		for _, row := range q.Coeffs {
			if !rows[&row[0]] {
				t.Errorf("a level-%d polynomial got a row the pool did not make, with rows of its own free", q.Level())
			}
			delete(rows, &row[0])
		}
	}
	// A row list with the pool's capacity holding rows of the wrong
	// length (a decoded polynomial of another ring) gives none of them.
	spoof := &Poly{Coeffs: make([][]uint64, ctx.rows.width)}
	for i := range spoof.Coeffs {
		spoof.Coeffs[i] = make([]uint64, ctx.N/2)
	}
	ctx.PutPoly(spoof)
	for _, row := range ctx.GetPoly(ctx.MaxLevel()).Coeffs {
		if len(row) != ctx.N {
			t.Fatalf("GetPoly handed out a row of %d words, want %d", len(row), ctx.N)
		}
	}

	SetPoolChecks(true)
	defer SetPoolChecks(false)
	q := ctx.GetPoly(0)
	row := q.Coeffs[0]
	ctx.PutPoly(q)
	for _, v := range row {
		if v != poison {
			t.Fatalf("a returned row reads %d, want the poison %d", v, poison)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("returning a row twice did not panic")
		}
	}()
	ctx.putRow(row)
}
