package ring

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
)

// countTasks counts the runs of each task and of the tasks a helper ran.
// With waitForHelper set, a task on the caller yields until the helper
// has run a task (or fails the test after ten seconds), so a lent set
// always has both sides claim.
type countTasks struct {
	t             *testing.T
	runs          []atomic.Int32
	onHelper      atomic.Int32
	waitForHelper bool
	// onHelperRun, if set, runs inside every task the helper runs.
	onHelperRun func()
}

// helping reports whether the calling goroutine is a lent set's helper.
func helping() bool { return bytes.Contains(debug.Stack(), []byte("(*taskSet).claim")) }

func (c *countTasks) Task(i int) {
	c.runs[i].Add(1)
	if helping() {
		c.onHelper.Add(1)
		if c.onHelperRun != nil {
			c.onHelperRun()
		}
		return
	}
	for deadline := time.Now().Add(10 * time.Second); c.waitForHelper && c.onHelper.Load() == 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			c.t.Error("the helper of a lent set never ran a task")
			return
		}
	}
}

func (c *countTasks) checkOnce(t *testing.T) {
	t.Helper()
	for i := range c.runs {
		if n := c.runs[i].Load(); n != 1 {
			t.Errorf("task %d of %d ran %d times", i, len(c.runs), n)
		}
	}
}

// lend lends a slot for the rest of the test, checking that the test
// leaves it lent and unborrowed.
func lend(t *testing.T) {
	if n := free.Load(); n != 0 {
		t.Fatalf("%d slots lent before the test", n)
	}
	Lend()
	t.Cleanup(func() {
		if n := free.Load(); n != 1 {
			t.Errorf("%d slots free at the end, want the 1 lent", n)
		}
		Reclaim()
	})
}

// TestRunEachTaskOnce runs sets of 1, 2, 3, 47 and a DecomposeHybrid's
// top-level (digit, row) count of tasks, with no slot lent and with one:
// every task runs exactly once, nothing is borrowed that was not lent, and
// with a slot lent the helper of every set of two or more runs tasks and
// gives the slot back.
func TestRunEachTaskOnce(t *testing.T) {
	ctx := hybridContext(t, 14)
	decomposeSized := HybridDigits(ctx.MaxLevel()) * (ctx.MaxLevel() + 1 + ctx.SpecialPrimes())
	for _, lent := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 47, decomposeSized} {
			t.Run(fmt.Sprintf("lent=%v/n=%d", lent, n), func(t *testing.T) {
				if lent {
					lend(t)
				}
				c := &countTasks{t: t, runs: make([]atomic.Int32, n), waitForHelper: lent && n > 1}
				before := HelpersStarted()
				Run(n, c)
				c.checkOnce(t)
				started, helped := HelpersStarted()-before, c.onHelper.Load()
				if !lent || n == 1 {
					if started != 0 || helped != 0 {
						t.Errorf("lent %v, %d tasks: %d helpers started and ran %d tasks, want none", lent, n, started, helped)
					}
					return
				}
				if started != 1 || helped == 0 {
					t.Errorf("a lent set of %d tasks: %d helpers started and ran %d tasks, want 1 helper running some", n, started, helped)
				}
				if got := free.Load(); got != 1 {
					t.Errorf("a lent set of %d tasks returned with %d slots free, want 1", n, got)
				}
			})
		}
	}
}

// TestRunBorrowsNothingUnlent holds that with no worker idle no set
// starts a helper, however long its tasks take.
func TestRunBorrowsNothingUnlent(t *testing.T) {
	before := HelpersStarted()
	c := &countTasks{t: t, runs: make([]atomic.Int32, 47), onHelperRun: runtime.Gosched}
	for range 10 {
		clear(c.runs)
		Run(len(c.runs), c)
		c.checkOnce(t)
	}
	if started := HelpersStarted() - before; started != 0 || c.onHelper.Load() != 0 {
		t.Errorf("with no slot lent %d helpers started and ran %d tasks", started, c.onHelper.Load())
	}
}

// TestRunDoesNotWaitForHelper lends a slot under GOMAXPROCS(1), where
// the helper cannot start before its caller yields: the caller runs every
// task itself, returns without waiting, and has handed the slot back by
// then; the helper, when it does start, runs nothing.
func TestRunDoesNotWaitForHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lend(t)
	before := HelpersStarted()
	c := &countTasks{t: t, runs: make([]atomic.Int32, 47)}
	Run(len(c.runs), c)
	c.checkOnce(t)
	if got := free.Load(); got != 1 {
		t.Errorf("the caller returned with %d slots free, want the 1 lent", got)
	}
	for range 100 {
		runtime.Gosched() // let the closed helper start and let go
	}
	if started := HelpersStarted() - before; started != 0 || c.onHelper.Load() != 0 {
		t.Errorf("a closed helper started %d times and ran %d tasks", started, c.onHelper.Load())
	}
}

// TestRunStopsHelperOnReclaim has the lender take its slot back while
// the helper runs its first task: the helper stops after it, the caller
// runs the rest, and the slot count ends where the lender left it.
func TestRunStopsHelperOnReclaim(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	Lend()
	reclaimed := false
	c := &countTasks{t: t, runs: make([]atomic.Int32, 47), waitForHelper: true}
	c.onHelperRun = func() {
		if !reclaimed {
			reclaimed = true
			Reclaim()
		}
	}
	Run(len(c.runs), c)
	c.checkOnce(t)
	if got := c.onHelper.Load(); got != 1 {
		t.Errorf("the helper ran %d tasks after its slot was reclaimed in the first, want 1", got)
	}
	if got := free.Load(); got != 0 {
		t.Errorf("%d slots free after the lender reclaimed its own, want 0", got)
	}
}

// TestRunRaisesHelperPanic panics in every task the helper runs: Run
// re-raises the panic on the caller once the helper has stopped, with
// the slot given back.
func TestRunRaisesHelperPanic(t *testing.T) {
	lend(t)
	c := &countTasks{t: t, runs: make([]atomic.Int32, 47), waitForHelper: true}
	c.onHelperRun = func() { panic("helper task") }
	got := func() (r any) {
		defer func() { r = recover() }()
		Run(len(c.runs), c)
		return nil
	}()
	if got != "helper task" {
		t.Errorf("Run raised %v, want the helper's panic", got)
	}
	if n := c.onHelper.Load(); n != 1 {
		t.Errorf("the helper ran %d tasks, want it stopped by its first panic", n)
	}
	for i := range c.runs {
		if n := c.runs[i].Load(); n > 1 {
			t.Errorf("task %d ran %d times", i, n)
		}
	}
}

// TestLentKernelsBitIdentical runs the key-switch kernels with a slot
// lent and without, at N = 4096 so that the helpers have time to start:
// DecomposeHybrid, DotMontgomeryAdd, DivideByP(Keep), DivideByPQ and
// ModSwitchDown(To) write the same rows either way. The lent run repeats
// until a helper has joined it, up to twenty times.
func TestLentKernelsBitIdentical(t *testing.T) {
	const logN, plainT, levels = 12, 257, 14
	primes, err := GeneratePrimes(55, uint64(2<<logN)*plainT, levels+DigitPrimes)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContextQP(logN, primes[:levels], primes[levels:], plainT)
	if err != nil {
		t.Fatal(err)
	}
	top := ctx.MaxLevel()
	qp := ctx.QP(top)
	rng := rand.New(rand.NewPCG(5, 50))
	random := func(c *Context, level int) *Poly {
		p := c.NewPoly(level)
		for i, row := range p.Coeffs {
			for j := range row {
				row[j] = rng.Uint64N(c.Moduli[i].Q)
			}
		}
		p.IsNTT = true
		return p
	}
	in := random(ctx, top)
	keysB, keysA := make([]*Poly, HybridDigits(top)), make([]*Poly, HybridDigits(top))
	for d := range keysB {
		keysB[d], keysA[d] = random(qp, qp.MaxLevel()), random(qp, qp.MaxLevel())
	}
	acc := random(qp, qp.MaxLevel())
	kernels := func() []*Poly {
		digits := ctx.DecomposeHybrid(in)
		acc0, acc1 := acc.Copy(), acc.Copy()
		qp.DotMontgomeryAdd(digits, keysB, keysA, acc0, acc1)
		keep, div := ctx.NewPoly(top), ctx.NewPoly(top)
		ctx.DivideByPKeep(acc0, keep)
		ctx.DivideByP(acc0, div)
		pq := ctx.NewPoly(top - 1)
		ctx.DivideByPQ(acc1, pq)
		down, to := in.Copy(), ctx.NewPoly(top-4)
		ctx.ModSwitchDown(down)
		ctx.ModSwitchDownTo(in, to)
		return append(digits, keep, div, pq, down, to)
	}
	want := kernels()
	for try := 1; try <= 20; try++ {
		Lend()
		before := HelpersStarted()
		got := kernels()
		Reclaim()
		for i := range want {
			if !polysEqual(want[i], got[i]) {
				t.Fatalf("output %d differs with a slot lent", i)
			}
		}
		if joined := HelpersStarted() - before; joined > 0 {
			t.Logf("%d helpers joined lent run %d", joined, try)
			return
		}
	}
	t.Logf("no helper joined twenty lent runs (GOMAXPROCS %d)", runtime.GOMAXPROCS(0))
}

// onRunAllHelper reports whether the calling goroutine is one RunAll
// started.
func onRunAllHelper() bool { return bytes.Contains(debug.Stack(), []byte("ring.RunAll.func")) }

// TestRunAllEachTaskOnce runs sets of 0, 1, 2, 3, 47 and 100 tasks at
// GOMAXPROCS 1, 2 and 4: every task runs once, helpers join only with a
// second core, and no lent slot is taken and no lending helper counted.
func TestRunAllEachTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, 3, 47, 100} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				runs := make([]atomic.Int32, n)
				var helped atomic.Int32
				before, lent := HelpersStarted(), free.Load()
				RunAll(n, func(i int) {
					runs[i].Add(1)
					if onRunAllHelper() {
						helped.Add(1)
					}
					time.Sleep(50 * time.Microsecond)
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("task %d of %d ran %d times", i, n, got)
					}
				}
				if procs == 1 && helped.Load() != 0 {
					t.Errorf("GOMAXPROCS 1: helpers ran %d tasks, want a loop on the caller", helped.Load())
				}
				if started := HelpersStarted() - before; started != 0 || free.Load() != lent {
					t.Errorf("RunAll counted %d lending helpers and left %d slots free (was %d)", started, free.Load(), lent)
				}
			})
		}
	}
}

// TestRunAllRaisesPanic panics in every task a helper runs, while the
// caller's tasks wait for the first: the panic reaches the caller once,
// after every helper has stopped, and ends the claims.
func TestRunAllRaisesPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 47
	var runs, helperRuns atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		RunAll(n, func(int) {
			runs.Add(1)
			if onRunAllHelper() {
				helperRuns.Add(1)
				panic("helper task")
			}
			for deadline := time.Now().Add(10 * time.Second); helperRuns.Load() == 0; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Error("no helper ran a task")
					return
				}
			}
		})
		return nil
	}()
	if got != "helper task" {
		t.Errorf("RunAll raised %v, want the helper's panic", got)
	}
	if after := runs.Load(); after == n {
		t.Errorf("all %d tasks ran after a helper panicked", n)
	}
	ran := runs.Load()
	time.Sleep(10 * time.Millisecond)
	if runs.Load() != ran {
		t.Error("a task ran after RunAll returned")
	}
}
