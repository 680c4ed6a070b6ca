package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lending. A key switch is a few row-parallel steps — the input INTTs
// and the (digit, row) base extensions of DecomposeHybrid, the kept rows
// of a rounding, the rows of the inner product, the steps of a hoisted
// rotation — and each task writes only rows of its own, so the tasks run
// in any order on any goroutine and make the same bits. A task set runs
// on its caller (Run). A pass worker with no op ready lends its slot
// (Lend) until it has work again (Reclaim); while a slot is lent, a set
// of two or more tasks borrows it and starts one helper goroutine, which
// claims tasks from the caller's counter:
//
//   - the caller never waits for a helper that has not started: once it
//     has claimed the last task it closes a helper still waiting to run
//     and hands the slot back itself;
//   - a running helper stops after its current task once a lender has
//     reclaimed a borrowed slot, and the caller claims what is left;
//   - a panic on the helper is re-raised on the caller once the helper
//     has stopped, so the op that ran the set fails as if it had
//     panicked there.
//
// There is no resident pool and no setting: nothing is borrowed that no
// worker lent, and only the pass scheduler lends (core's pass.drain), so
// a sequential pass runs every task on its caller. Set-up and set
// encryption run on a fork-join of their own (RunAll).

// free is the lent slots no helper holds, less the borrowed ones their
// lenders have reclaimed: below zero, it tells that many helpers to stop.
var free atomic.Int32

// helpersStarted counts the helpers that claimed tasks (HelpersStarted).
var helpersStarted atomic.Int64

// Lend lends the calling pass worker's slot until its Reclaim: it has
// no op ready, so a running task set may start a helper in its place.
func Lend() { free.Add(1) }

// Reclaim takes back a slot Lend lent: a helper running on it stops
// after its current task.
func Reclaim() { free.Add(-1) }

// HelpersStarted returns how many helpers have claimed tasks since the
// process started, for tests: a run that lends nothing leaves it as it
// was.
func HelpersStarted() int64 { return helpersStarted.Load() }

// borrow takes a lent slot if one is free.
func borrow() bool {
	for {
		n := free.Load()
		if n <= 0 {
			return false
		}
		if free.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Tasks is a set of independent tasks: Task(i) writes only what task i
// owns, and reads nothing another task of the set writes.
type Tasks interface{ Task(i int) }

// claims is a task set's claim counter: every goroutine running the set
// claims the next task until none is left.
type claims struct {
	next  atomic.Int32 // the next task to claim
	n     int32
	tasks Tasks
}

// take claims the next task, reporting false when none is left.
func (c *claims) take() (int, bool) {
	i := c.next.Add(1) - 1
	return int(i), i < c.n
}

// Run runs t.Task(i) once for every i in [0, n): on the caller, and on
// one helper while a pass worker lends its slot. It returns when every
// task has run.
func Run(n int, t Tasks) {
	if n < 2 || !borrow() {
		for i := range n {
			t.Task(i)
		}
		return
	}
	s := sets.Get().(*taskSet)
	s.n, s.tasks = int32(n), t
	s.refs.Store(2)
	if s.helpFn == nil {
		s.helpFn = s.help
	}
	go s.helpFn()
	// Go queues a new goroutine in its creator's runnext slot, which an
	// idle P steals only after a usleep(3) that the kernel's timer slack
	// stretches to tens of microseconds; a second, empty goroutine takes
	// that slot and leaves the helper in the queue an idle P steals from
	// at once.
	go yieldRunNext()
	defer s.join()
	for {
		i, ok := s.take()
		if !ok {
			return
		}
		t.Task(i)
	}
}

// yieldRunNext does nothing: starting it moves the helper started just
// before it out of the runnext slot (Run).
func yieldRunNext() {}

// A lent set's helper is waiting to run until it starts or its caller,
// done first, closes it.
const (
	helperWaiting int32 = iota
	helperRunning
	helperClosed
)

// taskSet is the state a lent set shares with its helper: the claim
// counter, the join and the panic slot. Sets are pooled, so a lent set
// costs its two goroutines, the helper and yieldRunNext, and nothing
// else; the last of the caller and the helper to let go of one returns
// it.
type taskSet struct {
	claims
	state atomic.Int32 // helperWaiting, helperRunning or helperClosed
	refs  atomic.Int32 // the caller and the helper, until each lets go
	// fin receives once from a helper that ran, when it has stopped;
	// panicked is what it panicked with, read after fin.
	fin      chan struct{}
	panicked any
	helpFn   func() // help, bound once, so starting it allocates nothing
}

var sets = sync.Pool{New: func() any { return &taskSet{fin: make(chan struct{}, 1)} }}

// help is the helper goroutine: unless its caller has closed it, it
// claims tasks until none is left or its slot is reclaimed, then gives
// the slot back.
func (s *taskSet) help() {
	if s.state.CompareAndSwap(helperWaiting, helperRunning) {
		helpersStarted.Add(1)
		s.claim()
		free.Add(1)
		s.fin <- struct{}{}
	}
	s.release()
}

// claim runs the helper's tasks, keeping a panic for the caller.
func (s *taskSet) claim() {
	defer func() { s.panicked = recover() }()
	for free.Load() >= 0 {
		i, ok := s.take()
		if !ok {
			return
		}
		s.tasks.Task(i)
	}
}

// join ends the caller's side: it closes a helper that has not started,
// handing its slot back, or waits for a running one to stop, and
// re-raises the helper's panic.
func (s *taskSet) join() {
	if s.state.CompareAndSwap(helperWaiting, helperClosed) {
		free.Add(1)
	} else {
		<-s.fin
	}
	p := s.panicked
	s.release()
	if p != nil {
		panic(p)
	}
}

func (s *taskSet) release() {
	if s.refs.Add(-1) == 0 {
		s.tasks, s.panicked = nil, nil
		s.next.Store(0)
		s.state.Store(helperWaiting)
		sets.Put(s)
	}
}

// RunAll runs task(i) once for every i in [0, n) on every core: on its
// caller and on up to GOMAXPROCS−1 helpers it starts, which claim tasks
// from the caller's counter as a lent set's helper does. It is the
// fork-join of set-up (key generation, staging) and set encryption: it
// borrows no lent slot and counts no helper (HelpersStarted), so the
// lending rule holds whatever runs it beside a pass. A task's panic ends
// the claims and is re-raised on the caller, once, when every helper has
// stopped. Under GOMAXPROCS 1 it is a loop on the caller.
func RunAll(n int, task func(i int)) {
	helpers := min(n, runtime.GOMAXPROCS(0)) - 1
	if helpers < 1 {
		for i := range n {
			task(i)
		}
		return
	}
	s := &forkJoin{claims: claims{n: int32(n), tasks: taskFunc(task)}}
	s.wg.Add(helpers)
	for range helpers {
		go func() {
			defer s.wg.Done()
			s.claim()
		}()
	}
	s.claim()
	s.wg.Wait()
	if s.panicked != nil {
		panic(s.panicked)
	}
}

type taskFunc func(i int)

func (f taskFunc) Task(i int) { f(i) }

// forkJoin is the state RunAll's caller shares with its helpers.
type forkJoin struct {
	claims
	wg       sync.WaitGroup
	first    sync.Once
	panicked any // the first task panic
}

// claim runs tasks until none is left or one panics.
func (s *forkJoin) claim() {
	defer func() {
		if r := recover(); r != nil {
			s.next.Store(s.n)
			s.first.Do(func() { s.panicked = r })
		}
	}()
	for {
		i, ok := s.take()
		if !ok {
			return
		}
		s.tasks.Task(i)
	}
}

// jobs recycles the arguments of one kind of task set, so a set no
// helper joins allocates nothing.
type jobs[J any] struct{ pool sync.Pool }

func (p *jobs[J]) get() *J {
	if j, _ := p.pool.Get().(*J); j != nil {
		return j
	}
	return new(J)
}

func (p *jobs[J]) put(j *J) {
	var zero J
	*j = zero
	p.pool.Put(j)
}
