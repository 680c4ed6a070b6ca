package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"copse/internal/he"
	"copse/internal/matrix"
)

// stageNames label the pipeline stages in errors, indexed by stage tag.
var stageNames = [stDone]string{"comparison", "reshuffle", "level processing", "accumulation", "shuffle"}

// passScratch is the per-pass storage a program recycles between passes.
type passScratch struct {
	regs    []he.Operand // the SSA register file
	pending []int32      // per op: producers still to run
	ready   []int32      // min-heap of runnable ops by rank
	// left[r] is how many of register r's readers (schedule.reads) are
	// still to finish, pinned for a register the pass never releases;
	// owner[r] is the register whose ciphertext r holds: r itself, or the
	// operand an op passed through into r.
	left, owner []int32
}

func newPassScratch(p *Program) *passScratch {
	return &passScratch{
		regs:    make([]he.Operand, p.numReg),
		pending: make([]int32, len(p.ops)),
		ready:   make([]int32, 0, len(p.ops)),
		left:    make([]int32, p.numReg),
		owner:   make([]int32, p.numReg),
	}
}

// reset readies the scratch for a pass of p: every register its own
// owner, with all its readers to come.
func (s *passScratch) reset(p *Program) {
	copy(s.left, p.sched.reads)
	for r := range s.owner {
		s.owner[r] = int32(r)
	}
}

// Register lifetimes (DESIGN.md §6.4). The program is SSA, so every
// register's readers are known before the pass starts (schedule.reads),
// and the ciphertext a register holds goes back to the backend's pool
// (he.Release) as soon as the last of them has finished. Loads never own
// what they load, and the result goes to the caller. An op that returns
// its operand unchanged — he.Relinearize of a finished or plaintext
// operand, he.DropToLevel at or below the target level — does not make a
// second owner: its register takes the operand's owner, whose life it
// extends by its own readers. Worker goroutines settle an op's registers
// under ps.mu, the hand-off that readies its successors, so when a count
// reaches zero no op can still be reading the register.

// retire settles op i's registers once it has run: each output that is
// an operand passed through takes that operand's owner, each other
// output nothing reads goes back at once, and then every operand loses
// op i as a reader. The caller holds ps.mu, or is the pass's only
// worker.
func (ps *pass) retire(i int) {
	op := ps.p.ops[i]
	in := op.operands()
	for r := op.Dst; r < op.Dst+ps.p.width(op); r++ {
		ct := ps.regs[r].Ct
		passed := -1
		for _, a := range in {
			if ct != nil && ct == ps.regs[a].Ct {
				passed = a
			}
		}
		switch {
		case passed >= 0:
			o := ps.owner[passed]
			ps.owner[r] = o
			if ps.left[o] != pinned {
				ps.left[o] += ps.left[r]
				if ps.left[r] == pinned {
					ps.left[o] = pinned
				}
			}
		case ps.left[r] == 0:
			he.Release(ct)
		}
	}
	for _, a := range in {
		ps.unread(a)
	}
}

// unread records that one reader of register r has finished, releasing
// r's ciphertext if it was the last. The caller holds ps.mu, or is the
// pass's only worker.
func (ps *pass) unread(r int) {
	o := ps.owner[r]
	if ps.left[o] == pinned {
		return
	}
	if ps.left[o]--; ps.left[o] == 0 {
		he.Release(ps.regs[o].Ct)
	}
}

// passInputs are the operands a pass's loads read: the query's planes
// (opQuery), the negated thresholds (opThresh), the masks of the level
// staging (opMask) and its matrices and the reshuffle (opMulDiag).
type passInputs struct {
	query, thresholds []he.Operand
	levels            *levelStaging
	reshuffle         *matrix.Diagonals
}

// pass is the state of one program execution: the SSA register file the
// program's ops read and write, the ready queue of the stage being run,
// and the open stage window of the trace. Worker goroutines touch regs
// without the lock, at disjoint indices: an op writes only its own
// registers and reads only registers whose producers have finished (the
// lock hand-off that made the op ready orders the two).
type pass struct {
	*passScratch
	passInputs
	b       *he.CountingBackend
	shuffle *passShuffle // the pass's permutations, staged at the shuffle stage
	p       *Program

	workers int
	rank    []int32 // the ready queue's order: Program.sched.rank outside tests

	mu   sync.Mutex
	wake sync.Cond     // a ready op, the stage's end, or a failure
	todo int           // ops of the stage not yet finished
	err  error         // first failure: an op's error or the context's
	busy time.Duration // Σ op run time of the open stage, over all workers

	trace   *Trace
	measure bool          // Engine.MeasureNoise
	probed  time.Duration // spent between stage windows (noise probes)
	base    he.OpCounts   // counter snapshot at the open window's start
	mark    time.Time     // the open window's start
}

// runStage runs every op of stage st and returns the first failure. One
// worker runs the ops in program order — the paper's sequential run.
// Several drain a ready queue in priority order, the calling goroutine
// among them; the helpers live only as long as the stage, so the Go
// scheduler, not a resident pool, shares the cores between passes in
// flight. Either way the context is checked before every op.
func (ps *pass) runStage(ctx context.Context, st int) error {
	sc := &ps.p.sched
	lo, hi := 0, sc.stageEnd[st]
	if st > 0 {
		lo = sc.stageEnd[st-1]
	}
	workers := min(ps.workers, hi-lo)
	if workers <= 1 {
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			took, err := ps.timeOp(i, st)
			if err != nil {
				return err
			}
			ps.retire(i)
			ps.busy += took
		}
		return nil
	}

	copy(ps.pending[lo:hi], sc.deps[lo:hi])
	ps.ready, ps.todo = ps.ready[:0], hi-lo
	for i := lo; i < hi; i++ {
		if sc.deps[i] == 0 {
			ps.push(int32(i))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			ps.drain(ctx, st)
		}()
	}
	ps.drain(ctx, st)
	wg.Wait()
	return ps.err
}

// drain runs ready ops, highest priority first, until the stage is done
// or has failed. A worker with nothing ready sleeps until a finishing op
// readies a successor; it cannot sleep forever, because the ops form a
// DAG: while ops are left and none is ready, one is running.
func (ps *pass) drain(ctx context.Context, st int) {
	succ := ps.p.sched.succ
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for {
		for len(ps.ready) == 0 && ps.todo > 0 && ps.err == nil {
			ps.wake.Wait()
		}
		if ps.todo == 0 || ps.err != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			ps.fail(err)
			return
		}
		i := ps.pop()
		ps.mu.Unlock()
		took, err := ps.timeOp(int(i), st)
		ps.mu.Lock()
		ps.busy += took
		if err != nil {
			ps.fail(err)
			return
		}
		ps.retire(int(i))
		if ps.todo--; ps.todo == 0 {
			ps.wake.Broadcast()
			return
		}
		// This worker takes one of the ops it readied itself; each
		// further one is work for a sleeping worker.
		readied := 0
		for _, j := range succ[i] {
			if ps.pending[j]--; ps.pending[j] == 0 {
				ps.push(j)
				readied++
			}
		}
		for ; readied > 1; readied-- {
			ps.wake.Signal()
		}
	}
}

// fail records the stage's first failure and stops the other workers
// before they dequeue another op. The caller holds ps.mu.
func (ps *pass) fail(err error) {
	if ps.err == nil {
		ps.err = err
	}
	ps.wake.Broadcast()
}

// push and pop keep ps.ready a binary min-heap of op indices by rank.
// The caller holds ps.mu.
func (ps *pass) push(i int32) {
	h, rank := append(ps.ready, i), ps.rank
	for c := len(h) - 1; c > 0; {
		parent := (c - 1) / 2
		if rank[h[parent]] <= rank[h[c]] {
			break
		}
		h[parent], h[c] = h[c], h[parent]
		c = parent
	}
	ps.ready = h
}

func (ps *pass) pop() int32 {
	h, rank := ps.ready, ps.rank
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for parent := 0; ; {
		c := 2*parent + 1
		if c >= last {
			break
		}
		if c+1 < last && rank[h[c+1]] < rank[h[c]] {
			c++
		}
		if rank[h[parent]] <= rank[h[c]] {
			break
		}
		h[parent], h[c] = h[c], h[parent]
		parent = c
	}
	ps.ready = h
	return top
}

// closeStage closes stage st's trace window (duration, busy time, op
// counts, carrier limb counts) and opens the next one. Noise probes
// decrypt, so they run between the two windows and their time is kept
// out of Trace.Total: measured and unmeasured runs report comparable
// stage and pass times.
func (ps *pass) closeStage(st int) {
	now := time.Now()
	counts := ps.b.Counts()
	delta, dur := counts.Minus(ps.base), now.Sub(ps.mark)
	limbs := func(reg int) int { return he.OperandLimbs(ps.b, ps.regs[reg]) }
	noise := func(reg int) int {
		if !ps.measure {
			return -1
		}
		return he.NoiseBudgetOf(ps.b, ps.regs[reg])
	}
	t, p := ps.trace, ps.p
	switch st {
	case stCompare:
		t.Compare, t.CompareBusy, t.CompareOps = dur, ps.busy, delta
		t.Limbs.Query, t.Noise.Query = limbs(p.regQuery), noise(p.regQuery)
		t.Limbs.Decisions, t.Noise.Decisions = limbs(p.regDecisions), noise(p.regDecisions)
	case stReshuffle:
		t.Reshuffle, t.ReshuffleBusy, t.ReshuffleOps = dur, ps.busy, delta
		t.Limbs.BranchVec, t.Noise.BranchVec = limbs(p.regBranchVec), noise(p.regBranchVec)
	case stLevels:
		t.Levels, t.LevelsBusy, t.LevelOps = dur, ps.busy, delta
		t.Limbs.LevelResult, t.Noise.LevelResult = limbs(p.regLevelResult), noise(p.regLevelResult)
	case stAccumulate:
		t.Accumulate, t.AccumulateBusy, t.AccumulateOps = dur, ps.busy, delta
	case stShuffle:
		t.Shuffle, t.ShuffleBusy, t.ShuffleOps = dur, ps.busy, delta
	}
	if st == p.stages-1 {
		t.Limbs.Result, t.Noise.Result = limbs(p.result), noise(p.result)
	}
	for _, r := range p.sched.traced[st] {
		ps.unread(r)
	}
	ps.base, ps.busy = counts, 0
	ps.mark = time.Now()
	ps.probed += ps.mark.Sub(now)
}

// timeOp runs op i of stage st, returning how long it ran and its error
// labelled with the stage.
func (ps *pass) timeOp(i, st int) (time.Duration, error) {
	start := time.Now()
	err := ps.runOp(i)
	if err != nil {
		err = fmt.Errorf("core: %s step: %w", stageNames[st], err)
	}
	return time.Since(start), err
}

// runOp executes op i. A panic inside the backend comes back as a
// *matrix.PanicError, so it fails this pass and nothing else.
func (ps *pass) runOp(i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &matrix.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	b, R, op := ps.b, ps.regs, ps.p.ops[i]
	switch op.Code {
	case opQuery:
		R[op.Dst] = ps.query[op.Imm]
	case opThresh:
		R[op.Dst] = ps.thresholds[op.Imm]
	case opMask:
		R[op.Dst] = ps.levels.masks[op.Imm]
	case opConst:
		R[op.Dst] = ps.p.bound[op.Imm]
	case opAdd:
		R[op.Dst], err = he.Add(b, R[op.A], R[op.B])
	case opSub:
		R[op.Dst], err = he.Sub(b, R[op.A], R[op.B])
	case opMul:
		R[op.Dst], err = he.Mul(b, R[op.A], R[op.B])
	case opMulLazy:
		R[op.Dst], err = he.MulLazy(b, R[op.A], R[op.B])
	case opSelect:
		R[op.Dst] = ps.shuffle.sel
	case opMulDiag:
		var d *matrix.Diagonals
		switch op.Imm {
		case matReshuffle:
			d = ps.reshuffle
		case matShuffle:
			d = ps.shuffle.perm
		default:
			d = ps.levels.mats[op.Imm]
		}
		R[op.Dst], err = he.MulLazy(b, d.Ops[op.Imm2], R[op.A])
	case opRelin:
		R[op.Dst], err = he.Relinearize(b, R[op.A])
	case opRot:
		R[op.Dst], err = he.Rotate(b, R[op.A], op.Imm)
	case opHoist:
		var outs []he.Operand
		outs, err = he.RotateHoisted(b, R[op.A], ps.p.hoists[op.Imm])
		copy(R[op.Dst:], outs)
	case opDrop:
		R[op.Dst], err = he.DropToLevel(b, R[op.A], op.Imm)
	default:
		err = fmt.Errorf("unknown op code %d", op.Code)
	}
	return err
}
