package core

import (
	"cmp"
	"math"
	"slices"

	"copse/internal/he"
)

// schedule is everything the executor needs to run a program's ops on
// several goroutines, all of it derived from the ops themselves: an op
// may run once the ops that produce its operand registers have. Nothing
// here is placed by hand, so a change to buildProgram cannot leave a
// stale barrier behind.
//
// The pipeline stages stay joins: each hands exactly one carrier to the
// next (the decisions, the branch vector, the level results, the leaf
// bitvector), so no op of a later stage could start before the earlier
// stage's last op anyway, and joining there keeps the per-stage trace
// windows, noise probes and cancellation points meaningful. Dependencies
// are therefore counted within a stage only; operands produced by an
// earlier stage are ready when the stage starts.
type schedule struct {
	// stageEnd[s] is one past the last op of stage s; a stage's ops are
	// contiguous and stages appear in pipeline order.
	stageEnd [stDone]int
	// deps[i] is the number of distinct ops of op i's own stage that
	// produce its operands; succ[i] lists the ops of that stage that
	// read op i's results, in program order.
	deps []int32
	succ [][]int32
	// rank[i] is op i's place in its stage's priority order (0 runs
	// first among ready ops): ops are ordered by the longest weighted
	// path from the op to the end of its stage, program order breaking
	// ties, so the critical path is never left waiting behind cheap
	// side work.
	rank []int32
	// work is the summed weight of every op; critical is the summed
	// weight along the longest dependency path of each stage. Their
	// ratio is the parallelism the model offers.
	work, critical int64
	// reads[r] is how many readers register r has in the whole program:
	// each op that reads it, once however many of its operands it is,
	// and each stage-end trace report of it (traced). The executor
	// releases r once the last of them is done (DESIGN.md §6.4). -1 pins
	// r for the whole pass: a load's register, whose operand the pass
	// does not own, and the result, which goes to the caller.
	reads []int32
	// traced[s] lists the registers whose limbs and noise the trace
	// reports when stage s ends (pass.closeStage), besides the result.
	traced [stDone][]int
}

// pinned marks a register the pass never releases (schedule.reads).
const pinned = -1

// Relative op costs per active limb, read off the benchmark's BGV
// microkernels over their limb counts (bgv.mul_relin_us 36–44 and 33–38
// at 14 and 8 limbs, bgv.rotate_us 33–42 and 28–33, bgv.modswitch_us 7–8,
// in units of half a bgv.mulplain_us limb, ≈ 11 µs). Priorities only
// need the order of magnitude: a key switch dwarfs a modulus switch,
// which dwarfs pointwise work.
const (
	costMul       = 36 // ct×ct tensor product + relinearization into the level below
	costKeySwitch = 30 // relinearization, or one rotation
	costDrop      = 7  // modulus switch, per limb of the source
	costTensor    = 4  // ct×ct tensor product, no key switch
	costMulPlain  = 2  // plaintext product
	costAdd       = 1
	// A term of a fused diagonal sum (opDiagSum) with a plaintext side, or
	// with both sides encrypted, per limb: its share of one lazy Montgomery
	// sweep. BenchmarkDiagSum (internal/he/hebgv; N = 2048, 16 terms at 7
	// limbs, 2-vCPU AVX-512 host) reads 0.38 and 0.78 ms against 1.7 and
	// 3.3 ms for the MulPlain or tensor-and-Add chain: about 0.7 and 1.4
	// units, rounded up to whole units in the same ratio.
	costDiagTerm       = 1
	costDiagTensorTerm = 2
	// A rotation left unfinished, and the division by P that finishes a
	// sum of them. BenchmarkMatVec (internal/he/hebgv; N = 2048, 2-vCPU
	// AVX-512 host) saves 0.023–0.09 ms per limb, median 0.044, for each
	// finish the double-hoisted sum skips, against 0.16 ms per limb for a
	// whole rotation (bgv BenchmarkHomomorphicOps/rotate, 6 limbs): a
	// finish is about a quarter of a rotation.
	costRotLazy = 22
	costFinish  = 8
)

// plainLevel marks a register the level pass knows is plaintext: it
// constrains no level and makes a product cheap.
const plainLevel = math.MaxInt

// weights estimates each op's cost as op kind × active limbs, the limbs
// being the levels the level pass assigned under the program's plan.
func (p *Program) weights() []int64 {
	level := func(r int) int {
		if !p.est[r].cipher {
			return plainLevel
		}
		return p.est[r].level
	}
	w := make([]int64, len(p.ops))
	for i, op := range p.ops {
		l, cost := level(op.Dst), 0
		switch op.Code {
		case opAdd, opSub:
			cost = costAdd
		case opMul, opMulLazy:
			switch {
			case level(op.A) == plainLevel || level(op.B) == plainLevel:
				cost = costMulPlain
			case op.Code == opMul:
				cost = costMul
			default:
				cost = costTensor
			}
			l = min(level(op.A), level(op.B)) // a key switch lands a level below its work
		case opDiagSum:
			// Only encrypted diagonals against ciphertexts make the
			// degree-2 sum; either side plaintext is one sweep.
			cost = costDiagTerm * len(op.Terms)
			if p.cipherDiag(op.Imm) && p.est[op.Terms[0].Reg].cipher {
				cost = costDiagTensorTerm * len(op.Terms)
			}
		case opRelin:
			cost, l = costKeySwitch, level(op.A)
		case opRot:
			cost = costKeySwitch
		case opRotLazy:
			cost = costRotLazy
		case opFinish:
			cost = costFinish
		case opHoist:
			// One shared decomposition, then a cheaper switch per step.
			cost = costKeySwitch * (1 + len(p.hoists[op.Imm])) / 2
		case opDrop:
			// A rounding transforms every limb of its source once, however
			// many primes it drops, and converts each dropped prime onto
			// each limb that stays; a drop that moves nothing passes its
			// operand through.
			if from := level(op.A); from != plainLevel && from > l {
				w[i] = costDrop*int64(from+1) + int64(from-l)*int64(l+1)/2
			}
			continue
		}
		if l != plainLevel {
			w[i] = int64(cost) * int64(l+1)
		}
	}
	return w
}

// newSchedule derives p's schedule from its ops, priced by w.
func newSchedule(p *Program, w []int64) schedule {
	n := len(p.ops)
	s := schedule{deps: make([]int32, n), succ: make([][]int32, n), rank: make([]int32, n)}
	producer := make([]int32, p.numReg)
	for i, op := range p.ops {
		s.stageEnd[op.Stage] = i + 1
		for r := op.Dst; r < op.Dst+p.width(op); r++ {
			producer[r] = int32(i)
		}
		var seen [2]int32
		from := seen[:0]
		for _, r := range op.operands() {
			j := producer[r]
			if p.ops[j].Stage == op.Stage && !slices.Contains(from, j) {
				from = append(from, j)
				s.succ[j] = append(s.succ[j], int32(i))
				s.deps[i]++
			}
		}
	}
	// A stage every op of which was dead still ends where it starts.
	for st := 1; st < stDone; st++ {
		s.stageEnd[st] = max(s.stageEnd[st], s.stageEnd[st-1])
	}

	// Register lifetimes: readers counted across stages.
	s.traced = [stDone][]int{
		stCompare:   {p.regQuery, p.regDecisions},
		stReshuffle: {p.regBranchVec},
		stLevels:    {p.regLevelResult},
	}
	s.reads = make([]int32, p.numReg)
	for _, op := range p.ops {
		switch op.Code {
		case opQuery, opThresh, opMask, opConst, opSelect:
			s.reads[op.Dst] = pinned
		}
	}
	s.reads[p.result] = pinned
	read := func(r int) {
		if s.reads[r] != pinned {
			s.reads[r]++
		}
	}
	for _, op := range p.ops {
		for _, r := range op.operands() {
			read(r)
		}
	}
	for _, regs := range s.traced {
		for _, r := range regs {
			read(r)
		}
	}

	// Longest weighted path from each op to the end of its stage;
	// successors follow their producers, so one backward sweep does it.
	path := make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		for _, j := range s.succ[i] {
			path[i] = max(path[i], path[j])
		}
		path[i] += w[i]
		s.work += w[i]
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	start := 0
	for _, end := range s.stageEnd {
		stage := order[start:end]
		slices.SortStableFunc(stage, func(a, b int32) int { return cmp.Compare(path[b], path[a]) })
		for k, i := range stage {
			s.rank[i] = int32(k)
		}
		if len(stage) > 0 {
			s.critical += path[stage[0]]
		}
		start = end
	}
	return s
}

// Work is the program's total static cost: Σ op kind × active limbs, in
// the relative units of the scheduler's cost table.
func (p *Program) Work() int64 { return p.sched.work }

// CriticalPath is the cost along the longest dependency chain, stage by
// stage — what a pass costs on unboundedly many workers. Work ÷
// CriticalPath is the parallelism the model offers the scheduler.
func (p *Program) CriticalPath() int64 { return p.sched.critical }

// StageBill is what one stage of a program costs. Ops are the
// homomorphic ops it issues, as a leveled backend counts them
// (he.OpCounts; Ops.MaxDepth is the pass's depth so far). Lazy of the
// ct×ct products (Ops.Mul) are unrelinearized: they pay no key switch
// until the sum they join is relinearized (Ops.Relin). KeySwitches is
// what the products, relinearizations and rotations add up to, Depth the
// multiplicative depth the stage adds to its carrier, and Work its share
// of the program's Work.
type StageBill struct {
	Ops                      he.OpCounts
	Lazy, KeySwitches, Depth int
	Work                     int64
}

// StageBills returns the program's bill stage by stage, in pipeline
// order: compare, reshuffle, levels, accumulate and, in a program built
// for a shuffling service, shuffle.
func (p *Program) StageBills() []StageBill { return slices.Clone(p.bills) }

// bill walks the levelled ops once and bills each to its stage, with the
// counting rules of the he operand algebra and the BGV backend, from what
// the level pass knows of every register: whether it holds a ciphertext,
// its level, and whether it is an unrelinearized product. Every counted op
// adds its result's limbs to LimbOps (a hoisted set, its source's for each
// step). A plaintext minus a ciphertext is a negation and a plaintext
// addition, a relinearization counts only on a degree-2 operand, and a
// hoisted set counts its non-zero steps. MaxDepth is the running maximum
// over the pass. w prices each op for Work.
func (p *Program) bill(w []int64) []StageBill {
	bills := make([]StageBill, p.stages)
	depth := make([]int, p.numReg)
	limbs := func(r int) int64 { return int64(p.est[r].level + 1) }
	for i, op := range p.ops {
		bill := &bills[op.Stage]
		ops, d := &bill.Ops, 0
		switch op.Code {
		case opDiagSum:
			// The chain it fuses: a lazy product per term, the other factor a
			// staged diagonal, fresh, and an addition per term after the first.
			b := p.cipherDiag(op.Imm)
			for k, t := range op.Terms {
				a, td := p.est[t.Reg].cipher, depth[t.Reg]
				switch {
				case a && b:
					ops.Mul++
					bill.Lazy++
					td++
				case a || b:
					ops.ConstMul++
				}
				if a || b {
					ops.LimbOps += limbs(op.Dst)
					if k > 0 {
						ops.Add++
						ops.LimbOps += limbs(op.Dst)
					}
				}
				d = max(d, td)
			}
		case opAdd, opSub, opMul, opMulLazy:
			a, b := p.est[op.A].cipher, p.est[op.B].cipher
			d = max(depth[op.A], depth[op.B])
			switch {
			case !a && !b: // plaintext arithmetic
			case op.Code == opAdd || op.Code == opSub:
				if a && b {
					ops.Add++
				} else {
					ops.ConstAdd++
				}
				if op.Code == opSub && !a {
					ops.Add++
					ops.LimbOps += limbs(op.B)
				}
			case a && b:
				ops.Mul++
				d++
				if op.Code != opMul {
					bill.Lazy++
				}
			default:
				ops.ConstMul++
			}
			if a || b {
				ops.LimbOps += limbs(op.Dst)
			}
		case opRelin, opRot, opHoist, opDrop, opRotLazy, opFinish:
			// A lazy rotation counts as the rotation it defers the finish
			// of, and the finish counts nothing.
			d = depth[op.A]
			switch e := p.est[op.A]; {
			case !e.cipher:
			case op.Code == opRelin && e.deg2:
				ops.Relin++
				ops.LimbOps += limbs(op.Dst)
			case op.Code == opRot || op.Code == opRotLazy:
				ops.Rotate++
				ops.LimbOps += limbs(op.Dst)
			case op.Code == opHoist: // its steps are baby steps, none zero
				n := int64(p.width(op))
				ops.Rotate += n
				ops.RotateHoisted += n
				ops.LimbOps += n * limbs(op.A)
			}
		}
		for r := op.Dst; r < op.Dst+p.width(op); r++ {
			depth[r] = d
		}
		ops.MaxDepth = max(ops.MaxDepth, int64(d))
		bill.Work += w[i]
	}
	var reached int64 // the pass's depth before the stage
	for st := range bills {
		b := &bills[st]
		b.Ops.MaxDepth = max(b.Ops.MaxDepth, reached) // a stage with no op left
		b.Depth, reached = int(b.Ops.MaxDepth-reached), b.Ops.MaxDepth
		b.KeySwitches = int(b.Ops.Mul+b.Ops.Relin+b.Ops.Rotate) - b.Lazy
	}
	return bills
}
