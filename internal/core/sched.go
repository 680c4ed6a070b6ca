package core

import (
	"cmp"
	"math"
	"slices"
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
		case opMulDiag:
			cost = costMulPlain
			if p.cipherDiag(op.Imm) {
				cost = costTensor
			}
		case opRelin:
			cost, l = costKeySwitch, level(op.A)
		case opRot:
			cost = costKeySwitch
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

// newSchedule derives p's schedule from its ops.
func newSchedule(p *Program) schedule {
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
	w := p.weights()
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

// StageBill is what one stage of a program costs: its ct×ct tensor
// products (Lazy of them unrelinearized: they pay no key switch until the
// sum they join is relinearized), its relinearizations, its rotations
// (Hoisted of them the steps that share one decomposition), the key
// switches those add up to, the multiplicative depth the stage adds to its
// carrier, and its share of Work.
type StageBill struct {
	Products, Lazy, Relins, Rotations, Hoisted, KeySwitches, Depth int
	Work                                                           int64
}

// StageBills walks the ops once and bills each to its stage, in pipeline
// order: compare, reshuffle, levels, accumulate and, in a program built
// for a shuffling service, shuffle. Which registers hold ciphertexts
// follows from what the program was built for; Work prices each op at
// the levels the level pass assigned.
func (p *Program) StageBills() []StageBill {
	var bills [stDone]StageBill
	cipher, depth := make([]bool, p.numReg), make([]int, p.numReg)
	var reached [stDone + 1]int // deepest register up to the end of each stage
	w := p.weights()
	for i, op := range p.ops {
		bill := &bills[op.Stage]
		var c, lazy bool
		var d int
		switch op.Code {
		case opQuery:
			c = !p.plainQuery
		case opThresh:
			c = true // only an encrypted model loads its thresholds
		case opMask:
			c = p.encModel
		case opAdd, opSub, opMul, opMulLazy, opMulDiag:
			a, b := cipher[op.A], cipher[op.B]
			d, lazy = max(depth[op.A], depth[op.B]), op.Code != opMul
			if op.Code == opMulDiag { // the other factor is a staged diagonal
				b, d = p.cipherDiag(op.Imm), depth[op.A]
			}
			if c = a || b; a && b && op.Code != opAdd && op.Code != opSub {
				bill.Products++
				d++
				if lazy {
					bill.Lazy++
				}
			}
		case opRelin, opRot, opHoist, opDrop:
			c, d = cipher[op.A], depth[op.A]
			switch {
			case !c:
			case op.Code == opRelin:
				bill.Relins++
			case op.Code == opRot:
				bill.Rotations++
			case op.Code == opHoist:
				bill.Rotations += p.width(op)
				bill.Hoisted += p.width(op)
			}
		}
		for r := op.Dst; r < op.Dst+p.width(op); r++ {
			cipher[r], depth[r] = c, d
		}
		reached[op.Stage+1] = max(reached[op.Stage+1], d)
		bill.Work += w[i]
	}
	for st := range bills {
		b := &bills[st]
		b.KeySwitches = b.Products - b.Lazy + b.Relins + b.Rotations
		reached[st+1] = max(reached[st+1], reached[st]) // a stage with no op left
		b.Depth = reached[st+1] - reached[st]
	}
	return bills[:p.stages]
}
