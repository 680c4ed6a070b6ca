package core

import (
	"fmt"
	"time"

	"copse/internal/he"
)

// stageNames label the pipeline stages in errors, indexed by stage tag.
var stageNames = [stDone]string{"comparison", "reshuffle", "level processing", "accumulation"}

// pass is the state of one ClassifyCtx call: the SSA register file the
// program's ops read and write, and the open stage window of the trace.
// Worker goroutines share it — they touch only regs, at disjoint
// indices.
type pass struct {
	regs []he.Operand
	b    *he.CountingBackend
	m    *ModelOperands
	q    *Query
	p    *Program

	trace   *Trace
	measure bool          // Engine.MeasureNoise
	probed  time.Duration // spent between stage windows (noise probes)
	base    he.OpCounts   // counter snapshot at the open window's start
	mark    time.Time     // the open window's start
	cur     int           // the open window's stage
}

// closeStage closes the current stage's trace window (duration, op
// counts, carrier limb counts) and opens the next one. Noise probes
// decrypt, so they run between the two windows and their time is kept
// out of Trace.Total: measured and unmeasured runs report comparable
// stage and pass times.
func (ps *pass) closeStage(next int) {
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
	switch ps.cur {
	case stCompare:
		t.Compare, t.CompareOps = dur, delta
		t.Limbs.Query, t.Noise.Query = limbs(p.regQuery), noise(p.regQuery)
		t.Limbs.Decisions, t.Noise.Decisions = limbs(p.regDecisions), noise(p.regDecisions)
	case stReshuffle:
		t.Reshuffle, t.ReshuffleOps = dur, delta
		t.Limbs.BranchVec, t.Noise.BranchVec = limbs(p.regBranchVec), noise(p.regBranchVec)
	case stLevels:
		t.Levels, t.LevelOps = dur, delta
		t.Limbs.LevelResult, t.Noise.LevelResult = limbs(p.regLevelResult), noise(p.regLevelResult)
	case stAccumulate:
		t.Accumulate, t.AccumulateOps = dur, delta
		t.Limbs.Result, t.Noise.Result = limbs(p.result), noise(p.result)
	}
	ps.base = counts
	ps.mark = time.Now()
	ps.probed += ps.mark.Sub(now)
	ps.cur = next
}

// runSeg executes ops [seg[0], seg[1]) in order.
func (ps *pass) runSeg(seg [2]int) error {
	b, R := ps.b, ps.regs
	for _, op := range ps.p.ops[seg[0]:seg[1]] {
		var err error
		switch op.Code {
		case opQuery:
			R[op.Dst] = ps.q.Bits[op.Imm]
		case opThresh:
			R[op.Dst] = ps.m.Thresholds[op.Imm]
		case opMask:
			R[op.Dst] = ps.m.Masks[op.Imm]
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
		case opMulDiag:
			d := ps.m.Reshuffle
			if op.Imm >= 0 {
				d = ps.m.Levels[op.Imm]
			}
			R[op.Dst], err = he.MulLazy(b, d.Ops[op.Imm2], R[op.A])
		case opRelin:
			R[op.Dst], err = he.Relinearize(b, R[op.A])
		case opNeg:
			R[op.Dst], err = he.Neg(b, R[op.A])
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
		if err != nil {
			return err
		}
	}
	return nil
}
