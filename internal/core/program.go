package core

import (
	"fmt"
	"slices"
	"sync"

	"copse/internal/he"
	"copse/internal/matrix"
)

// This file implements the op program: at Prepare time the staged model
// plus its level plan is compiled into a flat, static schedule of
// primitive homomorphic ops (DESIGN.md §13), and Engine.Classify
// executes that schedule — the only classify path. Everything that
// varies between models and scenarios is a build input here, not a
// branch at run time: BSGS loop bounds (naive stagings are the split
// baby = period, giant = 1), rotation steps, level-drop targets, which
// diagonals a plaintext model lets the kernel skip, and the XOR
// decomposition. The builder also applies algebraic rewrites a
// stage-by-stage evaluation cannot:
//
//   - the thresholds are staged negated (¬y_j = 1 − y_j, Prepare), so
//     the one ct-ct product of a bit plane is gt_j = x_j·¬y_j itself, and
//     eq_j = ¬(x_j ⊕ y_j) = (x_j + ¬y_j) − 2·gt_j costs three linear ops
//     and one level drop on top of it;
//   - every level move is an op: the builder marks the scheduled drop
//     points, and the level pass (levelplan.go) resolves them against the
//     plan and emits the alignment a binary op's operands need as an
//     opDrop, shared per (register, level), so a planned pass leaves the
//     backend nothing to align and the schedule sees and prices the work;
//   - the comparison is one reduction over (GT, EQ) pairs, across the
//     query's operands and, when its layout packs several bit planes
//     into one (Meta.PlanesPerCiphertext), across the block groups of the
//     result by rotate-and-multiply rounds (DESIGN.md §13.4);
//   - the level matrices ride the lanes of a block (Meta.LevelLanes) and,
//     when the batch leaves them idle, of several slot groups
//     (Meta.LevelLayout): one mat-vec evaluates a level in every lane, and
//     the accumulate product finishes across the lanes and the groups by
//     the same kind of rounds (§13.5);
//   - a level's mask XOR is affine in the branch vector, (L·b) ⊕ m =
//     diag(1 − 2·m)·L·b + m, so Prepare stages the signed matrix and the
//     level step is a mat-vec and an addition: no mask product, in any
//     scenario;
//   - the comparison's reduction tree is depth-optimal, ⌈log2 p⌉ product
//     levels, and reads the EQ of its last node only where plane rounds
//     follow, so at one plane per operand those EQ products (and the last
//     plane's eq) are dead code;
//   - the top of the tree is one sum of lazy (unrelinearized) products and
//     pays for a single relinearization instead of one per term;
//   - the plaintext constants of ⊕ (XOR coefficient/offset pairs) are
//     encoded once at bind time instead of per call;
//   - with a plaintext model, eq_j = ¬(x_j ⊕ y_j) folds into a single
//     affine pair, gt_j into one plaintext multiplication, an all-zero
//     level mask into nothing, and an all-zero matrix into the zero
//     constant;
//   - for a service that shuffles its results (paper §7.2.2), the result
//     shuffle is a fifth stage of the same program, its permutations bound
//     per pass like the query planes (shuffle.go).
//
// Every rewrite preserves the decrypted result bit-for-bit (BGV
// arithmetic mod t is exact; only noise differs), and the oracle for the
// whole program is the plaintext walk model.Forest.Classify, which the
// test corpus checks across every scenario, backend, batch fill and
// shard count. Registers are SSA — each op writes a fresh register and
// its operand registers name its producers — so the parallel schedule
// is not placed by hand: schedule (sched.go) derives it from the ops.

// opCode enumerates the primitive ops of the program IR. The operand
// fields of progOp are interpreted per code; pass.runOp is the runtime
// semantics. Every arithmetic op takes ciphertext or plaintext operands
// on either side, which is what lets one program serve encrypted and
// plaintext queries alike.
type opCode uint8

const (
	opQuery   opCode = iota // R[Dst] = query bit-plane operand Imm
	opThresh                // R[Dst] = negated model threshold operand Imm
	opMask                  // R[Dst] = additive level mask Imm
	opConst                 // R[Dst] = bound plaintext constant Imm
	opAdd                   // R[Dst] = R[A] + R[B]
	opSub                   // R[Dst] = R[A] − R[B]
	opMul                   // R[Dst] = R[A] · R[B]
	opMulLazy               // R[Dst] = R[A] ⊗ R[B] (unrelinearized)
	opMulDiag               // R[Dst] = diag(Imm, Imm2) ⊗ R[A] (lazy)
	opRelin                 // R[Dst] = relinearize(R[A])
	opRot                   // R[Dst] = rot(R[A], Imm)
	opHoist                 // R[Dst+i] = rot(R[A], hoists[Imm][i]) (hoisted)
	opDrop                  // R[Dst] = R[A] switched down to level Imm (before the level pass: to drop point Imm)
	opSelect                // R[Dst] = the pass's selector of its queries' leaf slots
)

// The matrices an opMulDiag multiplies by, its Imm: stacked level operand
// Imm when Imm ≥ 0, else the reshuffle or the pass's permutations.
const (
	matReshuffle = -1
	matShuffle   = -2
)

// progOp is one op of the flat program. Dst/A/B are register indices;
// Imm/Imm2 carry per-code immediates (plane index, rotation step, level,
// matrix/diagonal index, hoist-table index). Stage is the pipeline stage
// the op belongs to; a stage's ops are contiguous in the program.
type progOp struct {
	Code      opCode
	Stage     uint8
	Dst, A, B int
	Imm, Imm2 int
}

// operands returns the registers op reads.
func (op progOp) operands() []int {
	switch op.Code {
	case opAdd, opSub, opMul, opMulLazy:
		if op.A == op.B {
			return []int{op.A}
		}
		return []int{op.A, op.B}
	case opMulDiag, opRelin, opRot, opHoist, opDrop:
		return []int{op.A}
	}
	return nil
}

// Pipeline stage tags, in execution order. Every op carries one; the
// executor joins at each stage boundary, where it closes the stage's
// trace window. Only a program built for a shuffling service has the
// shuffle stage.
const (
	stCompare = iota
	stReshuffle
	stLevels
	stAccumulate
	stShuffle
	stDone
)

// constKind enumerates the bind-time plaintext constants. Their slot
// values are derived from the model's plaintext components and the
// backend's plaintext modulus when the program is bound, so the program
// itself is backend-agnostic.
type constKind uint8

const (
	ckZero       constKind = iota // all-zero (an entirely skippable matrix product)
	ckThreshCoef                  // (2·y−1) mod t over threshold plane Index (eq fold)
	ckThreshNot                   // (1−y) mod t over threshold plane Index (eq offset and gt factor)
	ckGroupMask                   // 1 over block group 0 of plane packing Index, 0 elsewhere
	ckOnes                        // 1 in every slot (the baseline's 1 − d)
)

type constSpec struct {
	Kind  constKind
	Index int
}

// Program is the compiled op schedule for one prepared model. It is
// built by buildProgram at Prepare time (the baseline's by
// NewBaselineProgram), bound to a backend once (plaintext constants
// encoded), and executed by Engine.Classify (ClassifyBaseline).
type Program struct {
	ops    []progOp
	sched  schedule // derived from ops by newSchedule
	hoists [][]int
	consts []constSpec
	numReg int
	result int
	// stages is how many pipeline stages the program runs: four, or five
	// with the result shuffle.
	stages int
	// encModel records that the staged matrices are ciphertexts: an
	// opMulDiag is then a tensor product, not a plaintext one. plainQuery
	// records that the program is levelled for plaintext query planes.
	encModel, plainQuery bool
	// est is the level pass's estimate (level, noise) of each register
	// under the plan the program was built for, rounds its estimate after
	// each scheduled compare round.
	est, rounds []est

	// Trace registers: the carrier operands whose limb counts and
	// measured noise the per-stage trace reports. regLeaves is the leaf
	// bitvector the accumulate stage lands at its final level: the result,
	// or what the shuffle stage permutes.
	regQuery, regDecisions, regBranchVec, regLevelResult, regLeaves int

	bound   []he.Operand // staged constants, set by bind
	scratch sync.Pool    // *passScratch
}

// progInputs is everything buildProgram needs: the shapes of the
// operands Prepare just staged.
type progInputs struct {
	meta Meta
	// plan is the schedule to build under. The structure reads only how
	// many compare rounds it schedules.
	plan      StageLevels
	encrypted bool
	// plainQuery levels the program for plaintext query planes
	// (ScenarioClientEval): the same structure, other levels.
	plainQuery bool
	// packing is the plane packing g the program is for, and planes the
	// ⌈p/g⌉ query and threshold operands it reads.
	packing, planes int
	// lanes and groups are the level stage's h lanes × G slot groups
	// (Meta.LevelLayout of the packing); levels are the ⌈D/(h·G)⌉ stacked
	// level operands, and maskZero marks those whose additive mask is a
	// plaintext zero.
	lanes, groups int
	reshuffle     diagShape
	levels        []diagShape
	maskZero      []bool
	// threshVals are the replicated negated threshold planes of a plaintext
	// model, exactly as staged (nil when encrypted).
	threshVals [][]uint64
	// shuffle appends the result shuffle stage.
	shuffle bool
}

// diagShape is the structural skeleton of a staged diagonal matrix: the
// baby/giant split and the plaintext-known zero diagonals.
type diagShape struct {
	period, baby, giant int
	zero                []bool // per pre-rotated diagonal index
}

func diagShapeOf(d *matrix.Diagonals) diagShape {
	return diagShape{period: d.Period, baby: d.Baby, giant: d.Giant, zero: d.Zero}
}

// progBuilder accumulates ops and constants while walking the pipeline
// symbolically; every op is tagged with the stage being walked.
type progBuilder struct {
	p       *Program
	constIx map[constSpec]int
	stage   uint8
	// rounds is how many compare rounds the plan schedules a drop after.
	rounds int
}

func (bl *progBuilder) emit(code opCode, a, b, imm, imm2 int) int {
	dst := bl.p.numReg
	bl.p.numReg++
	bl.p.ops = append(bl.p.ops, progOp{Code: code, Stage: bl.stage, Dst: dst, A: a, B: b, Imm: imm, Imm2: imm2})
	return dst
}

// constReg returns the register of a bind-time constant, deduplicated.
// Loads are free at run time (a register alias), so each constant is
// loaded once, in the stage it first appears in.
func (bl *progBuilder) constReg(spec constSpec) int {
	if r, ok := bl.constIx[spec]; ok {
		return r
	}
	idx := len(bl.p.consts)
	bl.p.consts = append(bl.p.consts, spec)
	r := bl.emit(opConst, 0, 0, idx, 0)
	bl.constIx[spec] = r
	return r
}

// drop marks a scheduled drop of r to one of levelplan.go's drop points.
// It is emitted even where the pass expects r at the level already (the
// op then passes its operand through): a carrier arriving higher than
// estimated still enters its stage on schedule.
func (bl *progBuilder) drop(r, point int) int {
	return bl.emit(opDrop, r, 0, point, 0)
}

func (bl *progBuilder) mul(a, b int) int { return bl.emit(opMul, a, b, 0, 0) }

// dropRound drops the live registers of a comparison after product level
// round to the level the plan's CompareRounds[round] schedules (DESIGN.md
// §13.4); a register read twice drops once. A round the plan lists no
// entry for drops nothing.
func (bl *progBuilder) dropRound(round int, regs ...*int) {
	if round >= bl.rounds {
		return
	}
	dropped := map[int]int{}
	for _, r := range regs {
		d, ok := dropped[*r]
		if !ok {
			d = bl.drop(*r, atRound+round)
			dropped[*r] = d
		}
		*r = d
	}
}

// compare lowers one comparison [x > y] of p-bit values: q are the
// registers of x's bit planes, most significant first, and thresh the
// operand index of each plane of the staged negated threshold ¬y — an
// opThresh load under an encrypted model, the folded constants of a
// plaintext one. It returns GT and EQ over all planes and the product
// levels it took, the round the plane rounds that may follow go on from.
// EQ is read only by such rounds; without them it is dead code.
func (bl *progBuilder) compare(q, thresh []int) (gt, eq, round int) {
	// Per-plane eq/gt terms. The staged threshold planes are ¬y_j.
	nPlanes := len(q)
	eqs := make([]int, nPlanes)
	gts := make([]int, nPlanes)
	for j := 0; j < nPlanes; j++ {
		if bl.p.encModel {
			notY := bl.emit(opThresh, 0, 0, thresh[j], 0)
			gts[j] = bl.emit(opMul, q[j], notY, 0, 0)
			sum := bl.emit(opAdd, q[j], notY, 0, 0)
			twice := bl.emit(opAdd, gts[j], gts[j], 0, 0)
			eqs[j] = bl.emit(opSub, sum, twice, 0, 0)
		} else {
			coef := bl.constReg(constSpec{Kind: ckThreshCoef, Index: thresh[j]})
			not := bl.constReg(constSpec{Kind: ckThreshNot, Index: thresh[j]})
			scaled := bl.emit(opMul, q[j], coef, 0, 0)
			eqs[j] = bl.emit(opAdd, scaled, not, 0, 0)
			gts[j] = bl.emit(opMul, q[j], not, 0, 0)
		}
	}

	// The comparison is one reduction over the associative pair
	// (GT, EQ)∘(GT′, EQ′) = (GT + EQ·GT′, EQ·EQ′), more significant planes
	// on the left (DESIGN.md §13.4), in one product level per round: after
	// every round the live registers drop to the plan's next CompareRounds
	// entry, so CompareRounds[r] is the level after product level r.
	// Across the operands it is a tree: adjacent pairs combine until at
	// most four nodes are left (an odd last node passes up unchanged). The
	// leading node's GT is only ever added, never multiplied, so its
	// products stay lazy and join the single relinearization at the top ...
	type node struct{ gt, eq int }
	nodes := make([]node, nPlanes)
	for j := range nodes {
		nodes[j] = node{gts[j], eqs[j]}
	}
	for len(nodes) > 4 {
		var next []node
		for i := 0; i < len(nodes); i += 2 {
			if i+1 == len(nodes) {
				next = append(next, nodes[i])
				break
			}
			a, b := nodes[i], nodes[i+1]
			code := opMul
			if i == 0 {
				code = opMulLazy
			}
			next = append(next, node{bl.emit(opAdd, a.gt, bl.emit(code, a.eq, b.gt, 0, 0), 0, 0), bl.mul(a.eq, b.eq)})
		}
		nodes = next
		var live []*int
		for i := range nodes {
			live = append(live, &nodes[i].gt, &nodes[i].eq)
		}
		bl.dropRound(round, live...)
		round++
	}
	// ... and the top is flattened into one sum of lazy products under a
	// single relinearization: with four nodes
	//
	//	GT = GT0 + EQ0⊗GT1 + E01⊗GT2 + E01⊗(EQ2·GT3),   E01 = EQ0·EQ1,
	//
	// E01 and EQ2·GT3 the eager round ahead of it, so four nodes take two
	// product levels and m operands ⌈log2 m⌉. The sum runs in index order,
	// so the result does not depend on the schedule. EQ over all of them,
	// E01·(EQ2·EQ3), is read only by the plane rounds; without them it is
	// dead code, like the EQ of the last node at every level.
	gt, eq = nodes[0].gt, nodes[0].eq
	if n := len(nodes); n > 1 {
		terms := [][2]int{{nodes[0].eq, nodes[1].gt}}
		if n == 2 {
			eq = bl.mul(nodes[0].eq, nodes[1].eq)
		} else {
			e01 := bl.mul(nodes[0].eq, nodes[1].eq)
			terms = append(terms, [2]int{e01, nodes[2].gt})
			rest := nodes[2].eq
			if n == 4 {
				terms = append(terms, [2]int{e01, bl.mul(nodes[2].eq, nodes[3].gt)})
				rest = bl.mul(nodes[2].eq, nodes[3].eq)
			}
			live := []*int{&gt, &e01, &rest}
			for i := range terms {
				live = append(live, &terms[i][0], &terms[i][1])
			}
			bl.dropRound(round, live...)
			round++
			eq = bl.mul(e01, rest)
		}
		for _, t := range terms {
			gt = bl.emit(opAdd, gt, bl.emit(opMulLazy, t[0], t[1], 0, 0), 0, 0)
		}
		gt = bl.emit(opRelin, gt, 0, 0, 0)
		bl.dropRound(round, &gt, &eq)
		round++
	}
	return gt, eq, round
}

// productTree multiplies regs together pairwise, an odd last one passing
// up unchanged: ⌈log2 len(regs)⌉ product levels.
func (bl *progBuilder) productTree(regs []int) int {
	for len(regs) > 1 {
		next := make([]int, 0, (len(regs)+1)/2)
		for i := 0; i+1 < len(regs); i += 2 {
			next = append(next, bl.mul(regs[i], regs[i+1]))
		}
		if len(regs)%2 == 1 {
			next = append(next, regs[len(regs)-1])
		}
		regs = next
	}
	return regs[0]
}

// buildProgram compiles the pipeline into a Program: the structure,
// levelled under in.plan by the level pass, and its schedule. A plan the
// pass finds infeasible is a *PlanInfeasibleError.
func buildProgram(in progInputs) (*Program, error) {
	p, err := buildStructure(in)
	if err != nil {
		return nil, err
	}
	if err := p.finish(in.meta.Slots, in.plan); err != nil {
		return nil, err
	}
	return p, nil
}

// finish levels p's structure under plan with the level pass for a ring
// of the given slot count, and derives its schedule. A plan the pass finds
// infeasible is a *PlanInfeasibleError.
func (p *Program) finish(slots int, plan StageLevels) error {
	lv, fail := p.levelPass(planNoiseModel(slots), plan, p.plainQuery, stCompare, est{})
	if fail != nil {
		return fail.infeasible()
	}
	p.ops, p.est, p.rounds, p.numReg = lv.ops, lv.est, lv.rounds, len(lv.est)
	p.sched = newSchedule(p)
	p.scratch.New = func() any { return newPassScratch(p) }
	return nil
}

// buildStructure lowers the pipeline to ops, with the scheduled drop
// points marked and no levels assigned yet. The shapes rejected here can
// only come from a hand-built or corrupted artifact.
func buildStructure(in progInputs) (*Program, error) {
	switch {
	case in.planes == 0:
		return nil, &UnsupportedModelError{Reason: "no threshold bit planes"}
	case len(in.levels) == 0:
		return nil, &UnsupportedModelError{Reason: "no level matrices"}
	case len(in.maskZero) != len(in.levels):
		return nil, &UnsupportedModelError{Reason: fmt.Sprintf("%d level masks for %d level matrices", len(in.maskZero), len(in.levels))}
	}
	// One set of baby rotations of the branch vector feeds every level
	// product, so the level matrices must agree on the split (they are
	// all staged with period BPad, so they do).
	baby := in.levels[0].baby
	for l, sh := range in.levels {
		if sh.baby != baby || sh.period != in.levels[0].period {
			return nil, &UnsupportedModelError{Reason: fmt.Sprintf("level matrix %d staged %d×%d over period %d, level matrix 0 %d×%d over %d",
				l, sh.baby, sh.giant, sh.period, baby, in.levels[0].giant, in.levels[0].period)}
		}
	}
	// All-zero diagonals are skipped exactly when the model is plaintext:
	// the server can see them anyway, whereas skipping an encrypted
	// model's would leak its branching structure (§7.1).
	skipZero := !in.encrypted
	p := &Program{encModel: in.encrypted, plainQuery: in.plainQuery}
	bl := &progBuilder{p: p, constIx: map[constSpec]int{}, rounds: len(in.plan.CompareRounds)}

	// ---- Stage 1: compare -------------------------------------------
	// Query planes (dropped to the compare entry) and shared constants.
	// Loads are register aliases; only the drops cost work.
	nPlanes := in.planes
	q := make([]int, nPlanes)
	zero := -1
	for j := 0; j < nPlanes; j++ {
		q[j] = bl.drop(bl.emit(opQuery, 0, 0, j, 0), atCompare)
	}
	// A matrix product whose every diagonal is skipped is the zero
	// vector.
	skippable := func(sh diagShape) bool { return !slices.Contains(sh.zero, false) }
	if skipZero && (skippable(in.reshuffle) || slices.ContainsFunc(in.levels, skippable)) {
		zero = bl.constReg(constSpec{Kind: ckZero})
	}
	p.regQuery = q[0]

	thresh := make([]int, nPlanes)
	for j := range thresh {
		thresh[j] = j
	}
	decisions, eqAll, round := bl.compare(q, thresh)
	// Across the g block groups of one operand the comparison goes on in
	// log2 g rotate-and-multiply rounds: group b reads group b + 2^r, the
	// less significant one, through a rotation by a positive power of two.
	// Block group 0 — the queries' own blocks — ends holding the whole
	// comparison; the other groups wrap around and hold garbage the block-
	// local stages that follow never mix in. The last round's EQ is dead.
	//
	// The lane groups of the level stage are filled from block group 0 by
	// rotate-and-add (below), so under a grouped layout the garbage has to
	// be zero instead: the decisions are multiplied by the plaintext 0/1
	// selector of block group 0. A plaintext product costs ~24 bits of
	// noise and no level, so it sits directly ahead of a level move the
	// schedule makes anyway, which rounds it away (DESIGN.md §13.5). GT and
	// EQ leave the tree at the same depth and descend the rounds together,
	// so every packing reaches the stage boundary after ⌈log2 p⌉ product
	// levels; where the selector goes is what the level pass shows. With one
	// operand it multiplies the result ahead of the boundary drop. With
	// several it multiplies both factors of the last round,
	// GT' = sel·GT + (sel·EQ)·rot(GT): sel·GT waits a level above the
	// product it is added to, so the alignment rounds its bits away, and
	// only sel·EQ's enter a tensor product, whose modulus switch keeps ~15
	// of the 24. On the result alone a plaintext model's decisions would
	// carry all 24 into the reshuffle entry, and wide8's would rise a level.
	if in.packing > 1 {
		sel := func(r int) int { return r }
		if in.groups > 1 {
			mask := bl.constReg(constSpec{Kind: ckGroupMask, Index: in.packing})
			sel = func(r int) int { return bl.emit(opMul, r, mask, 0, 0) }
		}
		for step := in.meta.Slots / in.packing; step < in.meta.Slots; step <<= 1 {
			gt, eq := decisions, eqAll
			if nPlanes > 1 && step == in.meta.Slots/2 {
				gt, eq = sel(gt), sel(eq)
			}
			below := bl.emit(opRot, decisions, 0, step, 0)
			decisions = bl.emit(opAdd, gt, bl.mul(eq, below), 0, 0)
			eqAll = bl.mul(eqAll, bl.emit(opRot, eqAll, 0, step, 0))
			bl.dropRound(round, &decisions, &eqAll)
			round++
		}
		if nPlanes == 1 {
			decisions = sel(decisions)
		}
	}
	decisions = bl.drop(decisions, atReshuffle)
	p.regDecisions = decisions

	// ---- Stage 2: reshuffle -----------------------------------------
	// The product, block-local and so zero wherever the decisions are; the
	// doublings that fill the block with BPad-periodic copies of the branch
	// vector (one, by −SPad, where the rows were staged repeated); and the
	// doublings that copy slot group 0 into the other G − 1: steps Slots/2,
	// Slots/4, …, positive powers of two, exact because the rest of the
	// ciphertext is zero.
	bl.stage = stReshuffle
	rots := bl.hoistRots(decisions, neededBaby(skipZero, in.reshuffle))
	branch := bl.mergeGroups(bl.matVecGroups(in.reshuffle, rots, matReshuffle, skipZero), zero)
	for pw := in.meta.branchSpan(in.encrypted); pw < in.meta.BatchBlock(); pw <<= 1 {
		rot := bl.emit(opRot, branch, 0, -pw, 0)
		branch = bl.emit(opAdd, branch, rot, 0, 0)
	}
	for step := in.meta.Slots / 2; step >= in.meta.Slots/in.groups; step >>= 1 {
		rot := bl.emit(opRot, branch, 0, step, 0)
		branch = bl.emit(opAdd, branch, rot, 0, 0)
	}
	branch = bl.drop(branch, atLevel)
	p.regBranchVec = branch

	// ---- Stage 3: levels --------------------------------------------
	// One shared set of baby rotations feeds every level product; under
	// skipZero only the union of steps some level actually reads is
	// computed. A stacked operand is an affine map of the branch vector —
	// the signed matrices of its lanes, then their masks added — so a lane
	// holds (L_l·b) ⊕ mask_l at the depth of the mat-vec alone.
	bl.stage = stLevels
	rots = bl.hoistRots(branch, neededBaby(skipZero, in.levels...))
	lvlRes := make([]int, len(in.levels))
	for l, sh := range in.levels {
		lvl := bl.mergeGroups(bl.matVecGroups(sh, rots, l, skipZero), zero)
		if !in.maskZero[l] {
			lvl = bl.emit(opAdd, lvl, bl.emit(opMask, 0, 0, l, 0), 0, 0)
		}
		lvlRes[l] = bl.drop(lvl, atAccumulate)
	}
	p.regLevelResult = lvlRes[0]

	// ---- Stage 4: accumulate ----------------------------------------
	// The product tree over the stacked level results, then — each holding
	// one level per lane — log2 h rounds in which lane i of a block takes in
	// lane i + 2^r and log2 G in which slot group j takes in group j + 2^r,
	// each through a rotation by a positive power of two. Lane 0 of every
	// block of group 0, where decode reads, ends holding the product of all
	// levels at the depth of a tree over them (⌈log2 ⌈D/(h·G)⌉⌉ + log2 h +
	// log2 G = ⌈log2 D⌉); the other lanes and groups hold 0/1 residue
	// (DESIGN.md §13.5).
	bl.stage = stAccumulate
	acc := bl.productTree(lvlRes)
	fold := func(from, to int) {
		for step := from; step < to; step <<= 1 {
			acc = bl.emit(opMul, acc, bl.emit(opRot, acc, 0, step, 0), 0, 0)
		}
	}
	fold(in.meta.BatchBlock()/in.lanes, in.meta.BatchBlock())
	fold(in.meta.Slots/in.groups, in.meta.Slots)
	p.regLeaves = bl.drop(acc, atFinal)
	p.result, p.stages = p.regLeaves, stShuffle
	if in.shuffle {
		p.result, p.stages = bl.shuffleStage(in, p.regLeaves), stDone
	}
	p.eliminateDeadOps()
	return p, nil
}

// shuffleStage lowers stage 5, the result shuffle (paper §7.2.2): every
// block's leaf slots go through a permutation of their own, one block-
// diagonal mat-vec over the LPad period for the whole batch (DESIGN.md
// §10). A block of several level lanes, or a batch run over lane groups,
// leaves 0/1 residue past the leaf slots of its queries, which the
// selector of those slots zeroes first; doublings then make each block
// LPad-periodic within itself (its payload is zero past LPad, so blocks
// never mix). The permutations and the selector are drawn per pass and
// bound like the query planes (shuffle.go), so which diagonals are zero is
// not known here: the program multiplies every one.
func (bl *progBuilder) shuffleStage(in progInputs, leaves int) int {
	bl.stage = stShuffle
	v := bl.drop(leaves, atShuffle)
	if in.lanes*in.groups > 1 {
		v = bl.emit(opMul, v, bl.emit(opSelect, 0, 0, 0, 0), 0, 0)
	}
	period := in.meta.LPad()
	for pw := period; pw < in.meta.BatchBlock(); pw <<= 1 {
		v = bl.emit(opAdd, v, bl.emit(opRot, v, 0, -pw, 0), 0, 0)
	}
	baby, giant := matrix.BSGSSplit(period)
	perm := diagShape{period: period, baby: baby, giant: giant, zero: make([]bool, period)}
	rots := bl.hoistRots(v, neededBaby(false, perm))
	return bl.mergeGroups(bl.matVecGroups(perm, rots, matShuffle, false), -1)
}

// neededBaby marks the baby rotations that some unskipped diagonal of
// the shapes (all of one split) reads.
func neededBaby(skipZero bool, shapes ...diagShape) []bool {
	needed := make([]bool, shapes[0].baby)
	for _, sh := range shapes {
		for i, z := range sh.zero {
			if !(skipZero && z) {
				needed[i%sh.baby] = true
			}
		}
	}
	return needed
}

// hoistRots emits the hoisted rotations for the needed baby steps and
// returns one register per baby index (index 0 aliases the source).
func (bl *progBuilder) hoistRots(src int, needed []bool) []int {
	rots := make([]int, len(needed))
	rots[0] = src
	var steps []int
	for j := 1; j < len(needed); j++ {
		if needed[j] {
			steps = append(steps, j)
		}
	}
	if len(steps) > 0 {
		bl.p.hoists = append(bl.p.hoists, steps)
		dst := bl.p.numReg
		bl.p.numReg += len(steps)
		bl.p.ops = append(bl.p.ops, progOp{Code: opHoist, Stage: bl.stage, Dst: dst, A: src, Imm: len(bl.p.hoists) - 1})
		for i, s := range steps {
			rots[s] = dst + i
		}
	}
	return rots
}

// matVecGroups emits the per-giant-group inner products of one BSGS
// matrix-vector product — independent of each other, so they run
// concurrently — returning the group result registers (-1 for skipped
// groups).
func (bl *progBuilder) matVecGroups(sh diagShape, rots []int, mat int, skipZero bool) []int {
	groups := make([]int, sh.giant)
	for g := 0; g < sh.giant; g++ {
		acc := -1
		for j := 0; j < sh.baby; j++ {
			i := g*sh.baby + j
			if skipZero && sh.zero[i] {
				continue
			}
			term := bl.emit(opMulDiag, rots[j], 0, mat, i)
			if acc < 0 {
				acc = term
			} else {
				acc = bl.emit(opAdd, acc, term, 0, 0)
			}
		}
		if acc >= 0 {
			// Plaintext diagonals' products are ct×pt: nothing to relinearize.
			if bl.p.cipherDiag(mat) {
				acc = bl.emit(opRelin, acc, 0, 0, 0)
			}
			if g > 0 {
				acc = bl.emit(opRot, acc, 0, g*sh.baby, 0)
			}
		}
		groups[g] = acc
	}
	return groups
}

// mergeGroups sums group results in index order — a deterministic merge
// for any worker count. With every group skipped the sum is empty.
func (bl *progBuilder) mergeGroups(groups []int, empty int) int {
	acc := empty
	for _, g := range groups {
		if g < 0 {
			continue
		}
		if acc == empty {
			acc = g
		} else {
			acc = bl.emit(opAdd, acc, g, 0, 0)
		}
	}
	return acc
}

// eliminateDeadOps removes ops whose results never reach the program
// result (or a trace register): without plane rounds to read EQ over all
// planes, the comparison tree's EQ products of its last node at every
// level, down to the last bit plane's eq decomposition, are dead, along
// with their scheduled drops.
func (p *Program) eliminateDeadOps() {
	live := make([]bool, p.numReg)
	for _, r := range []int{p.result, p.regQuery, p.regDecisions, p.regBranchVec, p.regLevelResult, p.regLeaves} {
		live[r] = true
	}
	keep := make([]bool, len(p.ops))
	for i := len(p.ops) - 1; i >= 0; i-- {
		op := p.ops[i]
		keep[i] = slices.Contains(live[op.Dst:op.Dst+p.width(op)], true)
		if keep[i] {
			for _, r := range op.operands() {
				live[r] = true
			}
		}
	}
	n := 0
	for i, op := range p.ops {
		if keep[i] {
			p.ops[n] = op
			n++
		}
	}
	p.ops = p.ops[:n]
}

// cipherDiag reports whether the diagonals of matrix mat (an opMulDiag's
// Imm) are ciphertexts: those of an encrypted model. The permutations are
// the server's own plaintext.
func (p *Program) cipherDiag(mat int) bool {
	return p.encModel && mat != matShuffle
}

// width is the number of consecutive registers op writes from Dst: one,
// except for a hoisted rotation set.
func (p *Program) width(op progOp) int {
	if op.Code == opHoist {
		return len(p.hoists[op.Imm])
	}
	return 1
}

// bind stages the program's plaintext constants on the backend —
// encoded once here instead of on every Classify call. threshVals are the
// negated threshold planes of the plaintext model the program was built
// from (progInputs; nil for an encrypted model, whose program has no
// constants derived from them).
func (p *Program) bind(b he.Backend, threshVals [][]uint64) error {
	t := b.PlainModulus()
	p.bound = make([]he.Operand, len(p.consts))
	for i, spec := range p.consts {
		vals := make([]uint64, b.Slots())
		switch spec.Kind {
		case ckZero:
		case ckThreshCoef: // 2·y − 1 = 1 − 2·¬y
			for j, m := range threshVals[spec.Index] {
				vals[j] = (1 + 2*(t-m%t)) % t
			}
		case ckThreshNot:
			copy(vals, threshVals[spec.Index])
		case ckGroupMask:
			for j := range vals[:len(vals)/spec.Index] {
				vals[j] = 1
			}
		case ckOnes:
			for j := range vals {
				vals[j] = 1
			}
		}
		op, err := he.NewPlain(b, vals)
		if err != nil {
			return err
		}
		p.bound[i] = op
	}
	return nil
}
