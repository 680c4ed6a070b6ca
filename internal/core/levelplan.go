package core

import (
	"math"

	"copse/internal/bgv"
	"copse/internal/matrix"
)

// Static level scheduling ("Level Up", Mahdavi et al. 2309.06496, applied
// to the COPSE pipeline): every BGV operation's cost scales with the
// number of active RNS limbs, yet reactive noise management keeps
// ciphertexts as high on the modulus chain as the noise allows — so the
// deep, rotation-heavy back half of Algorithm 1 pays full-chain NTTs and
// key switches whose noise budget needs only one or two limbs. The
// compiler instead records a per-stage target level; the engine drops
// ciphertexts to it, model operands are produced at it, and the serving
// backend sizes its chain and switching keys to the plan's top.
//
// There is one description of the circuit: the op program (program.go).
// The planner builds the program's structure from Meta alone, runs the
// level pass below over its ops under candidate schedules, and searches
// for the lowest feasible one; Prepare builds the structure from the
// staged shapes and runs the same pass once under the stored schedule
// (DESIGN.md §8.1). The per-op transfer functions MUST bound
// internal/bgv/evaluator.go from above: TestPlannerNoiseBoundsMeasured
// holds every predicted stage boundary against a decryption.

// LevelPlan is a compile-time schedule assigning each pipeline stage the
// modulus-chain level it executes at. Levels are absolute: level 0 is
// the last prime of a chain of Levels primes, and a backend with a
// longer chain simply never uses the extra top primes (operands are
// produced at the scheduled levels directly). Old artifacts carry no
// plan (nil) and fall back to reactive noise management.
type LevelPlan struct {
	// Levels is the chain length (prime count) the plan was computed
	// for — the fraction of the reactive recommendation the scheduled
	// pipeline actually needs.
	Levels int
	// Cipher is the schedule for encrypted-model scenarios, Plain for
	// plaintext-model ones (the features are encrypted either way; the
	// all-plaintext configuration performs no homomorphic ops and
	// ignores the plan).
	Cipher, Plain StageLevels
}

// StageLevels is one scenario's schedule: the level each stage of
// Algorithm 1 enters at. Operands consumed by a stage are staged at its
// entry level.
type StageLevels struct {
	// Compare is where the query bit planes and threshold planes sit.
	Compare int
	// Reshuffle is the reshuffle mat-vec entry (reshuffle diagonals).
	Reshuffle int
	// Level is the per-level mat-vec entry (level diagonals and masks).
	Level int
	// Accumulate is the product-tree entry.
	Accumulate int
	// Final is the level the classification result lands at.
	Final int
	// Shuffle is the minimum level the optional result shuffle (§7.2.2)
	// needs at entry. With the default minimal schedule the result lands
	// below it; compile with Options.PlanShuffle to reserve the headroom.
	Shuffle int
	// CompareRounds schedules the reduction inside the compare stage:
	// CompareRounds[r] is the level every live (GT, EQ) operand is dropped
	// to after product level r — a pairing round of the tree, its eager or
	// its lazy top level, or a plane round — in every packing, so the later
	// levels of the single most expensive stage run on 1–2 fewer limbs than
	// reactive management would keep them at. One entry per product level,
	// ⌈log2 p⌉. Derived by lowering each round's level until the level pass
	// breaks. Nil on older artifacts (no per-round drops). An artifact
	// planned for the Sklansky prefix chain that preceded the tree carries
	// as many entries, planned for a chain one level deeper; the tree reads
	// them as its own, and Prepare refuses the plan if the level pass does.
	CompareRounds []int
}

// For returns the schedule for a scenario.
func (p *LevelPlan) For(encryptedModel bool) StageLevels {
	if encryptedModel {
		return p.Cipher
	}
	return p.Plain
}

// QueryLevel is the level query bit planes are produced at. Diane does
// not know whether the model she queries is encrypted, so the planes
// land at the deeper of the two compare entries; the engine drops them
// the remaining step on the shallower path.
func (p *LevelPlan) QueryLevel() int {
	return max(p.Cipher.Compare, p.Plain.Compare)
}

// ChainLevels is the chain length a backend needs to serve the given
// scenario under this plan.
func (p *LevelPlan) ChainLevels(encryptedModel bool) int {
	return p.For(encryptedModel).Compare + 1
}

// ChainLevels is the chain length a backend built for this model alone
// serves the given scenario on: the plan's, capped at the reactive
// recommendation, or the recommendation itself for a model without a plan.
func (m *Meta) ChainLevels(encryptedModel bool) int {
	if m.LevelPlan == nil {
		return m.RecommendedLevels
	}
	return min(m.LevelPlan.ChainLevels(encryptedModel), m.RecommendedLevels)
}

// ShuffleLevel is the entry level ShuffleResult needs, across scenarios.
func (p *LevelPlan) ShuffleLevel() int {
	return max(p.Cipher.Shuffle, p.Plain.Shuffle)
}

// Scheduled drop points: the immediate of an opDrop in a program's
// structure names the schedule entry the pass resolves it against — a
// stage entry, or atRound+r for the drop after compare product level r.
const (
	atCompare = iota
	atReshuffle
	atLevel
	atAccumulate
	atFinal
	atRound
)

// entry resolves a scheduled drop point. A compare round the schedule
// does not list drops nothing: it resolves to the stage's own entry.
func (s StageLevels) entry(point int) int {
	if r := point - atRound; r >= 0 && r < len(s.CompareRounds) {
		return s.CompareRounds[r]
	}
	return [...]int{s.Compare, s.Reshuffle, s.Level, s.Accumulate, s.Final, s.Compare}[min(point, atRound)]
}

// noiseModel mirrors the constants of internal/bgv: all shipped
// parameter presets share the plaintext modulus and prime size; only the
// ring degree varies with the packing width. The key-switch noise is
// bgv.KeySwitchNoiseBits itself, not a copy. Estimates err on the safe
// side: the modulus bit length is rounded down and stageSlack bits are
// kept in hand on every headroom check.
type noiseModel struct{ logN, tBits, primeBits int }

// stageSlack is the safety margin (bits) held back on every headroom
// check, indexed by the stage tag of the op being walked (stDone: the
// final decryptability check and the result shuffle). The estimates
// compound through the longest remaining circuit early in the pipeline,
// so those stages keep the most in hand.
var stageSlack = [stDone + 1]float64{2, 2, 1.5, 1, 1}

// minFinalLevel is the lowest level a schedule may land the result at:
// level 0 would leave decryption two bits of predicted margin.
const minFinalLevel = 1

// planNoiseModel returns the model for a packing width (slots = N/2).
func planNoiseModel(slots int) noiseModel {
	return noiseModel{logN: log2Ceil(slots) + 1, tBits: 17 /* t = 65537 */, primeBits: 55}
}

// qBits lower-bounds the modulus bit length at a level.
func (nm noiseModel) qBits(level int) float64 {
	return float64((level+1)*nm.primeBits - 1)
}

// floor is the noise level right after a modulus switch.
func (nm noiseModel) floor() float64 {
	return float64(nm.tBits + nm.logN + 4)
}

// ks is the additive noise of one key switch at a level.
func (nm noiseModel) ks(level int) float64 {
	return bgv.KeySwitchNoiseBits(nm.logN, nm.tBits, level)
}

// fresh is a fresh public-key encryption at a level.
func (nm noiseModel) fresh(level int) est {
	return est{cipher: true, level: level, noise: float64(nm.tBits) + float64(nm.logN)/2 + 8}
}

// est is the planner's estimate of one register: a noiseless plaintext
// (the zero value), or a ciphertext at a level with a bound on its noise
// (bits) and the degree-2 flag of an unrelinearized product.
type est struct {
	cipher, deg2 bool
	level        int
	noise        float64
}

// Failure kinds: the chain ran out of levels, or the predicted noise
// passed the decryption margin (planner.schedule reacts to each).
const (
	failNone = iota
	failLevel
	failNoise
)

// sim holds the per-op transfer functions: the evaluator's noise
// accounting, one op at a time. The first infeasibility sticks in kind.
type sim struct {
	nm    noiseModel
	stage int // indexes stageSlack
	kind  int
}

func (s *sim) fail(kind int) {
	if s.kind == failNone {
		s.kind = kind
	}
}

// modSwitch drops one prime. The evaluator rounds a multi-prime move
// once (ring.ModSwitchDownTo), which adds no more noise than this
// prime-at-a-time accounting; the planner keeps the conservative model.
func (s *sim) modSwitch(c *est) {
	if c.level == 0 {
		s.fail(failLevel)
		return
	}
	c.level--
	c.noise = math.Max(c.noise-float64(s.nm.primeBits), s.nm.floor())
}

// manage mirrors Evaluator.manage: switch down lazily, then verify the
// decryption margin (minus the active stage's slack).
func (s *sim) manage(c *est) {
	margin := float64(s.nm.tBits + 10)
	for c.level > 0 && c.noise > s.nm.qBits(c.level)-margin {
		s.modSwitch(c)
	}
	if c.noise > s.nm.qBits(c.level)-float64(s.nm.tBits)-2-stageSlack[s.stage] {
		s.fail(failNoise)
	}
}

// dropTo switches a ciphertext that sits above a level down to it.
func (s *sim) dropTo(c est, level int) est {
	for c.cipher && c.level > level {
		s.modSwitch(&c)
	}
	return c
}

// tensor mirrors tensorProduct + the manage call of MulNoRelin.
func (s *sim) tensor(a, b est) est {
	a, b = s.dropTo(a, b.level), s.dropTo(b, a.level)
	for a.level > 0 && a.noise >= s.nm.floor()+float64(s.nm.primeBits) {
		s.modSwitch(&a)
	}
	b = s.dropTo(b, a.level)
	if a.level == 0 {
		s.fail(failLevel)
		return a
	}
	out := est{cipher: true, level: a.level, noise: a.noise + b.noise + float64(s.nm.logN) + 1, deg2: true}
	s.manage(&out)
	return out
}

// relin mirrors Relinearize: key-switch noise, one unconditional modulus
// switch, then management.
func (s *sim) relin(c est) est {
	if !c.deg2 {
		return c
	}
	c.noise = math.Max(c.noise, s.nm.ks(c.level)) + 1
	c.deg2 = false
	s.modSwitch(&c)
	s.manage(&c)
	return c
}

// rot mirrors checkGalois + galoisFromDigits + manage.
func (s *sim) rot(c est) est {
	if !c.cipher {
		return c
	}
	if s.nm.qBits(c.level) < s.nm.ks(c.level)+float64(s.nm.tBits)+4+stageSlack[s.stage] {
		s.fail(failLevel)
		return c
	}
	c.noise = math.Max(c.noise, s.nm.ks(c.level)) + 1
	s.manage(&c)
	return c
}

// mulPlain mirrors MulPlain's noise growth.
func (s *sim) mulPlain(x est) est {
	x.noise += float64(s.nm.tBits) + float64(s.nm.logN)/2 + 1
	s.manage(&x)
	return x
}

// mulLazy mirrors he.MulLazy: a cipher×cipher product stays degree 2.
func (s *sim) mulLazy(x, y est) est {
	switch {
	case x.cipher && y.cipher:
		return s.tensor(x, y)
	case x.cipher:
		return s.mulPlain(x)
	case y.cipher:
		return s.mulPlain(y)
	}
	return est{}
}

// mul mirrors he.Mul: a cipher×cipher product is relinearized.
func (s *sim) mul(x, y est) est {
	out := s.mulLazy(x, y)
	if x.cipher && y.cipher {
		out = s.relin(out)
	}
	return out
}

// add mirrors he.Add / Sub / AddPlain.
func (s *sim) add(x, y est) est {
	switch {
	case x.cipher && y.cipher:
		x, y = s.dropTo(x, y.level), s.dropTo(y, x.level)
		x.noise, x.deg2 = math.Max(x.noise, y.noise)+1, x.deg2 || y.deg2
	case x.cipher:
		x.noise++
	case y.cipher:
		x = y
		x.noise++
	default:
		return est{}
	}
	s.manage(&x)
	return x
}

// planFailure reports why a schedule is infeasible: the stage to blame,
// the failure kind, the level the failing register sat at, and whether
// the stage entered with noise well above the modulus-switch floor (a
// hot entry).
type planFailure struct {
	stage, kind, level int
	hotEntry           bool
}

// levelled is a program under one schedule: its ops with every scheduled
// drop resolved and every alignment inserted, the estimate of each
// register, the hottest operand after each scheduled compare round (lowest
// level, highest noise), and the result as decryption sees it.
type levelled struct {
	ops    []progOp
	est    []est
	rounds []est
	result est
}

// levelPass is the one walk of the circuit: it runs the transfer
// functions over p's ops in order under the schedule at, resolves each
// scheduled drop point, inserts (once per register and level) the drop
// that brings the higher operand of a binary op down to the other's
// level, and stops at the first infeasibility. The planner searches with
// it over a structure built from Meta; Prepare installs what it returns.
func (p *Program) levelPass(nm noiseModel, at StageLevels, plainQuery bool) (levelled, *planFailure) {
	s := &sim{nm: nm}
	extra := len(p.ops) / 8
	out := levelled{ops: make([]progOp, 0, len(p.ops)+extra), est: make([]est, p.numReg, p.numReg+extra)}
	drops := map[[2]int]int{}
	entry := [stDone]int{stReshuffle: p.regDecisions, stLevels: p.regBranchVec, stAccumulate: p.regLevelResult}
	failure := func(stage, kind, level int, inStage bool) *planFailure {
		e := out.est[entry[stage]]
		return &planFailure{stage: stage, kind: kind, level: level,
			hotEntry: inStage && stage > 0 && e.cipher && e.noise > nm.floor()+8}
	}
	for _, op := range p.ops {
		s.stage = int(op.Stage)
		var e est
		switch op.Code {
		case opQuery:
			if !plainQuery {
				e = nm.fresh(at.Compare)
			}
		case opThresh:
			e = nm.fresh(at.Compare)
		case opMask:
			if p.encModel {
				e = nm.fresh(at.Level)
			}
		case opAdd, opSub, opMul, opMulLazy:
			if a, b := out.est[op.A], out.est[op.B]; a.cipher && b.cipher && a.level != b.level {
				hi, level := &op.A, b.level
				if b.level > a.level {
					hi, level = &op.B, a.level
				}
				key := [2]int{*hi, level}
				d, ok := drops[key]
				if !ok {
					d, drops[key] = len(out.est), len(out.est)
					out.est = append(out.est, s.dropTo(out.est[*hi], level))
					out.ops = append(out.ops, progOp{Code: opDrop, Stage: op.Stage, Dst: d, A: *hi, Imm: level})
				}
				*hi = d
			}
			switch a, b := out.est[op.A], out.est[op.B]; op.Code {
			case opMul:
				e = s.mul(a, b)
			case opMulLazy:
				e = s.mulLazy(a, b)
			default:
				e = s.add(a, b)
			}
		case opMulDiag:
			var diag est
			if p.encModel {
				diag = nm.fresh(at.Reshuffle)
				if op.Imm >= 0 {
					diag = nm.fresh(at.Level)
				}
			}
			e = s.mulLazy(diag, out.est[op.A])
		case opRelin:
			e = s.relin(out.est[op.A])
		case opRot, opHoist:
			e = s.rot(out.est[op.A])
		case opDrop:
			// A carrier must reach a stage boundary at or above the next
			// entry; a compare round's drop just passes lower operands on.
			point, src := op.Imm, out.est[op.A]
			op.Imm = at.entry(point)
			if point >= atReshuffle && point <= atFinal && src.cipher && src.level < op.Imm {
				return out, failure(s.stage, failLevel, src.level, false)
			}
			e = s.dropTo(src, op.Imm)
			drops[[2]int{op.A, op.Imm}] = op.Dst
			if r := point - atRound; r >= 0 && e.cipher {
				if r == len(out.rounds) {
					out.rounds = append(out.rounds, e)
				}
				out.rounds[r].level = min(out.rounds[r].level, e.level)
				out.rounds[r].noise = max(out.rounds[r].noise, e.noise)
			}
		}
		for r := op.Dst; r < op.Dst+p.width(op); r++ {
			out.est[r] = e
		}
		out.ops = append(out.ops, op)
		if s.kind != failNone {
			return out, failure(s.stage, s.kind, e.level, true)
		}
	}
	// Decryptability of the result where the schedule lands it.
	out.result = out.est[p.result]
	if out.result.cipher {
		s.stage = stDone
		if out.result.level < minFinalLevel {
			s.fail(failLevel)
		}
		s.manage(&out.result)
		if s.kind != failNone {
			return out, failure(stAccumulate, s.kind, out.result.level, true)
		}
	}
	return out, nil
}

// planStructure is the program structure of plane packing g the planner
// searches over, built from Meta alone: every diagonal kept and every
// mask non-zero — the worst case over the models Meta describes, and
// independent of any backend, since the plan is stored in the artifact.
func planStructure(m *Meta, encModel bool, g int) (*Program, error) {
	shape := func(period int) diagShape {
		baby, giant := m.kernelSplit(period)
		return diagShape{period: period, baby: baby, giant: giant, zero: make([]bool, period)}
	}
	in := progInputs{
		meta:      *m,
		plan:      &StageLevels{CompareRounds: make([]int, log2Ceil(max(m.Precision, 1)))},
		encrypted: encModel,
		packing:   g,
		planes:    m.QueryCiphertexts(g),
		reshuffle: shape(m.QPad),
	}
	var operands int
	in.lanes, in.groups, operands = m.LevelLayout(g)
	for l := 0; l < operands; l++ {
		in.levels = append(in.levels, shape(m.BPad))
	}
	in.maskZero = make([]bool, operands)
	return buildStructure(in)
}

// The result shuffle (shuffle.go) runs matrix.Replicate and
// matrix.MatVecBSGS outside the op program, so it is the one kernel the
// planner still walks by hand, on the same transfer functions.

// matVec walks the diagonal kernel of internal/matrix over a baby/giant
// split with a plaintext matrix.
func (s *sim) matVec(v est, baby, giant int) est {
	vr := v
	if baby > 1 {
		vr = s.rot(v)
	}
	acc := s.mulPlain(vr)
	for j := 1; j < baby; j++ {
		acc = s.add(acc, s.mulPlain(vr))
	}
	if giant > 1 {
		acc = s.rot(acc)
	}
	out := acc
	for g := 1; g < giant; g++ {
		out = s.add(out, acc)
	}
	return out
}

// shuffleShape is what the shuffle kernels and their walk need of Meta:
// the BSGS split of the padded leaf period (shuffle.go always stages BSGS
// diagonals), the rotate-and-add doublings of the single-query replicate
// and of the batched, block-local one, and whether each kernel pays a
// leaf-slot selector product first — the batched one when level lanes or
// lane groups past the first hold residue (priced for the batch that runs
// over the groups; a fuller one skips the product when lanes alone leave
// none), the single-query one then and when there are other blocks.
type shuffleShape struct {
	baby, giant, rep, repBatched int
	selector, selectorBatched    bool
}

func shuffleShapeOf(m *Meta) shuffleShape {
	nPad := m.LPad()
	baby, giant := matrix.BSGSSplit(nPad)
	lanes, _ := m.LevelLanes()
	residue := lanes*m.LevelGroups() > 1
	return shuffleShape{baby, giant, log2Ceil(m.Slots / nPad), log2Ceil(m.BatchBlock() / nPad), m.BatchCapacity() > 1 || residue, residue}
}

// simulateShuffle runs the result shuffle from the given input through
// both kernels that share the Shuffle entry level: ShuffleResult and the
// block-local ShuffleResultBatch. The batched kernel does strictly less
// work, but walking both keeps the entry level sound if the shapes ever
// diverge.
func simulateShuffle(nm noiseModel, sh shuffleShape, in est) bool {
	for _, k := range []struct {
		selector bool
		rep      int
	}{{sh.selector, sh.rep}, {sh.selectorBatched, sh.repBatched}} {
		s := &sim{nm: nm, stage: stDone}
		v := in
		if k.selector {
			v = s.mulPlain(v)
		}
		for i := 0; i < k.rep; i++ {
			v = s.add(v, s.rot(v))
		}
		v = s.matVec(v, sh.baby, sh.giant)
		s.manage(&v)
		if s.kind != failNone {
			return false
		}
	}
	return true
}

// shuffleEntryLevel finds the minimal entry level of the result shuffle,
// assuming a modulus-switch-floored input (ShuffleResult drops inputs
// arriving above it).
func shuffleEntryLevel(nm noiseModel, sh shuffleShape) int {
	for level := 1; level < planCap; level++ {
		if simulateShuffle(nm, sh, est{cipher: true, level: level, noise: nm.floor()}) {
			return level
		}
	}
	return planCap
}

// planCap bounds the schedule search: the reactive recommendation for
// the deepest supported forests stays well below it.
const planCap = 48

// planner is the schedule search of one scenario: the structure of every
// plane packing the layout admits (one stored schedule serves them all;
// progs[0] is one plane per ciphertext), and the level pass as its
// feasibility oracle — for encrypted query planes and, under an encrypted
// model, for plaintext ones too (ScenarioClientEval runs the same
// schedule; a plaintext factor consumes no level, so other registers run
// hot). With shuffleAt set the oracle also asks that the result can still
// feed the result shuffle (Options.PlanShuffle): a result landing exactly
// at its final level can arrive hot, and the accumulate entry is what to
// raise then — the boundary drop it opens floors the result.
type planner struct {
	nm        noiseModel
	progs     []*Program
	sh        shuffleShape
	shuffleAt int
}

// run reports the one-plane-per-ciphertext pass under at and the first
// failure of any variant.
func (pl planner) run(at StageLevels) (levelled, *planFailure) {
	var first levelled
	for i, prog := range pl.progs {
		for _, plainQuery := range []bool{false, true} {
			if plainQuery && !prog.encModel {
				continue // a plaintext model's levels do not depend on the query's
			}
			lv, fail := prog.levelPass(pl.nm, at, plainQuery)
			if i == 0 && !plainQuery {
				first = lv
			}
			// ShuffleResult's entry drop, then the shuffle itself.
			if fail == nil && pl.shuffleAt > 0 && !simulateShuffle(pl.nm, pl.sh, (&sim{nm: pl.nm}).dropTo(lv.result, pl.shuffleAt)) {
				fail = &planFailure{stage: stAccumulate, kind: failNoise, level: lv.result.level}
			}
			if fail != nil {
				return first, fail
			}
		}
	}
	return first, nil
}

// schedule finds a locally minimal schedule landing the result at final.
// First an ascent from the bottom to a feasible one without per-round
// drops, raising one entry per run: the failing stage's own on a
// structural failure (it ran out of levels), the previous stage's when
// the failure traces back to a hot entry — a deeper boundary drop then
// delivers the carrier at the modulus-switch floor instead of carrying
// key-switch noise into the next stage (if the stage stays infeasible
// once its entry is cold, the next runs raise the stage itself). Then a
// descent: the compare rounds start at the lowest level their operands
// reach on their own, and every level of the non-increasing
// chain compare ≥ rounds ≥ reshuffle ≥ level ≥ accumulate is lowered —
// last first, where the remaining circuit is shortest — while the pass
// stays feasible, until none moves.
func (pl planner) schedule(final int) (StageLevels, bool) {
	at := StageLevels{Compare: final, Reshuffle: final, Level: final, Accumulate: final, Final: final}
	entries := [stDone]*int{&at.Compare, &at.Reshuffle, &at.Level, &at.Accumulate}
	lv, fail := pl.run(at)
	for iter := 0; fail != nil; iter++ {
		if fail.hotEntry {
			fail.stage--
		}
		*entries[fail.stage]++
		// Entries are non-increasing along the pipeline by construction.
		at.Level = max(at.Level, at.Accumulate)
		at.Reshuffle = max(at.Reshuffle, at.Level)
		at.Compare = max(at.Compare, at.Reshuffle)
		if iter == 16*planCap || at.Compare > planCap {
			return at, false
		}
		lv, fail = pl.run(at)
	}

	chain := []*int{&at.Compare}
	for _, r := range lv.rounds {
		at.CompareRounds = append(at.CompareRounds, r.level)
	}
	if _, fail := pl.run(at); fail == nil {
		for r := range at.CompareRounds {
			chain = append(chain, &at.CompareRounds[r])
		}
	} else {
		at.CompareRounds = nil
	}
	chain = append(chain, entries[1:]...)
	for moved := true; moved; {
		moved = false
		for i := len(chain) - 1; i >= 0; i-- {
			floor := final
			if i+1 < len(chain) {
				floor = *chain[i+1]
			}
			for *chain[i] > floor {
				*chain[i]--
				if _, fail := pl.run(at); fail != nil {
					*chain[i]++
					break
				}
				moved = true
			}
		}
	}
	return at, true
}

// computeLevelPlan builds the static schedule for a compiled model, or
// nil when no feasible schedule exists within the search bound (the
// engine then falls back to reactive management).
func computeLevelPlan(m *Meta, planShuffle bool) *LevelPlan {
	nm := planNoiseModel(m.Slots)
	sh := shuffleShapeOf(m)
	shuffleAt := shuffleEntryLevel(nm, sh)
	pl := planner{nm: nm, sh: sh}
	final := minFinalLevel
	if planShuffle {
		// Reserve headroom so the classification result can still feed
		// the result shuffle.
		pl.shuffleAt, final = shuffleAt, max(final, shuffleAt)
	}
	plan := &LevelPlan{}
	for _, encModel := range []bool{true, false} {
		pl.progs = nil
		for g := 1; g <= m.PlanesPerCiphertext(1); g <<= 1 {
			prog, err := planStructure(m, encModel, g)
			if err != nil {
				return nil
			}
			pl.progs = append(pl.progs, prog)
		}
		st, ok := pl.schedule(final)
		if !ok {
			return nil
		}
		st.Shuffle = shuffleAt
		if encModel {
			plan.Cipher = st
		} else {
			plan.Plain = st
		}
	}
	plan.Levels = plan.QueryLevel() + 1
	return plan
}
