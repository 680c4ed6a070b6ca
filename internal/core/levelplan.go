package core

import (
	"math"

	"copse/internal/bgv"
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
// produced at the scheduled levels directly). Every model carries one:
// Compile and ShardForest plan what they build, and ReadArtifact plans
// an artifact older than the schedule at load.
type LevelPlan struct {
	// Levels is the chain length (prime count) the plan was computed
	// for — the fraction of Meta.RecommendedLevels the scheduled pipeline
	// actually needs.
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
	// Shuffle is the entry level of the op program's result shuffle stage
	// (§7.2.2), where the permutations are staged. With the default
	// minimal schedule the result lands below it; compile with
	// Options.PlanShuffle to reserve the headroom.
	Shuffle int
	// CompareRounds schedules the reduction inside the compare stage:
	// CompareRounds[r] is the level every live (GT, EQ) operand is dropped
	// to after product level r — a pairing round of the tree, its eager or
	// its lazy top level, or a plane round — in every packing, so the later
	// levels of the single most expensive stage run on 1–2 fewer limbs than
	// the evaluator's lazy switching would keep them at. One entry per
	// product level, ⌈log2 p⌉. Derived by lowering each round's level until
	// the level pass breaks. Nil on older artifacts (no per-round drops). An artifact
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
// serves the given scenario on: the plan's, capped at RecommendedLevels.
func (m *Meta) ChainLevels(encryptedModel bool) int {
	return min(m.LevelPlan.ChainLevels(encryptedModel), m.RecommendedLevels)
}

// ShuffleLevel is the entry level of the shuffle stage, across scenarios.
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
	atShuffle
	atRound
)

// entry resolves a scheduled drop point. A compare round the schedule
// does not list drops nothing: it resolves to the stage's own entry.
func (s StageLevels) entry(point int) int {
	if r := point - atRound; r >= 0 && r < len(s.CompareRounds) {
		return s.CompareRounds[r]
	}
	return [...]int{s.Compare, s.Reshuffle, s.Level, s.Accumulate, s.Final, s.Shuffle, s.Compare}[min(point, atRound)]
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
// final decryptability check). The estimates compound through the longest
// remaining circuit early in the pipeline, so those stages keep the most
// in hand.
var stageSlack = [stDone + 1]float64{2, 2, 1.5, 1, 1, 1}

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
	// encModel and plainQuery name the scenario of the failing program.
	encModel, plainQuery bool
}

// infeasible is the failure as the typed error Compile, ReadArtifact and
// Prepare refuse a model with.
func (f *planFailure) infeasible() *PlanInfeasibleError {
	return &PlanInfeasibleError{
		Scenario: scenarioName(f.encModel, !f.plainQuery), Stage: stageNames[f.stage],
		Kind: [...]string{failLevel: "level", failNoise: "noise"}[f.kind], Level: f.level,
	}
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
// It walks the stages from the one tagged from on, the carrier handed to
// that stage estimated at in (from = stCompare walks the whole program).
func (p *Program) levelPass(nm noiseModel, at StageLevels, plainQuery bool, from int, in est) (levelled, *planFailure) {
	s := &sim{nm: nm}
	extra := len(p.ops) / 8
	out := levelled{ops: make([]progOp, 0, len(p.ops)+extra), est: make([]est, p.numReg, p.numReg+extra)}
	drops := map[[2]int]int{}
	entry := [stDone]int{stReshuffle: p.regDecisions, stLevels: p.regBranchVec, stAccumulate: p.regLevelResult, stShuffle: p.regLeaves}
	out.est[entry[from]] = in
	failure := func(stage, kind, level int, inStage bool) *planFailure {
		e := out.est[entry[stage]]
		return &planFailure{stage: stage, kind: kind, level: level,
			hotEntry: inStage && stage > 0 && e.cipher && e.noise > nm.floor()+8,
			encModel: p.encModel, plainQuery: plainQuery}
	}
	for _, op := range p.ops {
		if int(op.Stage) < from {
			continue
		}
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
			if p.cipherDiag(op.Imm) {
				diag = nm.fresh(at.Level)
				if op.Imm == matReshuffle {
					diag = nm.fresh(at.Reshuffle)
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
			if point >= atReshuffle && point <= atShuffle && src.cipher && src.level < op.Imm {
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
			return out, failure(p.stages-1, s.kind, out.result.level, true)
		}
	}
	return out, nil
}

// shuffleEntry is the entry level of p's shuffle stage
// (StageLevels.Shuffle): the lowest the level pass carries the stage
// through from, its input delivered at the modulus-switch floor by the
// boundary drop ahead of it — and above the minimal final level, so a
// plan made for the shuffle lands its result higher than any other plan
// does. The artifact records no option, and that is how ShardForest
// knows to re-plan the shards with the same headroom.
func (p *Program) shuffleEntry(nm noiseModel) int {
	for level := minFinalLevel + 1; level < planCap; level++ {
		in := est{cipher: true, level: level, noise: nm.floor()}
		if _, fail := p.levelPass(nm, StageLevels{Shuffle: level}, false, stShuffle, in); fail == nil {
			return level
		}
	}
	return planCap
}

// planStructure is the program structure of plane packing g the planner
// searches over, built from Meta alone: every diagonal kept and every
// mask non-zero — the worst case over the models Meta describes, and
// independent of any backend, since the plan is stored in the artifact.
// With shuffle it ends in the result shuffle stage.
func planStructure(m *Meta, encModel, shuffle bool, g int) (*Program, error) {
	shape := func(period int) diagShape {
		baby, giant := m.kernelSplit(period)
		return diagShape{period: period, baby: baby, giant: giant, zero: make([]bool, period)}
	}
	in := progInputs{
		meta:      *m,
		plan:      StageLevels{CompareRounds: make([]int, log2Ceil(max(m.Precision, 1)))},
		encrypted: encModel,
		packing:   g,
		planes:    m.QueryCiphertexts(g),
		reshuffle: shape(m.QPad),
		shuffle:   shuffle,
	}
	var operands int
	in.lanes, in.groups, operands = m.LevelLayout(g)
	for l := 0; l < operands; l++ {
		in.levels = append(in.levels, shape(m.BPad))
	}
	in.maskZero = make([]bool, operands)
	return buildStructure(in)
}

// planCap bounds the schedule search: Meta.RecommendedLevels for
// the deepest supported forests stays well below it.
const planCap = 48

// planner is the schedule search of one scenario: the structure of every
// plane packing the layout admits (one stored schedule serves them all;
// progs[0] is one plane per ciphertext), and the level pass as its
// feasibility oracle — for encrypted query planes and, under an encrypted
// model, for plaintext ones too (ScenarioClientEval runs the same
// schedule; a plaintext factor consumes no level, so other registers run
// hot).
type planner struct {
	nm    noiseModel
	progs []*Program
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
			lv, fail := prog.levelPass(pl.nm, at, plainQuery, stCompare, est{})
			if i == 0 && !plainQuery {
				first = lv
			}
			if fail != nil {
				return first, fail
			}
		}
	}
	return first, nil
}

// schedule finds a locally minimal schedule landing the result at final,
// the shuffle stage, if the structures have one, entered at shuffle.
// First an ascent from the bottom to a feasible one without per-round
// drops, raising one entry per run: the failing stage's own on a
// structural failure (it ran out of levels), the previous stage's when
// the failure traces back to a hot entry — a deeper boundary drop then
// delivers the carrier at the modulus-switch floor instead of carrying
// key-switch noise into the next stage (if the stage stays infeasible
// once its entry is cold, the next runs raise the stage itself). The
// shuffle enters at the final level the search holds, so a shuffle
// failure always raises the accumulate entry: the boundary drop that opens
// floors the result. Then a descent: the compare rounds start at the
// lowest level their operands reach on their own, and every level of the
// non-increasing chain compare ≥ rounds ≥ reshuffle ≥ level ≥ accumulate
// is lowered — last first, where the remaining circuit is shortest —
// while the pass stays feasible, until none moves. A search that passes
// the bound returns the last run's failure.
func (pl planner) schedule(final, shuffle int) (StageLevels, *planFailure) {
	at := StageLevels{Compare: final, Reshuffle: final, Level: final, Accumulate: final, Final: final, Shuffle: shuffle}
	entries := [...]*int{&at.Compare, &at.Reshuffle, &at.Level, &at.Accumulate}
	lv, fail := pl.run(at)
	for iter := 0; fail != nil; iter++ {
		if fail.hotEntry {
			fail.stage--
		}
		*entries[min(fail.stage, stAccumulate)]++
		// Entries are non-increasing along the pipeline by construction.
		at.Level = max(at.Level, at.Accumulate)
		at.Reshuffle = max(at.Reshuffle, at.Level)
		at.Compare = max(at.Compare, at.Reshuffle)
		if iter == 16*planCap || at.Compare > planCap {
			return at, fail
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
	return at, nil
}

// computeLevelPlan builds the static schedule for a compiled model: a
// *PlanInfeasibleError when no feasible schedule exists within the search
// bound, an *UnsupportedModelError when Meta describes no program. The
// shuffle's entry comes from its stage in the lone query's structure: that
// packing has the most lane groups, so its shuffle does everything another
// packing's does. With planShuffle the result lands there, and every
// structure the search runs ends in the shuffle.
func computeLevelPlan(m *Meta, planShuffle bool) (*LevelPlan, error) {
	nm := planNoiseModel(m.Slots)
	lone, err := planStructure(m, false, true, m.PlanesPerCiphertext(1))
	if err != nil {
		return nil, err
	}
	shuffleAt := lone.shuffleEntry(nm)
	final := minFinalLevel
	if planShuffle {
		final = max(final, shuffleAt)
	}
	plan := &LevelPlan{}
	for _, encModel := range []bool{true, false} {
		pl := planner{nm: nm}
		for g := 1; g <= m.PlanesPerCiphertext(1); g <<= 1 {
			prog, err := planStructure(m, encModel, planShuffle, g)
			if err != nil {
				return nil, err
			}
			pl.progs = append(pl.progs, prog)
		}
		st, fail := pl.schedule(final, shuffleAt)
		if fail != nil {
			return nil, fail.infeasible()
		}
		if encModel {
			plan.Cipher = st
		} else {
			plan.Plain = st
		}
	}
	plan.Levels = plan.QueryLevel() + 1
	return plan, nil
}
