package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"copse/internal/he"
	"copse/internal/matrix"
)

// ModelOperands is a compiled model loaded onto a backend: every
// component is an operand, either encrypted (Maurice keeps the model
// secret from Sally) or plaintext (Maurice *is* Sally, Figure 9's fast
// configuration).
type ModelOperands struct {
	Meta Meta
	// Thresholds are the p bit planes of the negated thresholds
	// ¬y = 1 − y, slot-periodic with period QPad: staged negated, the one
	// ct-ct product of a bit plane is x·¬y = [x > y] itself
	// (DESIGN.md §13.1). A plaintext model's planes are values only
	// (Vals, no Pt): its programs fold them into constants.
	Thresholds []he.Operand
	Reshuffle  *matrix.Diagonals
	// Levels and Masks are the level matrices and masks stacked into the
	// lanes of the block: Meta.LevelLanes gives the lanes h and the ⌈D/h⌉
	// operands of each, level l in lane l/⌈D/h⌉ of operand l mod ⌈D/h⌉
	// (DESIGN.md §13.5). Operand j is staged as the affine map of its
	// levels, b ↦ diag(1 − 2·mask_l)·L_l·b + mask_l = (L_l·b) ⊕ mask_l:
	// Levels[j] holds the signed matrices and Masks[j] the additive masks.
	Levels []*matrix.Diagonals
	Masks  []he.Operand
	// encModel records that the components are ciphertexts, encQuery the
	// kind of query plane the programs are levelled for — the one kind the
	// engine takes — and shuffle that every program ends in the result
	// shuffle stage (DESIGN.md §10).
	encModel, encQuery, shuffle bool
	// grouped is the second staging of the same levels, over the lanes of
	// Meta.LevelGroups slot groups, which the plane packings from that
	// many up run on (Meta.LevelLayout); nil when the model has one group.
	grouped *levelStaging
	// Plan is the scenario-resolved level schedule the operands were
	// staged at (thresholds at Plan.Compare, reshuffle diagonals at
	// Plan.Reshuffle, and so on): Meta.LevelPlan.For the model's scenario.
	Plan StageLevels
	// Program is the op program compiled from the staged shapes at
	// Prepare time (DESIGN.md §13) for one bit plane per query ciphertext
	// and the plane kind Prepare was given — the flat schedule
	// Engine.Classify executes on a full batch. Never nil on operands
	// Prepare returned.
	Program *Program
	// packings holds what each plane packing g the layout admits runs on
	// (index log2 g, DESIGN.md §13.4): packings[0] is Thresholds and
	// Program themselves.
	packings []planePacking
}

// levelStaging is one staging of the level stage's operands: the signed
// level matrices and additive masks of ⌈D/(h·G)⌉ stacked operands, level
// (j·h + i)·m + o in lane i of every block of slot group j of operand o.
type levelStaging struct {
	lanes, groups int
	mats          []*matrix.Diagonals
	masks         []he.Operand
}

// planePacking is what a query of one plane packing runs on: the negated
// thresholds laid out like its planes, the level staging of its layout,
// and the op program over them.
type planePacking struct {
	thresholds []he.Operand
	levels     *levelStaging
	program    *Program
}

// PlanePackings lists the plane packings g the model staged a program
// for, ascending: the powers of two up to Meta.PlanesPerCiphertext(1).
func (m *ModelOperands) PlanePackings() []int {
	out := make([]int, len(m.packings))
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// ProgramFor returns the program of plane packing g, nil when the model
// admits no such packing.
func (m *ModelOperands) ProgramFor(g int) *Program {
	if pk := m.packing(g); pk != nil {
		return pk.program
	}
	return nil
}

func (m *ModelOperands) packing(g int) *planePacking {
	if i := log2Ceil(max(g, 1)); g == 1<<i && i < len(m.packings) {
		return &m.packings[i]
	}
	return nil
}

// Prepare loads c onto backend b under its level plan, c.Meta.LevelPlan:
// every model component is produced directly at the level its pipeline
// stage executes at — encrypted components via leveled encryption,
// plaintext components via eager pre-lifting — so no per-query work
// remains to put operands on schedule. With encModel all model components
// are encrypted; otherwise they are encoded plaintexts. encQuery is the
// kind of query plane the scenario sends: each plane packing gets the one
// program levelled for it, and Engine.Classify refuses a query of the
// other kind with a *QueryLayoutError. With shuffle every program ends in
// the result shuffle stage (paper §7.2.2). A plan the level pass finds
// infeasible for the programs built — a stale or hand-edited artifact, or
// a shuffle whose entry lies above where a model compiled without
// Options.PlanShuffle lands its result — is a *PlanInfeasibleError. So is
// a backend whose modulus chain is too short (CheckChain): a service
// shares one backend, and the first model registered sized its chain.
func Prepare(b he.Backend, c *Compiled, encModel, encQuery, shuffle bool) (*ModelOperands, error) {
	if c.Meta.Slots != b.Slots() {
		return nil, fmt.Errorf("core: model staged for %d slots but backend has %d", c.Meta.Slots, b.Slots())
	}
	// A backend without a chain is at level 0; whoever builds a chain
	// checks a one-prime one.
	if b.MaxLevel() > 0 {
		if err := CheckChain(&c.Meta, encModel, encQuery, b.MaxLevel()); err != nil {
			return nil, err
		}
	}
	m := &ModelOperands{Meta: c.Meta, encModel: encModel, encQuery: encQuery, shuffle: shuffle, Plan: c.Meta.LevelPlan.For(encModel)}

	// Thresholds stay fully periodic within a block group: every block of
	// the batched layout reads the same QPad-periodic plane (BatchBlock is
	// a multiple of QPad), and the single-query layout is the one-block
	// special case. They are staged negated, in every slot, padding
	// included, once per plane packing: block group j/m of operand j mod m
	// holds plane j, and a plane past the precision is ¬y = 1 against the
	// query's x = 0, so it compares equal. A plaintext model's programs
	// fold the planes into bound constants and load none, so its planes
	// are staged as values only, neither encoded nor lifted; an encrypted
	// model's are encrypted one set per packing.
	if len(c.ThresholdBits) == 0 || len(c.ThresholdBits) != c.Meta.Precision {
		return nil, &UnsupportedModelError{Reason: fmt.Sprintf("%d threshold bit planes at precision %d", len(c.ThresholdBits), c.Meta.Precision)}
	}
	t := b.PlainModulus()
	m.packings = make([]planePacking, log2Ceil(c.Meta.PlanesPerCiphertext(1))+1)
	for i := range m.packings {
		g := 1 << i
		vals := make([][]uint64, c.Meta.QueryCiphertexts(g))
		for ct := range vals {
			vals[ct] = make([]uint64, b.Slots())
			for s := range vals[ct] {
				vals[ct][s] = 1
			}
		}
		for j, plane := range c.ThresholdBits {
			ct, base := c.Meta.planeAt(j, g)
			for s, y := range replicatePlain(plane, c.Meta.QPad, b.Slots()/g) {
				vals[ct][base+s] = (1 + t - y%t) % t
			}
		}
		if !encModel {
			for _, v := range vals {
				m.packings[i].thresholds = append(m.packings[i].thresholds, he.Operand{Vals: v})
			}
			continue
		}
		cts, err := he.EncryptSetAtLevel(b, vals, m.Plan.Compare)
		if err != nil {
			return nil, err
		}
		for _, ct := range cts {
			m.packings[i].thresholds = append(m.packings[i].thresholds, he.Cipher(ct))
		}
	}
	m.Thresholds = m.packings[0].thresholds

	// Stage each matrix pre-rotated for its period's BSGS split, whatever
	// the artifact's version. The reshuffle matrix is repeated into every
	// BatchBlock-wide slot block so the kernel evaluates one independent
	// product per packed query (DESIGN.md §7); with batch capacity 1 the
	// block is the whole ciphertext and this is the original layout.
	span := c.Meta.BatchBlock()
	reshuffleMats := slices.Repeat([]*matrix.Bool{reshuffleRows(c, encModel)}, b.Slots()/span)
	reshuffle, err := matrix.PrepareDiagonalsAt(b, reshuffleMats, nil, c.Meta.QPad, span, encModel, m.Plan.Reshuffle)
	if err != nil {
		return nil, err
	}
	m.Reshuffle = reshuffle
	// The level operands, once over the lanes of the block and — when the
	// model has lane groups — once more over the lanes of every group.
	lanes, _, err := levelStacking(c, span, b.Slots())
	if err != nil {
		return nil, err
	}
	block, err := stageLevels(b, c, lanes, 1, encModel, m.Plan.Level)
	if err != nil {
		return nil, err
	}
	m.Levels, m.Masks = block.mats, block.masks
	if groups := c.Meta.LevelGroups(); groups > 1 {
		if m.grouped, err = stageLevels(b, c, lanes, groups, encModel, m.Plan.Level); err != nil {
			return nil, err
		}
	}

	// Compile the op programs from the staged shapes and encode their
	// plaintext constants once, here, instead of on every Classify call.
	for i := range m.packings {
		pk := &m.packings[i]
		pk.levels = block
		if _, groups, _ := c.Meta.LevelLayout(1 << i); groups > 1 {
			pk.levels = m.grouped
		}
		if pk.program, err = newProgram(b, m.progInputs(1<<i, pk.levels)); err != nil {
			return nil, err
		}
	}
	m.Program = m.packings[0].program
	// The programs are the one record of what the model rotates by, and
	// at which level: the backend makes exactly those keys.
	if err := he.EnsureRotationKeys(b, m.rotations()); err != nil {
		return nil, err
	}
	return m, nil
}

// rotations lists, without repeats, every rotation m's programs issue —
// each plane packing's, the shuffle stage's included when m shuffles — at
// the level the level pass puts the register rotated at. Rotations of
// plaintext registers need no key and are left out.
func (m *ModelOperands) rotations() []he.Rotation {
	var out []he.Rotation
	seen := map[he.Rotation]bool{}
	for _, pk := range m.packings {
		p := pk.program
		for _, op := range p.ops {
			var steps []int
			switch op.Code {
			case opRot, opRotLazy:
				steps = []int{op.Imm}
			case opHoist:
				steps = p.hoists[op.Imm]
			}
			if !p.est[op.A].cipher {
				continue
			}
			r := he.Rotation{Level: p.est[op.A].level}
			for _, r.Step = range steps {
				if !seen[r] {
					seen[r] = true
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// progInputs describes the program of plane packing g over the level
// staging lv to the builder: the shapes Prepare staged, and the plaintext
// components the builder folds into constants. Plaintext planes move the
// levels only under an encrypted model (a plaintext factor consumes no
// level, so other alignments are due); a plaintext model's program is the
// same for both kinds.
func (m *ModelOperands) progInputs(g int, lv *levelStaging) progInputs {
	pk := m.packing(g)
	in := progInputs{
		meta:       m.Meta,
		plan:       m.Plan,
		encrypted:  m.encModel,
		plainQuery: m.encModel && !m.encQuery,
		packing:    g,
		planes:     len(pk.thresholds),
		lanes:      lv.lanes,
		groups:     lv.groups,
		reshuffle:  diagShapeOf(m.Reshuffle),
		shuffle:    m.shuffle,
	}
	for j, d := range lv.mats {
		in.levels = append(in.levels, diagShapeOf(d))
		in.maskZero = append(in.maskZero, !in.encrypted && !slices.ContainsFunc(lv.masks[j].Vals, func(v uint64) bool { return v != 0 }))
	}
	if !in.encrypted {
		for _, op := range pk.thresholds {
			in.threshVals = append(in.threshVals, op.Vals)
		}
	}
	return in
}

// reshuffleRows is the reshuffle matrix as Prepare stages it. Under an
// encrypted model no diagonal is skippable, so its BPad (zero-padded) rows
// are repeated up to SPad rows for free — the reads r + i < SPad + QPad
// stay inside the block — and the product fills half the block with
// BPad-periodic copies of the branch vector, which one rotation by −SPad
// completes (buildStructure). A plaintext model keeps the B rows:
// repeating them would un-skip zero diagonals. So does a capacity-1 model,
// whose block the rotation wrap makes periodic.
func reshuffleRows(c *Compiled, encrypt bool) *matrix.Bool {
	rows := c.Meta.branchSpan(encrypt)
	if rows <= c.Meta.BPad {
		return c.Reshuffle
	}
	out := matrix.NewBool(rows, c.Reshuffle.Cols)
	for r := 0; r < rows; r++ {
		if src := r % c.Meta.BPad; src < c.Reshuffle.Rows {
			for col := 0; col < c.Reshuffle.Cols; col++ {
				out.Set(r, col, c.Reshuffle.At(src, col))
			}
		}
	}
	return out
}

// stageLevels stages the level stage's operands over h lanes × G groups:
// lane i of every block of slot group j holds level (j·h + i)·m + o in
// stacked operand o, m = ⌈D/(h·G)⌉, as the affine map b ↦ M'·b + mask with
// M' = diag(1 − 2·mask)·L (entries 0, 1, t − 1) — (L·b) ⊕ mask without a
// product (DESIGN.md §13.5). A lane past the last level holds the zero
// matrix and the constant 1, the identity of the accumulate product. The
// positions are fixed, so one staging per group count serves every plane
// packing and batch fill.
func stageLevels(b he.Backend, c *Compiled, lanes, groups int, encrypt bool, level int) (*levelStaging, error) {
	if groups < 1 || b.Slots()/groups < c.Meta.BatchBlock() {
		return nil, &UnsupportedModelError{Reason: fmt.Sprintf("%d lane groups of %d slots cannot hold a %d-slot block", groups, b.Slots()/max(groups, 1), c.Meta.BatchBlock())}
	}
	t := b.PlainModulus()
	rows, laneWidth := c.Meta.NumLeaves, c.Meta.BatchBlock()/lanes
	perGroup := b.Slots() / groups / laneWidth
	ops := (len(c.Levels) + lanes*groups - 1) / (lanes * groups)
	identity, ones := matrix.NewBool(rows, c.Levels[0].Cols), make([]uint64, rows)
	for i := range ones {
		ones[i] = 1
	}
	signs := make([][]uint64, len(c.Masks))
	for l, mask := range c.Masks {
		signs[l] = make([]uint64, rows)
		for r, bit := range mask {
			signs[l][r] = (1 + 2*(t-bit%t)) % t
		}
	}
	st := &levelStaging{lanes: lanes, groups: groups}
	n := b.Slots() / laneWidth
	for o := 0; o < ops; o++ {
		mats, coefs, mask := make([]*matrix.Bool, n), make([][]uint64, n), make([]uint64, b.Slots())
		for k := range mats {
			mats[k] = identity
			laneMask := ones
			if l := (k/perGroup*lanes+k%lanes)*ops + o; l < len(c.Levels) {
				mats[k], coefs[k], laneMask = c.Levels[l], signs[l], c.Masks[l]
			}
			copy(mask[k*laneWidth:], laneMask)
		}
		d, err := matrix.PrepareDiagonalsAt(b, mats, coefs, c.Meta.BPad, laneWidth, encrypt, level)
		if err != nil {
			return nil, err
		}
		st.mats = append(st.mats, d)
		op, err := he.NewOperandAtLevel(b, mask, encrypt, level)
		if err != nil {
			return nil, err
		}
		st.masks = append(st.masks, op)
	}
	return st, nil
}

// levelStacking is the lane geometry (Meta.LevelLanes) of c's level
// matrices in blocks of the given span, after checking that they can be
// stacked at all: the matrices and masks the metadata describes, one
// shape for all of them, and a lane that absorbs every diagonal read — a
// read crossing into the next lane would multiply another level's rows
// in, and a wrong label is not an error anyone sees.
func levelStacking(c *Compiled, span, slots int) (lanes, ops int, err error) {
	if len(c.Levels) == 0 {
		return 0, 0, &UnsupportedModelError{Reason: "no level matrices"}
	}
	if len(c.Masks) != len(c.Levels) || len(c.Levels) != c.Meta.D {
		return 0, 0, &UnsupportedModelError{Reason: fmt.Sprintf("%d level masks for %d level matrices of a model %d levels deep", len(c.Masks), len(c.Levels), c.Meta.D)}
	}
	rows, cols, period := c.Meta.NumLeaves, c.Levels[0].Cols, c.Meta.BPad
	for l, lm := range c.Levels {
		if lm.Rows != rows || lm.Cols != cols || cols > period || len(c.Masks[l]) != rows {
			return 0, 0, &UnsupportedModelError{Reason: fmt.Sprintf("level matrix %d is %d×%d under a mask of %d rows, the model has %d leaves, level matrix 0 %d columns and the period is %d",
				l, lm.Rows, lm.Cols, len(c.Masks[l]), rows, cols, period)}
		}
	}
	lanes, ops = c.Meta.LevelLanes()
	if w := span / lanes; rows > w || period > w || (w < slots && rows+period-2 >= w) {
		return 0, 0, &UnsupportedModelError{Reason: fmt.Sprintf("a %d-slot lane cannot hold the diagonal reads of %d rows over period %d", w, rows, period)}
	}
	return lanes, ops, nil
}

// newProgram builds the op program of in and binds its constants on b.
func newProgram(b he.Backend, in progInputs) (*Program, error) {
	p, err := buildProgram(in)
	if err != nil {
		return nil, err
	}
	if err := p.bind(b, in.threshVals); err != nil {
		return nil, fmt.Errorf("core: binding op program constants: %w", err)
	}
	return p, nil
}

// PlanInfeasibleError is the refusal of a model that has no feasible
// level plan. Compile, ShardForest and ReadArtifact return it when the
// planner finds no schedule within its search bound (the failure of the
// last schedule tried); Prepare when the level pass finds the stored plan
// infeasible for the program it would build — a hand-edited or stale
// artifact that schedules some register lower than the circuit allows —
// or finds the backend's chain too short for the plan. BGV decrypts an
// over-noised ciphertext to garbage without complaint, so this fails at
// load, not at decrypt.
type PlanInfeasibleError struct {
	// Scenario names what the program was levelled for, e.g. "encrypted
	// model, encrypted query".
	Scenario string
	// Stage is the pipeline stage the first infeasible op belongs to.
	Stage string
	// Kind is "level" (the chain ran out of levels, or a carrier reached
	// a stage boundary below the next entry), "noise" (predicted noise
	// past the margin: at level 0 the decryption margin, above it the
	// margin past which the register would need a level move the program
	// has no op for, and the evaluator makes none of its own) or "chain"
	// (the stage enters at Level, above the top of the backend's modulus
	// chain).
	Kind string
	// Level is the level the failing register sat at.
	Level int
}

func (e *PlanInfeasibleError) Error() string {
	switch e.Kind {
	case "chain":
		return fmt.Sprintf("core: level plan infeasible for %s: the %s stage enters at level %d, above the top of the backend's modulus chain",
			e.Scenario, e.Stage, e.Level)
	}
	msg := fmt.Sprintf("core: level plan infeasible for %s: %s failure in the %s stage at level %d",
		e.Scenario, e.Kind, e.Stage, e.Level)
	if e.Stage == stageNames[stShuffle] {
		msg += " (compile with CompileOptions.PlanShuffle to reserve the result shuffle's headroom)"
	}
	return msg
}

// CheckChain refuses, with a *PlanInfeasibleError of kind "chain", a
// modulus chain whose top level lies below where m's plan enters the
// compare stage: a chain shorter than m.ChainLevels(encModel) primes.
func CheckChain(m *Meta, encModel, encQuery bool, top int) error {
	if need := m.ChainLevels(encModel); top < need-1 {
		return &PlanInfeasibleError{Scenario: scenarioName(encModel, encQuery), Stage: stageNames[stCompare], Kind: "chain", Level: need - 1}
	}
	return nil
}

func scenarioName(encModel, encQuery bool) string {
	name := map[bool]string{true: "encrypted", false: "plaintext"}
	return name[encModel] + " model, " + name[encQuery] + " query"
}

// UnsupportedModelError is the refusal of a model this build cannot
// serve. Prepare refuses a staged shape with no op program: no threshold
// planes, no level matrices, or level matrices and masks that disagree in
// count or period. ReadArtifact refuses a file that is not a current
// artifact (another header: recompile), and it, the shard manifest and
// the cluster meta frame refuse a Meta that breaks an invariant Compile
// guarantees (Meta.Validate). Compile never produces one; a hand-built,
// stale or corrupted file can. Reason says which.
type UnsupportedModelError struct {
	Reason string
}

func (e *UnsupportedModelError) Error() string {
	return "core: unsupported model: " + e.Reason
}

// replicatePlain lays vals (logical width `period`, zero-padded) out
// periodically across all slots.
func replicatePlain(vals []uint64, period, slots int) []uint64 {
	out := make([]uint64, slots)
	for i := range out {
		if i%period < len(vals) {
			out[i] = vals[i%period]
		}
	}
	return out
}

// Engine runs Algorithm 1: Classify is its one entry point for prepared
// models (ClassifyBaseline runs the baseline's programs on the same
// executor). The zero value is not usable; construct with a backend. An
// Engine holds no per-call state: Classify may be invoked from many
// goroutines concurrently over the same ModelOperands, as long as the
// backend honours the he.Backend concurrency contract (both shipped
// backends do).
type Engine struct {
	Backend he.Backend
	// Workers is the number of goroutines each pass runs its ops on:
	// 0 = GOMAXPROCS, 1 = sequential (the paper's single-threaded runs,
	// ops in program order). Every count computes the same result bit
	// for bit.
	Workers int
	// MeasureNoise records the decrypt-side measured noise budget of the
	// carrier ciphertext at every stage boundary in Trace.Noise — the
	// measured-margin complement of the level pass's estimates
	// (ModelOperands.PredictedNoise). Measurement
	// decrypts, so it needs the secret key and costs one decryption per
	// stage, outside the stage timing windows and excluded from
	// Trace.Total: a harness knob (copse.WithNoiseMeasurement), not a
	// serving-path default. Ignored on backends without noise (the clear
	// reference).
	MeasureNoise bool

	// shuffleReady, set by tests only, replaces the ready queue's
	// priority order with the permutation of [0, n) it returns, so the
	// schedule-independence test can run arbitrary valid schedules.
	shuffleReady func(n int) []int32
}

// Trace records the per-stage timing and operation counts that
// Figure 10's breakdowns report. The op counts are the program's bill
// (Program.StageBills); times, limbs and noise are measured.
type Trace struct {
	Compare, Reshuffle, Levels, Accumulate time.Duration
	Total                                  time.Duration
	CompareOps, ReshuffleOps               he.OpCounts
	LevelOps, AccumulateOps                he.OpCounts
	// Shuffle is the result shuffle stage (paper §7.2.2) of a model
	// prepared for a shuffling service, staging of the pass's permutations
	// included; zero otherwise.
	Shuffle    time.Duration
	ShuffleOps he.OpCounts
	// Limbs is the level plan's runtime footprint (zero-valued on
	// backends without a modulus chain).
	Limbs StageLimbs
	// Noise is the decrypt-side measured noise budget at each stage
	// boundary, filled only under Engine.MeasureNoise (all -1 otherwise,
	// and on backends without noise).
	Noise StageNoise
	// Executor names the classify path that ran. There is one: "program",
	// the model's op program (DESIGN.md §13).
	Executor string
	// Workers is the number of goroutines the pass ran its ops on (the
	// resolved Engine.Workers).
	Workers int
	// PlanesPerCiphertext is the plane packing g of the query the pass
	// ran, and QueryCiphertexts the ⌈p/g⌉ operands it carried.
	PlanesPerCiphertext, QueryCiphertexts int
	// LevelLanes and LevelGroups are the h lanes × G groups of the level
	// staging the pass ran on and LevelOperands the ⌈D/(h·G)⌉ stacked level
	// operands it multiplied the branch vector with (Meta.LevelLayout of
	// the query's plane packing).
	LevelLanes, LevelGroups, LevelOperands int
	// The Busy fields are each stage's op wall time summed over those
	// workers. A worker that waits with nothing ready lends its core to
	// the running key switch (ring.Run), and that work counts inside the
	// borrowing op's time, not the lender's: busy ÷ (stage time × Workers)
	// is how much of the workers' slots the stage's dependencies let the
	// scheduler occupy, not how much of the cores it used.
	CompareBusy, ReshuffleBusy, LevelsBusy, AccumulateBusy, ShuffleBusy time.Duration
}

// StageTime is the wall time of the engine stages; Busy is their op wall
// time summed over the pass's own workers, a lent core's work counted
// inside the op that borrowed it. Busy ÷ (StageTime × Workers) is the
// pass's utilisation, the occupancy of its worker slots: 1 on one worker,
// and on several as much as the program's dependencies allow.
func (t *Trace) StageTime() time.Duration {
	return t.Compare + t.Reshuffle + t.Levels + t.Accumulate + t.Shuffle
}

func (t *Trace) Busy() time.Duration {
	return t.CompareBusy + t.ReshuffleBusy + t.LevelsBusy + t.AccumulateBusy + t.ShuffleBusy
}

// StageNoise records the measured remaining noise budget (bits) of the
// carrier ciphertext at the same boundaries StageLimbs reports limb
// counts for: the margin each stage actually leaves, versus the slack
// the planner's noise model reserves. -1 where not measured.
type StageNoise struct {
	// Query is the budget of the first query bit plane feeding compare.
	Query int
	// Decisions enters the reshuffle mat-vec.
	Decisions int
	// BranchVec enters the per-level mat-vecs.
	BranchVec int
	// LevelResult enters the accumulation product tree.
	LevelResult int
	// Result is the classification output (what decrypt sees).
	Result int
}

// PredictedNoise is one row of the level pass's side of the table whose
// measured side is Trace.Limbs and Trace.Noise: where the pass puts a
// carrier and the noise margin (bits) it predicts is left there.
type PredictedNoise struct {
	At         string
	Level      int
	MarginBits float64
}

// PredictedNoise reports the level pass's estimates for Program: the
// five trace boundaries in pipeline order, with the hottest operand after
// each scheduled compare round between the query and the decisions, each
// where it is a ciphertext.
func (m *ModelOperands) PredictedNoise() []PredictedNoise {
	p := m.Program
	nm := planNoiseModel(m.Meta.Slots)
	var out []PredictedNoise
	row := func(at string, e est) {
		if e.cipher {
			out = append(out, PredictedNoise{At: at, Level: e.level, MarginBits: nm.qBits(e.level) - e.noise})
		}
	}
	row("query", p.est[p.regQuery])
	for r, e := range p.rounds {
		row(fmt.Sprintf("round %d", r), e)
	}
	row("decisions", p.est[p.regDecisions])
	row("branch vector", p.est[p.regBranchVec])
	row("level result", p.est[p.regLevelResult])
	row("result", p.est[p.result])
	return out
}

// StageLimbs records the active RNS limb count of the pipeline's
// carrier ciphertext entering each stage (after the boundary drop) and
// leaving the pipeline — the per-stage complement of OpCounts.LimbOps.
type StageLimbs struct {
	// Query is the limb count of the query bit planes feeding compare.
	Query int
	// Decisions enters the reshuffle mat-vec.
	Decisions int
	// BranchVec enters the per-level mat-vecs.
	BranchVec int
	// LevelResult enters the accumulation product tree.
	LevelResult int
	// Result is the classification output (what decrypt sees).
	Result int
}

// Classify evaluates the model on a query (or slot-packed query batch —
// the dataflow is identical) by executing the op program of the query's
// plane packing, returning the result operand (the N-hot leaf bitvector
// of §4.1.2) and a stage trace. Whether the model and the query planes
// are encrypted was fixed when Prepare built the program; a query whose
// planes are the other kind, or whose encrypted planes sit below the
// level the program reads them at, is refused with a
// *QueryLayoutError before any op runs. On a model prepared with
// the shuffle, the program's shuffle stage permutes every block's leaf
// slots with permutations drawn from seed — a fresh seed per pass — and
// the codebooks of the batch's queries, in packing order, decode the
// result (DecodeShuffledBatch); otherwise the codebooks are nil and seed
// is unused. The context is checked before every op, so a cancelled
// request stops within one op's time; ops already running finish first.
func (e *Engine) Classify(ctx context.Context, m *ModelOperands, q *Query, seed uint64) (he.Operand, []*ShuffledCodebook, *Trace, error) {
	// A query packed for one model silently misclassifies on another
	// whose layout differs (a registry makes that an easy mistake), so
	// reject layout mismatches up front — the full packing layout, since
	// models can share QPad while splitting it into different
	// features×multiplicity shapes — and so is a query without stamps.
	g := q.PlanesPerCiphertext
	packed := QueryPacking{q.NumFeatures, q.K, q.QPad, q.Block}
	if model := (QueryPacking{m.Meta.NumFeatures, m.Meta.K, m.Meta.QPad, m.Meta.BatchBlock()}); packed != model {
		return he.Operand{}, nil, nil, &QueryLayoutError{Planes: len(q.Bits), PlanesPerCiphertext: g, Block: q.Block, Packed: packed, Model: model}
	}
	// The batch count fixes the plane packing, and the packing names the
	// program: the one staged for it, levelled for the plane kind the
	// model was prepared for.
	if q.Batch < 1 || g != m.Meta.PlanesPerCiphertext(q.Batch) {
		return he.Operand{}, nil, nil, &QueryLayoutError{Planes: len(q.Bits), PlanesPerCiphertext: g, Block: q.Block}
	}
	pk := m.packing(g)
	if len(q.Bits) != len(pk.thresholds) {
		return he.Operand{}, nil, nil, &QueryLayoutError{Planes: len(q.Bits), PlanesPerCiphertext: g, Block: q.Block, Want: len(pk.thresholds)}
	}
	if i := slices.IndexFunc(q.Bits, func(op he.Operand) bool { return op.IsCipher() != m.encQuery }); i >= 0 {
		return he.Operand{}, nil, nil, &QueryLayoutError{Planes: len(q.Bits), PlanesPerCiphertext: g, Block: q.Block, Want: len(pk.thresholds),
			Encrypted: q.Bits[i].IsCipher(), WantEncrypted: m.encQuery}
	}
	// The program's first op on each encrypted plane drops it to the
	// scenario's compare entry (clamped to the chain top as encryption
	// clamps it), which works from any level at or above it; the backend
	// makes no other level move, so a plane below it would fail mid-pass.
	// A shard's entry may sit below the whole model's query level.
	if m.encQuery {
		want := min(m.Plan.Compare, e.Backend.MaxLevel())
		for _, op := range q.Bits {
			if level, err := e.Backend.CiphertextLevel(op.Ct); err == nil && level < want {
				return he.Operand{}, nil, nil, &QueryLayoutError{Planes: len(q.Bits), PlanesPerCiphertext: g, Block: q.Block, Want: len(pk.thresholds),
					Encrypted: true, WantEncrypted: true, Level: level, WantLevel: want}
			}
		}
	}
	trace := &Trace{PlanesPerCiphertext: g, QueryCiphertexts: len(q.Bits)}
	trace.LevelLanes, trace.LevelGroups, trace.LevelOperands = pk.levels.lanes, pk.levels.groups, len(pk.levels.mats)
	var codebooks []*ShuffledCodebook
	shuffle := func() (sh *passShuffle, err error) {
		sh, codebooks, err = stageShuffle(e.Backend, m, q.Batch, seed)
		return sh, err
	}
	in := passInputs{query: q.Bits, thresholds: pk.thresholds, levels: pk.levels, reshuffle: m.Reshuffle}
	out, err := e.run(ctx, pk.program, in, trace, shuffle)
	if err != nil {
		return he.Operand{}, nil, nil, err
	}
	return out, codebooks, trace, nil
}

// run executes program p over the operands in on e's backend, stage by
// stage, and fills trace with the pass's worker count, stage windows and
// total. Ahead of a shuffle stage, shuffle stages the pass's
// permutations. It is the one executor: COPSE's programs and the
// baseline's both run here.
func (e *Engine) run(ctx context.Context, p *Program, in passInputs, trace *Trace, shuffle func() (*passShuffle, error)) (he.Operand, error) {
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	trace.Executor, trace.Workers = "program", workers
	trace.Noise = StageNoise{Query: -1, Decisions: -1, BranchVec: -1, LevelResult: -1, Result: -1}
	start := time.Now()
	scratch := p.scratch.Get().(*passScratch)
	scratch.reset(p)
	defer func() {
		clear(scratch.regs)
		p.scratch.Put(scratch)
	}()
	ps := &pass{
		passScratch: scratch,
		passInputs:  in,
		b:           e.Backend,
		p:           p,
		workers:     workers,
		rank:        p.sched.rank,
		trace:       trace,
		measure:     e.MeasureNoise,
		mark:        start,
	}
	ps.wake.L = &ps.mu
	if e.shuffleReady != nil {
		ps.rank = e.shuffleReady(len(p.ops))
	}
	for st := stCompare; st < p.stages; st++ {
		if st == stShuffle {
			var err error
			if ps.shuffle, err = shuffle(); err != nil {
				return he.Operand{}, fmt.Errorf("core: %s step: %w", stageNames[st], err)
			}
		}
		if err := ps.runStage(ctx, st); err != nil {
			return he.Operand{}, err
		}
		ps.closeStage(st)
	}
	trace.Total = time.Since(start) - ps.probed
	return ps.regs[p.result], nil
}
