package core

import (
	"context"
	"fmt"

	"copse/internal/he"
)

// The baseline, Aloufi et al.'s evaluation (paper §2.3.1, §8.2), is a
// second structure of the op program (DESIGN.md §13.6): every decision
// node is its own comparison — the same reduction-tree comparator COPSE
// runs once on its packed planes — and every tree a boolean polynomial,
// one product per leaf of its path literals and label bits. It is levelled
// by the same planner and level pass and run by the same executor, so
// Figure 6 compares the paper's idea and nothing else.

// BaselineForest is a forest as the baseline evaluates it. Every operand
// is a scalar broadcast into all slots, except the label bits.
type BaselineForest struct {
	// NumFeatures and Precision shape the query: query operand
	// f·Precision + j holds bit plane j, most significant first, of
	// feature f.
	NumFeatures, Precision int
	// Features lists the feature each decision node compares. Threshold
	// operand i·Precision + j holds plane j of node i's negated threshold
	// ¬y = 1 − y.
	Features []int
	// Paths lists each leaf's root path, one literal per decision node it
	// passes: i + 1 where it takes node i's right branch (x > y, the
	// decision d_i), −(i + 1) where it takes the left one (1 − d_i). Mask
	// operand k holds leaf k's label bits in the slots of its tree, so the
	// leaves of all trees sum into one result.
	Paths [][]int
}

// buildBaseline lowers f to ops in three stages — compare, levels,
// accumulate — with the scheduled drop points marked when a plan is given.
// The reshuffle stage is empty: the decisions are already one ciphertext
// per node.
func buildBaseline(f *BaselineForest, plan *StageLevels) (*Program, error) {
	prec := f.Precision
	if prec < 1 || len(f.Features) == 0 || len(f.Paths) == 0 {
		return nil, &UnsupportedModelError{Reason: fmt.Sprintf("%d decision nodes and %d leaves at precision %d", len(f.Features), len(f.Paths), prec)}
	}
	p := &Program{encModel: true, stages: stShuffle}
	bl := &progBuilder{p: p, constIx: map[constSpec]int{}, plan: plan}

	// ---- Stage 1: compare -------------------------------------------
	// Every node's comparison, on its feature's planes and its own ¬y.
	q := make([]int, f.NumFeatures*prec)
	for j := range q {
		q[j] = bl.drop(bl.emit(opQuery, 0, 0, j, 0), atCompare)
	}
	p.regQuery = q[0]
	d := make([]int, len(f.Features))
	thresh := make([]int, prec)
	for i, feat := range f.Features {
		for j := range thresh {
			thresh[j] = i*prec + j
		}
		gt, _, _ := bl.compare(q[feat*prec:(feat+1)*prec], thresh)
		d[i] = bl.drop(gt, atLevel)
	}
	p.regDecisions, p.regBranchVec = d[0], d[0]

	// ---- Stage 3: levels --------------------------------------------
	// Each leaf's term: the product tree over its path literals and its
	// label bits. A node's 1 − d is computed once, by the first leaf left
	// of it (register 0, the first query load, marks none yet).
	bl.stage = stLevels
	notD := make([]int, len(d))
	terms := make([]int, len(f.Paths))
	for k, path := range f.Paths {
		factors := make([]int, 0, len(path)+1)
		for _, lit := range path {
			if lit > 0 {
				factors = append(factors, d[lit-1])
				continue
			}
			i := -lit - 1
			if notD[i] == 0 {
				notD[i] = bl.emit(opSub, bl.constReg(constSpec{Kind: ckOnes}), d[i], 0, 0)
			}
			factors = append(factors, notD[i])
		}
		factors = append(factors, bl.emit(opMask, 0, 0, k, 0))
		terms[k] = bl.drop(bl.productTree(factors), atAccumulate)
	}
	p.regLevelResult = terms[0]

	// ---- Stage 4: accumulate ----------------------------------------
	bl.stage = stAccumulate
	p.regLeaves = bl.drop(bl.mergeGroups(terms, -1), atFinal)
	p.result = p.regLeaves
	p.eliminateDeadOps()
	return p, nil
}

// PlanBaseline is the level schedule of f's baseline program on a ring of
// the given slot count: the planner's search over its structure, the level
// pass the oracle, as Compile plans COPSE's pipeline. The program reads
// its query and thresholds at the Compare entry and its label bits at the
// Level entry; the chain it needs is Compare + 1.
func PlanBaseline(f *BaselineForest, slots int) (StageLevels, error) {
	p, err := buildBaseline(f, &StageLevels{CompareRounds: make([]int, log2Ceil(max(f.Precision, 1)))})
	if err != nil {
		return StageLevels{}, err
	}
	plan, ok := planner{nm: planNoiseModel(slots), progs: []*Program{p}}.schedule(minFinalLevel, 0)
	if !ok {
		return StageLevels{}, fmt.Errorf("core: no level schedule for the baseline within %d levels", planCap)
	}
	return plan, nil
}

// NewBaselineProgram builds f's baseline program under plan (PlanBaseline's)
// and binds its constant on b.
func NewBaselineProgram(b he.Backend, f *BaselineForest, plan StageLevels) (*Program, error) {
	p, err := buildBaseline(f, &plan)
	if err != nil {
		return nil, err
	}
	if err := p.finish(b.Slots(), &plan); err != nil {
		return nil, err
	}
	if err := p.bind(b, nil); err != nil {
		return nil, fmt.Errorf("core: binding baseline program constants: %w", err)
	}
	return p, nil
}

// ClassifyBaseline runs a baseline program (NewBaselineProgram) on the
// operands its loads read, laid out as BaselineForest describes: the query
// planes, the negated threshold planes and the label bits. The result
// holds every tree's label bits in that tree's slots.
func (e *Engine) ClassifyBaseline(ctx context.Context, p *Program, query, thresholds, labels []he.Operand) (he.Operand, *Trace, error) {
	trace := &Trace{}
	out, err := e.run(ctx, p, passInputs{query: query, thresholds: thresholds, levels: &levelStaging{masks: labels}}, trace, nil)
	return out, trace, err
}
