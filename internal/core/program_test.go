package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/matrix"
	"copse/internal/model"
)

func leafNode(label int) *model.Node { return &model.Node{Leaf: true, Label: label} }

func branchNode(feature int, threshold uint64, left, right *model.Node) *model.Node {
	return &model.Node{Feature: feature, Threshold: threshold, Left: left, Right: right}
}

// degenerateCase is one model at the edge of what Compile and
// ReadArtifact accept, with the forest whose plaintext walk is its
// oracle.
type degenerateCase struct {
	name     string
	forest   *model.Forest
	compiled *Compiled
	// plainOnly restricts the case to the plaintext-model scenario (an
	// all-zero matrix is only a shortcut there; encrypted zeros are
	// ordinary ciphertexts).
	plainOnly bool
}

func degenerateCases(t *testing.T) []degenerateCase {
	t.Helper()
	compile := func(f *model.Forest, opts Options) *Compiled {
		opts.Slots = 1024
		c, err := Compile(f, opts)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		return c
	}
	golden := func(file string) *Compiled {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ReadArtifact(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		return c
	}
	labels := []string{"a", "b", "c"}
	stump := &model.Forest{Labels: labels, NumFeatures: 1, Precision: 4, Trees: []*model.Tree{
		{Root: branchNode(0, 7, leafNode(0), leafNode(1))},
	}}
	equal := &model.Forest{Labels: labels, NumFeatures: 2, Precision: 4, Trees: []*model.Tree{
		{Root: branchNode(0, 5, branchNode(1, 5, leafNode(0), leafNode(1)), branchNode(0, 5, leafNode(2), leafNode(0)))},
		{Root: branchNode(1, 5, leafNode(1), branchNode(0, 5, leafNode(2), leafNode(1)))},
	}}
	edges := &model.Forest{Labels: labels, NumFeatures: 2, Precision: 4, Trees: []*model.Tree{
		{Root: branchNode(0, 0, leafNode(0), branchNode(1, 15, leafNode(1), leafNode(2)))},
		{Root: branchNode(1, 0, branchNode(0, 15, leafNode(2), leafNode(0)), leafNode(1))},
	}}
	figure1 := model.Figure1()

	// A level whose matrix selects nothing and whose mask is all ones
	// contributes the factor 0 ⊕ 1 = 1 to every leaf: the forest's answers
	// are unchanged, and the plaintext-model program must lower the
	// matrix product to the zero constant instead of skipping the level.
	zeroLevel := compile(figure1, Options{})
	ones := make([]uint64, zeroLevel.Meta.NumLeaves)
	for i := range ones {
		ones[i] = 1
	}
	zeroLevel.Levels = append(zeroLevel.Levels, matrix.NewBool(zeroLevel.Levels[0].Rows, zeroLevel.Levels[0].Cols))
	zeroLevel.Masks = append(zeroLevel.Masks, ones)
	zeroLevel.Meta.D++

	return []degenerateCase{
		{name: "one-tree", forest: figure1, compiled: compile(figure1, Options{})},
		{name: "stump", forest: stump, compiled: compile(stump, Options{})},
		{name: "equal-thresholds", forest: equal, compiled: compile(equal, Options{})},
		{name: "thresholds-0-and-max", forest: edges, compiled: compile(edges, Options{})},
		{name: "zero-level-matrix", forest: figure1, compiled: zeroLevel, plainOnly: true},
		{name: "golden-v1", forest: figure1, compiled: golden("figure1_v1.copse")},
		{name: "golden-v2", forest: figure1, compiled: golden("figure1_v2.copse")},
		{name: "nobsgs", forest: figure1, compiled: compile(figure1, Options{NoBSGS: true})},
	}
}

// TestDegenerateModelsRunTheProgram: every model shape at the edge of
// the compiler's and the artifact reader's coverage — including the
// naive stagings and the all-zero matrix that used to fall back to a
// separate interpreter — classifies bit-exactly against the plaintext
// walk, on both backends, through the op program.
func TestDegenerateModelsRunTheProgram(t *testing.T) {
	for _, tc := range degenerateCases(t) {
		f := tc.forest
		top := uint64(1)<<uint(f.Precision) - 1
		inputs := [][]uint64{make([]uint64, f.NumFeatures), make([]uint64, f.NumFeatures), make([]uint64, f.NumFeatures), make([]uint64, f.NumFeatures)}
		for i := 0; i < f.NumFeatures; i++ {
			inputs[1][i] = top
			inputs[2][i] = 5 + uint64(i) // straddles the all-equal thresholds
			inputs[3][i] = top * uint64(i%2)
		}
		backends := map[string]func() he.Backend{
			"clear": func() he.Backend { return heclear.New(tc.compiled.Meta.Slots, 65537) },
		}
		if !testing.Short() {
			backends["bgv"] = func() he.Backend { return newBGVBackend(t, tc.compiled) }
		}
		for bname, newBackend := range backends {
			t.Run(tc.name+"/"+bname, func(t *testing.T) {
				b := newBackend()
				if c, ok := b.(interface{ Close() error }); ok {
					defer c.Close()
				}
				for _, encModel := range []bool{true, false} {
					if encModel && tc.plainOnly {
						continue
					}
					m, err := Prepare(b, tc.compiled, encModel)
					if err != nil {
						t.Fatalf("Prepare(encModel=%v): %v", encModel, err)
					}
					e := &Engine{Backend: b, Workers: 2}
					for _, feats := range inputs {
						q, err := PrepareQuery(b, &m.Meta, feats, true)
						if err != nil {
							t.Fatal(err)
						}
						out, trace, err := e.Classify(m, q)
						if err != nil {
							t.Fatalf("encModel=%v Classify(%v): %v", encModel, feats, err)
						}
						if trace.Executor != "program" {
							t.Errorf("encModel=%v: executor %q, want program", encModel, trace.Executor)
						}
						slots, err := he.Reveal(b, out)
						if err != nil {
							t.Fatal(err)
						}
						res, err := DecodeResult(&m.Meta, slots)
						if err != nil {
							t.Fatalf("encModel=%v DecodeResult(%v): %v", encModel, feats, err)
						}
						for ti, want := range f.Classify(feats) {
							if res.PerTree[ti] != want {
								t.Errorf("encModel=%v Classify(%v) tree %d = L%d, want L%d", encModel, feats, ti, res.PerTree[ti], want)
							}
						}
					}
				}
			})
		}
	}
}

// TestPrepareRejectsShapelessModel: a model with no op program is one
// typed Prepare error, not a classify-time surprise.
func TestPrepareRejectsShapelessModel(t *testing.T) {
	b := heclear.New(64, 65537)
	for name, mutate := range map[string]func(c *Compiled){
		"no levels":        func(c *Compiled) { c.Levels, c.Masks = nil, nil },
		"no planes":        func(c *Compiled) { c.ThresholdBits = nil },
		"mask count":       func(c *Compiled) { c.Masks = c.Masks[:1] },
		"level mask count": func(c *Compiled) { c.Levels = c.Levels[:1] },
		// Shapes that cannot be stacked into the lanes of a block: matrices
		// that disagree in rows or columns, a mask that is not one bit per
		// row, and fewer matrices than the levels the lanes were laid out
		// for.
		"level rows":    func(c *Compiled) { c.Levels[1] = matrix.NewBool(c.Levels[1].Rows+1, c.Levels[1].Cols) },
		"level columns": func(c *Compiled) { c.Levels[1] = matrix.NewBool(c.Levels[1].Rows, c.Levels[1].Cols-1) },
		"over the period": func(c *Compiled) {
			for l := range c.Levels {
				c.Levels[l] = matrix.NewBool(c.Levels[l].Rows, c.Meta.BPad+1)
			}
		},
		"mask rows": func(c *Compiled) { c.Masks[0] = append(c.Masks[0], 1) },
		"depth":     func(c *Compiled) { c.Meta.D++ },
	} {
		c := compileFigure1(t)
		mutate(c)
		_, err := Prepare(b, c, true)
		var shape *UnsupportedModelError
		if !errors.As(err, &shape) {
			t.Errorf("%s: Prepare error %v, want *UnsupportedModelError", name, err)
		}
	}
}

// TestLevelStackingHoldsTheReads: the layout makes every lane wide enough
// for the diagonal reads of a level product (2·SPad ≥ NumLeaves + BPad), and
// the staging does not take that on trust — in a block narrower than the
// layout's, where row 5 of Figure 1's six would read past slot 8 through
// diagonal 7, it refuses rather than multiply the next lane in. The grouped
// geometry is held the same way: Figure 1's three levels ride four lane
// groups of one block each, level j in group j and the identity in the
// fourth, every lane the affine map b ↦ (L_j·b) ⊕ mask_j of its level in
// one mat-vec and one addition; more groups than blocks are refused.
func TestLevelStackingHoldsTheReads(t *testing.T) {
	c := compileFigure1(t)
	if lanes, ops, err := levelStacking(c, c.Meta.BatchBlock(), 64); err != nil || lanes != 1 || ops != 3 {
		t.Fatalf("Figure 1 in its own blocks: %d operands of %d lanes, %v", ops, lanes, err)
	}
	_, _, err := levelStacking(c, c.Meta.BatchBlock()/2, 64)
	var shape *UnsupportedModelError
	if !errors.As(err, &shape) {
		t.Errorf("6 rows over period 8 in an 8-slot lane: %v, want *UnsupportedModelError", err)
	}

	meta := &c.Meta
	if lanes, groups, ops := meta.LevelLayout(meta.PlanesPerCiphertext(1)); lanes != 1 || groups != 4 || ops != 1 || meta.BatchCapacity() != 4 {
		t.Fatalf("Figure 1's lone query runs on %d operands of %d lanes × %d groups at capacity %d, want 1 of 1 × 4 at 4", ops, lanes, groups, meta.BatchCapacity())
	}
	b := heclear.New(64, 65537)
	if _, err := stageLevels(b, c, 1, 8, false, -1); !errors.As(err, &shape) {
		t.Errorf("eight lane groups over four blocks: %v, want *UnsupportedModelError", err)
	}
	st, err := stageLevels(b, c, 1, 4, false, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.mats) != 1 || len(st.masks) != 1 {
		t.Fatalf("staged %d operands and %d masks over four groups, want one of each", len(st.mats), len(st.masks))
	}
	branch := make([]uint64, meta.BPad)
	for i := range branch {
		branch[i] = uint64(i*i+1) % 2
	}
	v, err := he.NewPlain(b, replicatePlain(branch, meta.BPad, 64))
	if err != nil {
		t.Fatal(err)
	}
	p := matVecProgram(diagShapeOf(st.mats[0]), false)
	bl := &progBuilder{p: p, constIx: map[constSpec]int{}}
	p.result = bl.emit(opAdd, p.result, bl.emit(opMask, 0, 0, 0, 0), 0, 0)
	if err := p.finish(64, nil); err != nil {
		t.Fatal(err)
	}
	sum, err := (&Engine{Backend: b}).run(context.Background(), p, passInputs{query: []he.Operand{v}, levels: st}, &Trace{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for group := 0; group < 4; group++ {
		want := make([]uint64, meta.NumLeaves)
		for r := range want {
			want[r] = 1 // the identity lane
		}
		if group < len(c.Levels) {
			lb, err := c.Levels[group].MulVec(branch[:c.Levels[group].Cols])
			if err != nil {
				t.Fatal(err)
			}
			for r := range want {
				want[r] = lb[r] ^ c.Masks[group][r]
			}
		}
		at := group * meta.BatchBlock() // a group is one block here
		if got := sum.Vals[at : at+meta.NumLeaves]; !slices.Equal(got, want) {
			t.Errorf("lane group %d holds %v, its level maps the branch vector to %v", group, got, want)
		}
	}
}

// matVecProgram is one mat-vec as the op program lowers it, in a
// one-stage program: the hoisted baby rotations of query operand 0, then
// the giant groups' inner products over level operand 0's diagonals, the
// zero ones skipped under a plaintext model, summed in index order.
func matVecProgram(sh diagShape, encModel bool) *Program {
	p := &Program{encModel: encModel, stages: 1}
	bl := &progBuilder{p: p, constIx: map[constSpec]int{}}
	rots := bl.hoistRots(bl.emit(opQuery, 0, 0, 0, 0), neededBaby(!encModel, sh))
	p.result = bl.mergeGroups(bl.matVecGroups(sh, rots, 0, !encModel), -1)
	return p
}

// TestMatVecRotationBudget: a dense mat-vec as the op program lowers it
// costs at most 2·√P + 1 rotations, where the naive kernel costs P − 1,
// and its baby steps share one hoisted decomposition.
func TestMatVecRotationBudget(t *testing.T) {
	for _, period := range []int{4, 16, 64, 256} {
		baby, giant := matrix.BSGSSplit(period)
		bill := matVecProgram(diagShape{period: period, baby: baby, giant: giant, zero: make([]bool, period)}, true).StageBills()[stCompare]
		if budget := 2*int(math.Sqrt(float64(period))) + 1; bill.Rotations > budget {
			t.Errorf("period %d: %d rotations, budget 2·√P+1 = %d", period, bill.Rotations, budget)
		}
		if bill.Hoisted != baby-1 {
			t.Errorf("period %d: %d hoisted rotations, want the %d baby steps", period, bill.Hoisted, baby-1)
		}
	}
}
