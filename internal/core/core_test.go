package core

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

func compileFigure1(t *testing.T) *Compiled {
	t.Helper()
	c, err := Compile(model.Figure1(), Options{Slots: 64})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

func TestCompileFigure1Meta(t *testing.T) {
	c := compileFigure1(t)
	m := c.Meta
	if m.K != 3 || m.Q != 6 || m.QPad != 8 || m.B != 5 || m.BPad != 8 || m.D != 3 || m.NumLeaves != 6 {
		t.Errorf("meta = %+v", m)
	}
	// Threshold vector grouped by feature: x-group {d1=2, d3=5, S},
	// y-group {d0=3, d2=1, d4=7} (§4.2.1, Figure 3a).
	wantThresholds := []uint64{2, 5, 0, 3, 1, 7}
	var got []uint64
	for j := range wantThresholds {
		var v uint64
		for i := 0; i < m.Precision; i++ {
			v = v<<1 | c.ThresholdBits[i][j]
		}
		got = append(got, v)
	}
	for j := range wantThresholds {
		if got[j] != wantThresholds[j] {
			t.Errorf("threshold col %d = %d, want %d", j, got[j], wantThresholds[j])
		}
	}
	// Reshuffle: branch i ↔ its column (d0→3, d1→0, d2→4, d3→1, d4→5).
	wantCols := []int{3, 0, 4, 1, 5}
	for i, col := range wantCols {
		if c.Reshuffle.At(i, col) != 1 {
			t.Errorf("reshuffle[%d][%d] = 0, want 1", i, col)
		}
	}
	if len(c.Levels) != 3 || len(c.Masks) != 3 {
		t.Fatalf("levels/masks: %d/%d", len(c.Levels), len(c.Masks))
	}
	// Level 1 (paper Figure 4a): L0,L2,L4 under the false branch
	// (mask 1), L1,L3,L5 under the true branch (mask 0).
	wantMask1 := []uint64{1, 0, 1, 0, 1, 0}
	for i, w := range wantMask1 {
		if c.Masks[0][i] != w {
			t.Errorf("level-1 mask[%d] = %d, want %d", i, c.Masks[0][i], w)
		}
	}
	// Level 1 selects d2 for L0/L1, d3 for L2/L3, d4 for L4/L5.
	wantBranch1 := []int{2, 2, 3, 3, 4, 4}
	for leaf, br := range wantBranch1 {
		if c.Levels[0].At(leaf, br) != 1 {
			t.Errorf("level-1 matrix row %d: branch %d not selected", leaf, br)
		}
	}
	// Level 2 treats d4 as its own replacement (paper: "d4 is treated as
	// part of level 1 and 2").
	wantBranch2 := []int{1, 1, 1, 1, 4, 4}
	for leaf, br := range wantBranch2 {
		if c.Levels[1].At(leaf, br) != 1 {
			t.Errorf("level-2 matrix row %d: branch %d not selected", leaf, br)
		}
	}
}

// classifySecure runs the full pipeline for one query on the clear
// backend and returns the per-tree labels.
func classifySecure(t *testing.T, e *Engine, m *ModelOperands, feats []uint64, encryptFeats bool) []int {
	t.Helper()
	q, err := PrepareQuery(e.Backend, &m.Meta, feats, encryptFeats)
	if err != nil {
		t.Fatalf("PrepareQuery: %v", err)
	}
	out, _, _, err := e.Classify(context.Background(), m, q, 0)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	slots, err := he.Reveal(e.Backend, out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(&m.Meta, slots)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	return res.PerTree
}

// TestFigure1Walkthrough reproduces the paper's §3 example: the input
// (x, y) = (0, 5) must classify as L4.
func TestFigure1Walkthrough(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	got := classifySecure(t, e, m, []uint64{0, 5}, true)
	if len(got) != 1 || got[0] != 4 {
		t.Errorf("secure Classify(0,5) = %v, want [4]", got)
	}
}

// TestPipelineMatchesDirectEvaluation is the headline invariant: for
// every party configuration, the vectorized pipeline agrees with the
// plaintext tree walk on random forests and random inputs.
func TestPipelineMatchesDirectEvaluation(t *testing.T) {
	b := heclear.New(256, 65537)
	f := func(seed uint64, cfg uint8) bool {
		r := rand.New(rand.NewPCG(seed, 0xc0de))
		spec := synth.ForestSpec{
			NumFeatures:     1 + r.IntN(4),
			NumLabels:       2 + r.IntN(4),
			Precision:       1 + r.IntN(8),
			MaxDepth:        1 + r.IntN(4),
			Seed:            seed,
			BranchesPerTree: nil,
		}
		trees := 1 + r.IntN(3)
		capacity := 1<<uint(spec.MaxDepth) - 1
		for i := 0; i < trees; i++ {
			spec.BranchesPerTree = append(spec.BranchesPerTree, min(spec.MaxDepth+r.IntN(6), capacity))
		}
		forest, err := synth.Generate(spec)
		if err != nil {
			t.Logf("generate: %v", err)
			return false
		}
		c, err := Compile(forest, Options{Slots: b.Slots()})
		if err != nil {
			t.Logf("compile: %v", err)
			return false
		}
		encModel := cfg&1 != 0
		encFeats := cfg&2 != 0
		m, err := Prepare(b, c, encModel, encFeats, false)
		if err != nil {
			t.Logf("prepare: %v", err)
			return false
		}
		e := &Engine{Backend: b, Workers: 1 + int(cfg%4)}
		for trial := 0; trial < 4; trial++ {
			feats := make([]uint64, forest.NumFeatures)
			for i := range feats {
				feats[i] = r.Uint64N(1 << uint(forest.Precision))
			}
			want := forest.Classify(feats)
			got := classifySecure(t, e, m, feats, encFeats)
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed=%d cfg=%d feats=%v tree %d: got %d want %d", seed, cfg, feats, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCompilerInvariants checks the structural properties of §4.2 on
// random forests.
func TestCompilerInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0xfeed))
		spec := synth.ForestSpec{
			NumFeatures: 1 + r.IntN(5),
			NumLabels:   2 + r.IntN(3),
			Precision:   4,
			MaxDepth:    1 + r.IntN(5),
			Seed:        seed,
		}
		capacity := 1<<uint(spec.MaxDepth) - 1
		for i := 0; i < 1+r.IntN(3); i++ {
			spec.BranchesPerTree = append(spec.BranchesPerTree, min(spec.MaxDepth+r.IntN(8), capacity))
		}
		forest, err := synth.Generate(spec)
		if err != nil {
			return false
		}
		c, err := Compile(forest, Options{Slots: 1024})
		if err != nil {
			return false
		}
		// Reshuffle: exactly one 1 per row, at most one per column
		// (§4.2.2), and exactly QPad - B empty columns.
		colUsed := make([]int, c.Meta.QPad)
		for i := 0; i < c.Meta.B; i++ {
			rowSum := 0
			for j := 0; j < c.Meta.QPad; j++ {
				v := int(c.Reshuffle.At(i, j))
				rowSum += v
				colUsed[j] += v
			}
			if rowSum != 1 {
				return false
			}
		}
		empty := 0
		for _, u := range colUsed {
			if u > 1 {
				return false
			}
			if u == 0 {
				empty++
			}
		}
		if empty != c.Meta.QPad-c.Meta.B {
			return false
		}
		// Level matrices: each row has exactly one 1 (§4.2.3); every
		// branch appears in at least one level.
		branchSeen := make([]bool, c.Meta.B)
		for _, lm := range c.Levels {
			for i := 0; i < c.Meta.NumLeaves; i++ {
				rowSum := 0
				for j := 0; j < c.Meta.B; j++ {
					if lm.At(i, j) == 1 {
						rowSum++
						branchSeen[j] = true
					}
				}
				if rowSum != 1 {
					return false
				}
			}
		}
		for _, seen := range branchSeen {
			if !seen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPlaintextModelCheaper: the M=S configuration (plaintext model)
// must use strictly fewer ciphertext multiplications than M=D — the
// mechanism behind Figure 9's speedup.
func TestPlaintextModelCheaper(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	feats := []uint64{3, 9}
	direct := model.Figure1().Classify(feats)

	encM, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	b.ResetCounts()
	e := &Engine{Backend: b}
	gotEnc := classifySecure(t, e, encM, feats, true)
	encOps := b.Counts()

	plainM, err := Prepare(b, c, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	b.ResetCounts()
	ep := &Engine{Backend: b}
	gotPlain := classifySecure(t, ep, plainM, feats, true)
	plainOps := b.Counts()

	if gotEnc[0] != direct[0] || gotPlain[0] != direct[0] {
		t.Fatalf("results: enc=%v plain=%v want %v", gotEnc, gotPlain, direct)
	}
	if plainOps.Mul >= encOps.Mul {
		t.Errorf("plain model should need fewer ct-ct muls: %d vs %d", plainOps.Mul, encOps.Mul)
	}
	if plainOps.MaxDepth >= encOps.MaxDepth {
		t.Errorf("plain model should have lower depth: %d vs %d", plainOps.MaxDepth, encOps.MaxDepth)
	}
}

// TestDepthMatchesEstimate: the compiler's depth estimates must bound
// the measured multiplicative depth (they drive parameter selection), in
// both scenarios, for a lone query and for a full batch alike.
func TestDepthMatchesEstimate(t *testing.T) {
	b := heclear.New(256, 65537)
	for _, mb := range synth.Microbenchmarks()[:3] {
		forest, err := synth.Generate(mb.Spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(forest, Options{Slots: b.Slots()})
		if err != nil {
			t.Fatal(err)
		}
		for _, encModel := range []bool{true, false} {
			estimate := c.Meta.CtDepthPlainModel
			if encModel {
				estimate = c.Meta.CtDepthCipherModel
			}
			m, err := Prepare(b, c, encModel, true, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, c.Meta.BatchCapacity()} {
				feats := make([][]uint64, batch)
				for i := range feats {
					feats[i] = make([]uint64, forest.NumFeatures)
				}
				q, err := PrepareQueryBatch(b, &m.Meta, feats, true)
				if err != nil {
					t.Fatal(err)
				}
				b.ResetCounts()
				if _, _, _, err := (&Engine{Backend: b}).Classify(context.Background(), m, q, 0); err != nil {
					t.Fatal(err)
				}
				if measured := int(b.Counts().MaxDepth); measured > estimate {
					t.Errorf("%s enc=%v, batch of %d: measured depth %d exceeds estimate %d", mb.Name, encModel, batch, measured, estimate)
				}
			}
		}
	}
}

func TestPadMultiplicityTo(t *testing.T) {
	b := heclear.New(64, 65537)
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 64, PadMultiplicityTo: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Meta.K != 5 || c.Meta.Q != 10 || c.Meta.QPad != 16 {
		t.Errorf("padded meta: K=%d Q=%d QPad=%d", c.Meta.K, c.Meta.Q, c.Meta.QPad)
	}
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	got := classifySecure(t, e, m, []uint64{0, 5}, true)
	if got[0] != 4 {
		t.Errorf("padded model Classify(0,5) = %v, want L4", got)
	}
	if _, err := Compile(forest, Options{Slots: 64, PadMultiplicityTo: 2}); err == nil {
		t.Error("bound below true K accepted")
	}
}

func TestTraceStages(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	q, err := PrepareQuery(b, &m.Meta, []uint64{1, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	_, _, trace, err := e.Classify(context.Background(), m, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if trace.CompareOps.Mul == 0 {
		t.Error("comparison recorded no multiplications")
	}
	if trace.ReshuffleOps.Rotate == 0 {
		t.Error("reshuffle recorded no rotations")
	}
	if trace.LevelOps.Mul == 0 {
		t.Error("level processing recorded no multiplications")
	}
	if trace.AccumulateOps.Mul == 0 {
		t.Error("accumulation recorded no multiplications")
	}
	if trace.Total < trace.Compare {
		t.Error("total below compare time")
	}
}

func TestCompileErrors(t *testing.T) {
	leafOnly := &model.Forest{
		Labels:      []string{"a", "b"},
		NumFeatures: 1,
		Precision:   4,
		Trees:       []*model.Tree{{Root: &model.Node{Leaf: true, Label: 0}}},
	}
	if _, err := Compile(leafOnly, Options{}); err == nil {
		t.Error("bare-leaf tree accepted")
	}
	big, err := synth.Generate(synth.ForestSpec{
		NumFeatures: 2, NumLabels: 2, Precision: 4, MaxDepth: 6,
		BranchesPerTree: []int{40, 40}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(big, Options{Slots: 16}); err == nil {
		t.Error("model larger than slot count accepted")
	}
}

func TestDecodeResultErrors(t *testing.T) {
	c := compileFigure1(t)
	meta := &c.Meta
	if _, err := DecodeResult(meta, []uint64{1}); err == nil {
		t.Error("short slot vector accepted")
	}
	bad := make([]uint64, meta.NumLeaves)
	bad[0] = 2
	if _, err := DecodeResult(meta, bad); err == nil {
		t.Error("non-bit slot accepted")
	}
	none := make([]uint64, meta.NumLeaves)
	if _, err := DecodeResult(meta, none); err == nil {
		t.Error("no-leaf-selected accepted")
	}
	two := make([]uint64, meta.NumLeaves)
	two[0], two[1] = 1, 1
	if _, err := DecodeResult(meta, two); err == nil {
		t.Error("two-leaves-selected accepted")
	}
	good := make([]uint64, meta.NumLeaves)
	good[3] = 1
	res, err := DecodeResult(meta, good)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerTree[0] != 3 || res.Plurality() != 3 {
		t.Errorf("decode: %+v", res)
	}
}

func TestPrepareQueryErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	if _, err := PrepareQuery(b, &c.Meta, []uint64{1}, true); err == nil {
		t.Error("wrong feature count accepted")
	}
	if _, err := PrepareQuery(b, &c.Meta, []uint64{1, 99}, true); err == nil {
		t.Error("out-of-precision feature accepted")
	}
}

func TestPrepareSlotMismatch(t *testing.T) {
	b := heclear.New(64, 65537)
	c, err := Compile(model.Figure1(), Options{Slots: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Prepare(b, c, true, true, false); err == nil {
		t.Error("slot mismatch accepted")
	}
}
