package baseline

import (
	"context"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
	"copse/internal/synth"
)

func classifyBaseline(t *testing.T, m *Model, feats []uint64, workers int) []int {
	t.Helper()
	q, err := PrepareQuery(m.Backend, &m.Meta, feats)
	if err != nil {
		t.Fatalf("PrepareQuery: %v", err)
	}
	out, _, err := Classify(context.Background(), m, q, workers)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	slots, err := he.Reveal(m.Backend, out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(&m.Meta, slots)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	return got
}

func TestBaselineFigure1(t *testing.T) {
	forest := model.Figure1()
	m, err := Prepare(forest, 64, "clear", 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 16; x += 3 {
		for y := uint64(0); y < 16; y += 3 {
			want := forest.Classify([]uint64{x, y})
			got := classifyBaseline(t, m, []uint64{x, y}, 1)
			if got[0] != want[0] {
				t.Errorf("(%d,%d): got L%d want L%d", x, y, got[0], want[0])
			}
		}
	}
}

// TestBaselineMatchesDirect is the baseline's correctness property test
// over random forests and worker counts.
func TestBaselineMatchesDirect(t *testing.T) {
	f := func(seed uint64, cfg uint8) bool {
		r := rand.New(rand.NewPCG(seed, 0xba5e))
		spec := synth.ForestSpec{
			NumFeatures: 1 + r.IntN(3),
			NumLabels:   2 + r.IntN(4),
			Precision:   1 + r.IntN(6),
			MaxDepth:    1 + r.IntN(4),
			Seed:        seed,
		}
		capacity := 1<<uint(spec.MaxDepth) - 1
		for i := 0; i < 1+r.IntN(2); i++ {
			spec.BranchesPerTree = append(spec.BranchesPerTree, min(spec.MaxDepth+r.IntN(5), capacity))
		}
		forest, err := synth.Generate(spec)
		if err != nil {
			return false
		}
		m, err := Prepare(forest, 128, "clear", 0)
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			feats := make([]uint64, forest.NumFeatures)
			for i := range feats {
				feats[i] = r.Uint64N(1 << uint(forest.Precision))
			}
			want := forest.Classify(feats)
			got := classifyBaseline(t, m, feats, 1+int(cfg%4))
			for i := range want {
				if got[i] != want[i] {
					t.Logf("seed=%d cfg=%d feats=%v tree %d: got %d want %d", seed, cfg, feats, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBaselineComparisonCostLinearInBranches verifies the scaling
// contrast the paper exploits: the baseline's compare stage grows linearly
// with the branch count (COPSE's comparison step is constant).
func TestBaselineComparisonCostLinearInBranches(t *testing.T) {
	mulsFor := func(branches int) int64 {
		forest, err := synth.Generate(synth.ForestSpec{
			NumFeatures: 2, NumLabels: 3, Precision: 8,
			MaxDepth: 5, BranchesPerTree: []int{branches}, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Prepare(forest, 256, "clear", 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := PrepareQuery(m.Backend, &m.Meta, []uint64{100, 50})
		if err != nil {
			t.Fatal(err)
		}
		_, trace, err := Classify(context.Background(), m, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		return trace.CompareOps.Mul
	}
	m10, m20 := mulsFor(10), mulsFor(20)
	if m20 < m10*3/2 {
		t.Errorf("baseline compare muls should grow ~linearly with branches: b=10→%d, b=20→%d", m10, m20)
	}
}

func TestBaselineParallelEquivalence(t *testing.T) {
	forest, err := synth.Generate(synth.ForestSpec{
		NumFeatures: 3, NumLabels: 4, Precision: 6,
		MaxDepth: 4, BranchesPerTree: []int{9, 11}, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(forest, 128, "clear", 0)
	if err != nil {
		t.Fatal(err)
	}
	feats := []uint64{10, 20, 30}
	seq := classifyBaseline(t, m, feats, 1)
	par := classifyBaseline(t, m, feats, 8)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("tree %d: sequential %d vs parallel %d", i, seq[i], par[i])
		}
	}
}

// TestBaselineBGV is the baseline's oracle on real ciphertexts: on Figure
// 1 and the depth4 and prec16 microbenchmarks, the labels equal the
// plaintext walk under the program's own plan (an operand it left
// misaligned would be refused by the backend), and the chain is the one
// that plan needs.
func TestBaselineBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV baseline in -short mode")
	}
	forests := map[string]*model.Forest{"figure1": model.Figure1()}
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == "depth4" || mb.Name == "prec16" {
			f, err := synth.Generate(mb.Spec)
			if err != nil {
				t.Fatal(err)
			}
			forests[mb.Name] = f
		}
	}
	for name, f := range forests {
		t.Run(name, func(t *testing.T) {
			m, err := Prepare(f, 1024, "bgv", 5)
			if err != nil {
				t.Fatal(err)
			}
			if chain := m.Backend.(*hebgv.Backend).MaxLevel() + 1; chain != m.Plan.Compare+1 {
				t.Errorf("chain of %d primes, the plan needs %d", chain, m.Plan.Compare+1)
			}
			rng := rand.New(rand.NewPCG(7, 7))
			for trial := 0; trial < 2; trial++ {
				feats := make([]uint64, f.NumFeatures)
				for i := range feats {
					feats[i] = rng.Uint64N(1 << uint(f.Precision))
				}
				got := classifyBaseline(t, m, feats, 2)
				for ti, want := range f.Classify(feats) {
					if got[ti] != want {
						t.Errorf("%v tree %d: L%d, plaintext L%d", feats, ti, got[ti], want)
					}
				}
			}
		})
	}
}

func TestBaselineErrors(t *testing.T) {
	forest := model.Figure1()
	m, err := Prepare(forest, 64, "clear", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareQuery(m.Backend, &m.Meta, []uint64{1}); err == nil {
		t.Error("wrong feature count accepted")
	}
	if _, err := PrepareQuery(m.Backend, &m.Meta, []uint64{1, 999}); err == nil {
		t.Error("out-of-precision feature accepted")
	}
	if _, err := DecodeResult(&m.Meta, nil); err == nil {
		t.Error("short result accepted")
	}
	if _, err := DecodeResult(&m.Meta, []uint64{7, 7, 7}); err == nil {
		t.Error("non-bit slots accepted")
	}
	leafOnly := &model.Forest{
		Labels: []string{"x", "y"}, NumFeatures: 1, Precision: 2,
		Trees: []*model.Tree{{Root: &model.Node{Leaf: true}}},
	}
	if _, err := Prepare(leafOnly, 64, "clear", 0); err == nil {
		t.Error("forest without a decision node accepted")
	}
	if _, err := Prepare(forest, 64, "ckks", 0); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := Prepare(forest, 1, "clear", 0); err == nil {
		t.Error("label bits wider than the slots accepted")
	}
}
