package core

import (
	"context"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

// newBGVBackend builds a BGV backend sized by the compiler's own
// parameter recommendation — the staging step of §5.
func newBGVBackend(t *testing.T, c *Compiled) *hebgv.Backend {
	t.Helper()
	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.RecommendedLevels), Seed: 21})
	if err != nil {
		t.Fatalf("hebgv.New: %v", err)
	}
	return b
}

// TestPipelineOnBGVFigure1 runs the complete encrypted pipeline —
// encrypted model AND encrypted features — on real BGV ciphertexts and
// checks it against the plaintext walk for a grid of inputs.
func TestPipelineOnBGVFigure1(t *testing.T) {
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b := newBGVBackend(t, c)
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 4}

	inputs := [][]uint64{{0, 5}, {0, 0}, {6, 0}, {3, 2}, {0, 9}, {15, 15}}
	for _, feats := range inputs {
		want := forest.Classify(feats)
		q, err := PrepareQuery(b, &m.Meta, feats, true)
		if err != nil {
			t.Fatal(err)
		}
		out, _, _, err := e.Classify(context.Background(), m, q, 0)
		if err != nil {
			t.Fatalf("Classify(%v): %v", feats, err)
		}
		budget, err := b.NoiseBudget(out.Ct)
		if err != nil {
			t.Fatal(err)
		}
		if budget <= 0 {
			t.Fatalf("Classify(%v): result noise budget %d", feats, budget)
		}
		slots, err := he.Reveal(b, out)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeResult(&m.Meta, slots)
		if err != nil {
			t.Fatalf("DecodeResult(%v): %v", feats, err)
		}
		if res.PerTree[0] != want[0] {
			t.Errorf("Classify(%v) = L%d, want L%d", feats, res.PerTree[0], want[0])
		}
	}
}

// TestPipelineOnBGVPlaintextModel covers the M=S configuration on real
// ciphertexts: plaintext model, encrypted features.
func TestPipelineOnBGVPlaintextModel(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV integration test")
	}
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b := newBGVBackend(t, c)
	m, err := Prepare(b, c, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 4}
	for _, feats := range [][]uint64{{0, 5}, {7, 1}, {2, 8}} {
		want := forest.Classify(feats)
		got := classifySecureBGV(t, e, m, feats)
		if got[0] != want[0] {
			t.Errorf("Classify(%v) = L%d, want L%d", feats, got[0], want[0])
		}
	}
}

func classifySecureBGV(t *testing.T, e *Engine, m *ModelOperands, feats []uint64) []int {
	t.Helper()
	q, err := PrepareQuery(e.Backend, &m.Meta, feats, true)
	if err != nil {
		t.Fatal(err)
	}
	out, _, _, err := e.Classify(context.Background(), m, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := he.Reveal(e.Backend, out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeResult(&m.Meta, slots)
	if err != nil {
		t.Fatal(err)
	}
	return res.PerTree
}
