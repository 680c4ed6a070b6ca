package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/model"
)

// TestTable3LeakageTwoParty transcribes and checks the paper's Table 3.
func TestTable3LeakageTwoParty(t *testing.T) {
	type row struct {
		scenario Scenario
		party    Party
		want     Leakage
	}
	rows := []row{
		// S, M = D: revealed to S: q, b, d.
		{ScenarioOffload, PartyServer, Leakage{Q: true, B: true, D: true}},
		{ScenarioOffload, PartyModelOwner, Leakage{}},
		{ScenarioOffload, PartyDataOwner, Leakage{}},
		// S = M, D: revealed to D: K, b.
		{ScenarioServerModel, PartyServer, Leakage{}},
		{ScenarioServerModel, PartyModelOwner, Leakage{}},
		{ScenarioServerModel, PartyDataOwner, Leakage{K: true, B: true}},
		// S = D, M: revealed to S: q, b, K, d; to D: q, b, K.
		{ScenarioClientEval, PartyServer, Leakage{Q: true, B: true, K: true, D: true}},
		{ScenarioClientEval, PartyModelOwner, Leakage{}},
		{ScenarioClientEval, PartyDataOwner, Leakage{Q: true, B: true, K: true}},
	}
	for _, r := range rows {
		if got := Revealed(r.scenario, r.party); got != r.want {
			t.Errorf("Revealed(%d, %d) = %+v, want %+v", r.scenario, r.party, got, r.want)
		}
	}
}

// TestTable4LeakageThreeParty transcribes and checks the paper's Table 4.
func TestTable4LeakageThreeParty(t *testing.T) {
	// No collusion.
	if got := Revealed(ScenarioThreeParty, PartyServer); got != (Leakage{Q: true, B: true, D: true, K: true}) {
		t.Errorf("three-party S view: %+v", got)
	}
	if got := Revealed(ScenarioThreeParty, PartyModelOwner); got != (Leakage{}) {
		t.Errorf("three-party M view: %+v", got)
	}
	if got := Revealed(ScenarioThreeParty, PartyDataOwner); got != (Leakage{K: true, B: true}) {
		t.Errorf("three-party D view: %+v", got)
	}
	// Collusion with M: S and M learn everything, D still only K, b.
	for _, p := range []Party{PartyServer, PartyModelOwner} {
		if got := Revealed(ScenarioColludeSM, p); !got.Everything {
			t.Errorf("collude-SM party %d should learn everything: %+v", p, got)
		}
	}
	if got := Revealed(ScenarioColludeSM, PartyDataOwner); got.Everything {
		t.Errorf("collude-SM D should not learn everything: %+v", got)
	}
	// Collusion with D: S and D learn everything, M nothing.
	for _, p := range []Party{PartyServer, PartyDataOwner} {
		if got := Revealed(ScenarioColludeSD, p); !got.Everything {
			t.Errorf("collude-SD party %d should learn everything: %+v", p, got)
		}
	}
	if got := Revealed(ScenarioColludeSD, PartyModelOwner); got != (Leakage{}) {
		t.Errorf("collude-SD M view: %+v", got)
	}
}

// TestInferServerView shows the leakage is real: the quantities of
// Table 3 are recoverable from ciphertext collection shapes alone.
func TestInferServerView(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	m, err := Prepare(b, c, true, true, false) // fully encrypted model
	if err != nil {
		t.Fatal(err)
	}
	view := InferServerView(m)
	if view.QPad != c.Meta.QPad {
		t.Errorf("inferred q̂ = %d, want %d", view.QPad, c.Meta.QPad)
	}
	if view.BPad != c.Meta.BPad {
		t.Errorf("inferred b̂ = %d, want %d", view.BPad, c.Meta.BPad)
	}
	if view.D != c.Meta.D {
		t.Errorf("inferred d = %d, want %d", view.D, c.Meta.D)
	}
	if view.P != c.Meta.Precision {
		t.Errorf("inferred p = %d, want %d", view.P, c.Meta.Precision)
	}
	dv := InferDataOwnerView(&c.Meta)
	if dv.K != 3 || dv.NumLeaves != 6 {
		t.Errorf("data owner view: %+v", dv)
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	c := compileFigure1(t)
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.String() != c.Meta.String() {
		t.Errorf("meta changed: %s vs %s", back.Meta.String(), c.Meta.String())
	}
	for i := 0; i < c.Reshuffle.Rows; i++ {
		for j := 0; j < c.Reshuffle.Cols; j++ {
			if back.Reshuffle.At(i, j) != c.Reshuffle.At(i, j) {
				t.Fatalf("reshuffle[%d][%d] changed", i, j)
			}
		}
	}
	if len(back.Levels) != len(c.Levels) || len(back.Masks) != len(c.Masks) {
		t.Fatal("levels/masks dropped")
	}
	// The round-tripped artifact must still classify correctly.
	b := heclear.New(64, 65537)
	m, err := Prepare(b, back, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	got := classifySecure(t, e, m, []uint64{0, 5}, true)
	if got[0] != 4 {
		t.Errorf("restored artifact Classify(0,5) = %v, want L4", got)
	}
}

func TestArtifactBadInput(t *testing.T) {
	if _, err := ReadArtifact(bytes.NewReader([]byte("not an artifact"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadArtifact(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// TestBatchedShuffleLeakage holds the shuffle stage to its leakage
// promise: with the same query packed into every block (identical
// unshuffled leaf patterns), each block's hot slot must move across
// seeds, and within one seed the blocks must not share a permutation —
// the data owner cannot link one packed query's shuffled layout to
// another's. Shuffled passes over one prepared model run concurrently
// from several goroutines, so the -race suite doubles as the concurrency
// check for the per-pass permutations.
func TestBatchedShuffleLeakage(t *testing.T) {
	b := heclear.New(64, 65537)
	c, err := Compile(model.Figure1(), Options{Slots: 64, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	capacity := m.Meta.BatchCapacity() // 4
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{0, 5} // every block classifies as L4
	}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}

	const seeds = 8
	hot := make([][]int, seeds) // hot[seed][block]
	errCh := make(chan error, seeds)
	var mu sync.Mutex
	for seed := 0; seed < seeds; seed++ {
		go func(seed int) {
			pos, err := hotSlots(b, e, m, q, uint64(seed+1))
			if err == nil {
				mu.Lock()
				hot[seed] = pos
				mu.Unlock()
			}
			errCh <- err
		}(seed)
	}
	for i := 0; i < seeds; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	// Across seeds, each block's hot slot must move.
	for k := 0; k < capacity; k++ {
		positions := map[int]bool{}
		for seed := 0; seed < seeds; seed++ {
			positions[hot[seed][k]] = true
		}
		if len(positions) < 3 {
			t.Errorf("block %d: hot slot landed in only %d positions over %d seeds", k, len(positions), seeds)
		}
	}
	// Within a seed, identical inputs must not land identically in every
	// block (independent per-block permutations). A full coincidence is
	// possible by chance ((1/6)^3 per seed here), so assert over the
	// aggregate: most seeds must show differing blocks.
	coincidences := 0
	for seed := 0; seed < seeds; seed++ {
		allSame := true
		for k := 1; k < capacity; k++ {
			if hot[seed][k] != hot[seed][0] {
				allSame = false
				break
			}
		}
		if allSame {
			coincidences++
		}
	}
	if coincidences > seeds/2 {
		t.Errorf("identical packed queries shared one hot slot across all blocks in %d of %d seeds (linked permutations?)", coincidences, seeds)
	}
}

// hotSlots runs one shuffled pass of a batch of one-tree queries under
// seed and returns the slot each query's vote landed in, within its block.
func hotSlots(b he.Backend, e *Engine, m *ModelOperands, q *Query, seed uint64) ([]int, error) {
	shuffled, cbs, _, err := e.Classify(context.Background(), m, q, seed)
	if err != nil {
		return nil, err
	}
	if len(cbs) != q.Batch {
		return nil, fmt.Errorf("seed %d: %d codebooks for %d queries", seed, len(cbs), q.Batch)
	}
	slots, err := he.Reveal(b, shuffled)
	if err != nil {
		return nil, err
	}
	pos := make([]int, q.Batch)
	for k := range pos {
		block := slots[k*m.Meta.BatchBlock():][:m.Meta.NumLeaves]
		if pos[k] = slices.Index(block, 1); pos[k] < 0 {
			return nil, fmt.Errorf("seed %d block %d: no hot slot", seed, k)
		}
	}
	return pos, nil
}

// TestBatchedShuffleLeakageBGV is the same property on real BGV
// ciphertexts (fewer seeds; the pass is the slow part).
func TestBatchedShuffleLeakageBGV(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV batched shuffle leakage is slow")
	}
	c, err := Compile(model.Figure1(), Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	b := newBGVBackend(t, c)
	m, err := Prepare(b, c, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 4}
	const packed = 3
	batch := make([][]uint64, packed)
	for i := range batch {
		batch[i] = []uint64{0, 5}
	}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for seed := uint64(1); seed <= 3 && !differs; seed++ {
		hot, err := hotSlots(b, e, m, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k < packed; k++ {
			if hot[k] != hot[0] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("identical packed queries always shared a hot slot across blocks")
	}
}
