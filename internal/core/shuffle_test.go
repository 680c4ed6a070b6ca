package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// shuffledModel compiles f with the shuffle's headroom and prepares it on
// the exact backend for a shuffling service.
func shuffledModel(t *testing.T, f *model.Forest, slots int, encModel bool) (he.Backend, *ModelOperands) {
	t.Helper()
	c, err := Compile(f, Options{Slots: slots, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	b := heclear.New(slots, 65537)
	m, err := Prepare(b, c, encModel, true, true)
	if err != nil {
		t.Fatal(err)
	}
	return b, m
}

// TestShuffleStageMatchesForest is the oracle of the shuffle stage on the
// exact backend: at both edges of every plane packing, for an encrypted
// and a plaintext model, every query of a shuffled pass decodes through
// its own codebook to model.Forest.Classify's votes. The corpus covers
// blocks of one level lane (Figure 1 at 64 slots), of several (lanes4),
// lane groups (Figure 1 and wide8 at 1024 slots) and the single-block
// layout (Figure 1 at 16 slots, whose doublings span the ciphertext). The
// stage multiplies every permutation diagonal and, where the batch's layout
// leaves residue past its leaf slots — several lanes, or lane groups —
// one selector product before them.
func TestShuffleStageMatchesForest(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	for _, tc := range []struct {
		name  string
		f     *model.Forest
		slots int
	}{
		{"figure1/slots64", model.Figure1(), 64},
		{"figure1/slots1024", model.Figure1(), 1024},
		{"figure1/slots16", model.Figure1(), 16},
		{"wide8", wide8Forest(t), 1024},
		{"lanes4", lanes4Forest(t), 1024},
	} {
		for _, encModel := range []bool{true, false} {
			b, m := shuffledModel(t, tc.f, tc.slots, encModel)
			meta := &m.Meta
			capacity := meta.BatchCapacity()
			for g := meta.PlanesPerCiphertext(1); g >= 1; g >>= 1 {
				edges := []int{capacity/(2*g) + 1, capacity / g}
				if g == meta.PlanesPerCiphertext(1) {
					edges[0] = 1
				}
				for _, n := range slices.Compact(edges) {
					t.Run(fmt.Sprintf("%s/enc=%v/batch=%d", tc.name, encModel, n), func(t *testing.T) {
						batch := make([][]uint64, n)
						for k := range batch {
							batch[k] = randomFeatures(rng, tc.f.NumFeatures, tc.f.Precision)
						}
						q, err := PrepareQueryBatch(b, meta, batch, true)
						if err != nil {
							t.Fatal(err)
						}
						for seed := uint64(1); seed <= 2; seed++ {
							out, cbs, trace, err := (&Engine{Backend: b, Workers: 2}).Classify(context.Background(), m, q, seed)
							if err != nil {
								t.Fatal(err)
							}
							for _, cb := range cbs {
								if len(cb.Slots) != meta.NumLeaves {
									t.Fatalf("codebook over %d slots, the model has %d leaves", len(cb.Slots), meta.NumLeaves)
								}
							}
							checkVotes(t, b, tc.f, m, out, cbs, batch, 0)
							products := int64(meta.LPad())
							if lanes, groups, _ := meta.LevelLayout(q.PlanesPerCiphertext); lanes*groups > 1 {
								products++
							}
							if got := trace.ShuffleOps.ConstMul; got != products {
								t.Errorf("the shuffle stage ran %d plaintext products, want %d", got, products)
							}
						}
					})
				}
			}
		}
	}
}

// TestShuffledTraceCountsTheStage: a shuffled pass's trace covers its
// fifth stage like the other four — StageTime and Busy, which the
// service's utilisation counters sum, include the shuffle.
func TestShuffledTraceCountsTheStage(t *testing.T) {
	b, m := shuffledModel(t, model.Figure1(), 1024, true)
	q, err := PrepareQuery(b, &m.Meta, []uint64{0, 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, _, tr, err := (&Engine{Backend: b, Workers: 2}).Classify(context.Background(), m, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sum := tr.Compare + tr.Reshuffle + tr.Levels + tr.Accumulate + tr.Shuffle; tr.StageTime() != sum || tr.Shuffle == 0 {
		t.Errorf("StageTime %v, the five stages sum to %v (shuffle %v)", tr.StageTime(), sum, tr.Shuffle)
	}
	if tr.ShuffleBusy == 0 || tr.Busy() != tr.CompareBusy+tr.ReshuffleBusy+tr.LevelsBusy+tr.AccumulateBusy+tr.ShuffleBusy {
		t.Errorf("Busy %v, shuffle busy %v: the shuffle stage is not counted", tr.Busy(), tr.ShuffleBusy)
	}
}

func TestShuffleErrors(t *testing.T) {
	cb := &ShuffledCodebook{Slots: []int{0, 1}, NumTrees: 1}
	if _, err := DecodeShuffled(cb, 2, []uint64{1}); err == nil {
		t.Error("short slot vector accepted")
	}
	if _, err := DecodeShuffled(cb, 2, []uint64{7, 0}); err == nil {
		t.Error("non-bit accepted")
	}
	if _, err := DecodeShuffled(cb, 2, []uint64{1, 1}); err == nil {
		t.Error("two votes for one tree accepted")
	}
	if _, err := DecodeShuffled(cb, 2, []uint64{0, 0}); err == nil {
		t.Error("zero votes accepted")
	}
}

// TestConcurrentClassify: one system, many goroutines classifying at
// once — the evaluator, plaintext caches, and counters must be
// race-free (run under -race in CI).
func TestConcurrentClassify(t *testing.T) {
	b := heclear.New(64, 65537)
	forest := model.Figure1()
	c := compileFigure1(t)
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 2}
	inputs := [][]uint64{{0, 5}, {0, 0}, {6, 0}, {3, 2}, {0, 9}, {15, 15}, {8, 8}, {1, 7}}
	errCh := make(chan error, len(inputs))
	for _, feats := range inputs {
		go func(feats []uint64) {
			q, err := PrepareQuery(b, &m.Meta, feats, true)
			if err != nil {
				errCh <- err
				return
			}
			out, _, _, err := e.Classify(context.Background(), m, q, 0)
			if err != nil {
				errCh <- err
				return
			}
			slots, err := he.Reveal(b, out)
			if err != nil {
				errCh <- err
				return
			}
			res, err := DecodeResult(&m.Meta, slots)
			if err != nil {
				errCh <- err
				return
			}
			want := forest.Classify(feats)
			if res.PerTree[0] != want[0] {
				errCh <- errMismatch(feats, res.PerTree[0], want[0])
				return
			}
			errCh <- nil
		}(feats)
	}
	for range inputs {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}
}

type mismatchError struct {
	feats     []uint64
	got, want int
}

func errMismatch(feats []uint64, got, want int) error {
	return &mismatchError{feats, got, want}
}

func (e *mismatchError) Error() string {
	return "concurrent classify mismatch"
}

// TestBatchedShuffleCodebookIndependence: every block must carry its own
// independently seeded permutation — distinct codebooks across blocks,
// deterministic per seed, different across seeds. Sixteen leaves over four
// labels leave the 32 blocks far more codebooks than they can collide on.
func TestBatchedShuffleCodebookIndependence(t *testing.T) {
	f, err := synth.Generate(synth.ForestSpec{NumFeatures: 2, NumLabels: 4, Precision: 4, MaxDepth: 4, BranchesPerTree: []int{7, 7}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, m := shuffledModel(t, f, 1024, true)
	capacity := m.Meta.BatchCapacity()
	if capacity < 16 || m.Meta.NumLeaves < 12 {
		t.Fatalf("%d blocks of %d leaves, the test wants many of both", capacity, m.Meta.NumLeaves)
	}
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{uint64(i % 16), uint64((i * 7) % 16)}
	}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	codebooks := func(seed uint64) []*ShuffledCodebook {
		_, cbs, _, err := (&Engine{Backend: b, Workers: 2}).Classify(context.Background(), m, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		return cbs
	}
	cbs := codebooks(42)
	seen := map[string]int{}
	for k, cb := range cbs {
		key := fmt.Sprint(cb.Slots)
		if prev, dup := seen[key]; dup {
			t.Errorf("blocks %d and %d share a codebook (cross-query linkage)", prev, k)
		}
		seen[key] = k
	}
	// Deterministic per seed, distinct across seeds.
	again, other := codebooks(42), codebooks(43)
	for k := range cbs {
		if !slices.Equal(again[k].Slots, cbs[k].Slots) {
			t.Errorf("block %d: same seed produced a different codebook", k)
		}
		if slices.Equal(other[k].Slots, cbs[k].Slots) {
			t.Errorf("block %d: different seed reproduced the codebook", k)
		}
	}
}

func TestBatchedShuffleErrors(t *testing.T) {
	if _, err := DecodeShuffledBatch(nil, 2, make([]uint64, 64), 16); err == nil {
		t.Error("empty codebook list accepted")
	}
	cb := &ShuffledCodebook{Slots: []int{0, 1}, NumTrees: 1}
	if _, err := DecodeShuffledBatch([]*ShuffledCodebook{cb}, 2, []uint64{1, 0}, 0); err == nil {
		t.Error("zero block width accepted")
	}
	if _, err := DecodeShuffledBatch([]*ShuffledCodebook{cb, cb}, 2, []uint64{1, 0, 0}, 16); err == nil {
		t.Error("short slot vector accepted")
	}
}

// TestBatchedShuffleBGVLeveledKeys runs a shuffled pass on real BGV
// ciphertexts with the full leveled staging: a PlanShuffle-compiled
// model, chain sized to the plan, Galois keys made by staging at the
// levels the programs rotate at — proving the leveled key set covers the
// shuffle stage — and asserts the stage's rotation bill for the whole
// batch stays within 2·√P+1.
func TestBatchedShuffleBGVLeveledKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV batched shuffle is slow")
	}
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.LevelPlan.ChainLevels(true)), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true, true, true)
	if err != nil {
		t.Fatal(err)
	}
	capacity := m.Meta.BatchCapacity()
	rng := rand.New(rand.NewPCG(31, 7))
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{rng.Uint64N(16), rng.Uint64N(16)}
	}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, cbs, trace, err := (&Engine{Backend: b, Workers: 4}).Classify(context.Background(), m, q, 9)
	if err != nil {
		t.Fatal(err)
	}
	nPad := m.Meta.LPad()
	bound := int64(2*int(math.Sqrt(float64(nPad)))) + 1
	if rots := trace.ShuffleOps.Rotate; rots > bound {
		t.Errorf("shuffle stage of %d queries used %d rotations, bound 2·√%d+1 = %d", capacity, rots, nPad, bound)
	}
	budget, err := b.NoiseBudget(shuffled.Ct)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Fatalf("shuffled result noise budget %d", budget)
	}
	checkVotes(t, b, forest, m, shuffled, cbs, batch, 0)
}
