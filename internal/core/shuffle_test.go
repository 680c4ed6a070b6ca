package core

import (
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"testing"
	"time"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
)

// TestShuffleResultPreservesVotes: shuffling must keep exactly the vote
// counts while moving the set bits.
func TestShuffleResultPreservesVotes(t *testing.T) {
	b := heclear.New(64, 65537)
	forest := model.Figure1()
	c := compileFigure1(t)
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}

	feats := []uint64{0, 5} // classifies as L4
	q, err := PrepareQuery(b, &m.Meta, feats, true)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := e.Classify(m, q)
	if err != nil {
		t.Fatal(err)
	}

	for _, padTo := range []int{0, 10, 32} {
		for seed := uint64(1); seed <= 3; seed++ {
			shuffled, cb, err := ShuffleResult(b, &m.Meta, out, padTo, seed)
			if err != nil {
				t.Fatalf("padTo=%d seed=%d: %v", padTo, seed, err)
			}
			slots, err := he.Reveal(b, shuffled)
			if err != nil {
				t.Fatal(err)
			}
			res, err := DecodeShuffled(cb, len(forest.Labels), slots)
			if err != nil {
				t.Fatalf("padTo=%d seed=%d: %v", padTo, seed, err)
			}
			if res.Votes[4] != 1 {
				t.Errorf("padTo=%d seed=%d: votes %v, want one vote for L4", padTo, seed, res.Votes)
			}
			total := 0
			for _, v := range res.Votes {
				total += v
			}
			if total != 1 {
				t.Errorf("padTo=%d seed=%d: %d total votes, want 1", padTo, seed, total)
			}
			wantLen := padTo
			if padTo == 0 {
				wantLen = m.Meta.NumLeaves
			}
			if len(cb.Slots) != wantLen {
				t.Errorf("codebook has %d slots, want %d", len(cb.Slots), wantLen)
			}
		}
	}
}

// TestShuffleActuallyPermutes: different seeds must move the hot slot.
func TestShuffleActuallyPermutes(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	q, err := PrepareQuery(b, &m.Meta, []uint64{0, 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := e.Classify(m, q)
	if err != nil {
		t.Fatal(err)
	}
	hot := func(seed uint64) int {
		shuffled, _, err := ShuffleResult(b, &m.Meta, out, 32, seed)
		if err != nil {
			t.Fatal(err)
		}
		slots, err := he.Reveal(b, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range slots {
			if v == 1 {
				return i
			}
		}
		t.Fatal("no hot slot after shuffle")
		return -1
	}
	positions := map[int]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		positions[hot(seed)] = true
	}
	if len(positions) < 3 {
		t.Errorf("hot slot landed in only %d positions over 8 seeds", len(positions))
	}
}

func TestShuffleErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := he.NewPlain(b, make([]uint64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ShuffleResult(b, &m.Meta, zero, 3, 1); err == nil {
		t.Error("padding below leaf count accepted")
	}
	if _, _, err := ShuffleResult(b, &m.Meta, zero, 999, 1); err == nil {
		t.Error("padding beyond slots accepted")
	}
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
	m, err := Prepare(b, c, true)
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
			out, _, err := e.Classify(m, q)
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

// classifyBatchRaw packs a batch, classifies it once and returns the
// result operand (for the shuffle tests, which consume it twice).
func classifyBatchRaw(t *testing.T, e *Engine, m *ModelOperands, batch [][]uint64) he.Operand {
	t.Helper()
	q, err := PrepareQueryBatch(e.Backend, &m.Meta, batch, true)
	if err != nil {
		t.Fatalf("PrepareQueryBatch: %v", err)
	}
	out, _, err := e.Classify(m, q)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	return out
}

// TestBatchedShuffleMatchesSingle is the batch-vs-single equivalence
// property: every block of a batched shuffle must decode to exactly the
// votes of the single-query shuffle path (and the plaintext walk), and
// block 0's shuffled slots must be bit-exact with ShuffleResult under
// the same seed. Covers the B=1 and B=BatchCapacity edge cases.
func TestBatchedShuffleMatchesSingle(t *testing.T) {
	b := heclear.New(64, 65537)
	forest := model.Figure1()
	c := compileFigure1(t)
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	capacity := m.Meta.BatchCapacity()
	if capacity != 4 {
		t.Fatalf("capacity %d, want 4", capacity)
	}
	pool := [][]uint64{{0, 5}, {7, 0}, {3, 2}, {15, 15}, {0, 0}, {6, 9}}
	for _, size := range []int{1, 2, capacity} {
		for seed := uint64(1); seed <= 3; seed++ {
			batch := pool[:size]
			out := classifyBatchRaw(t, e, m, batch)
			shuffled, cbs, err := ShuffleResultBatch(b, &m.Meta, out, size, 0, seed, 2)
			if err != nil {
				t.Fatalf("size=%d seed=%d: %v", size, seed, err)
			}
			if len(cbs) != size {
				t.Fatalf("size=%d: %d codebooks", size, len(cbs))
			}
			slots, err := he.Reveal(b, shuffled)
			if err != nil {
				t.Fatal(err)
			}
			results, err := DecodeShuffledBatch(cbs, len(forest.Labels), slots, m.Meta.BatchBlock())
			if err != nil {
				t.Fatalf("size=%d seed=%d: %v", size, seed, err)
			}
			for k, feats := range batch {
				// Votes must match the plaintext walk...
				wantVotes := make([]int, len(forest.Labels))
				for _, lbl := range forest.Classify(feats) {
					wantVotes[lbl]++
				}
				for lbl, v := range results[k].Votes {
					if v != wantVotes[lbl] {
						t.Errorf("size=%d seed=%d block %d: votes %v, want %v", size, seed, k, results[k].Votes, wantVotes)
						break
					}
				}
				// ...and the single-query shuffle path, decoded.
				singleOut := classifyBatchRaw(t, e, m, [][]uint64{feats})
				sShuffled, sCb, err := ShuffleResult(b, &m.Meta, singleOut, 0, seed)
				if err != nil {
					t.Fatal(err)
				}
				sSlots, err := he.Reveal(b, sShuffled)
				if err != nil {
					t.Fatal(err)
				}
				sRes, err := DecodeShuffled(sCb, len(forest.Labels), sSlots)
				if err != nil {
					t.Fatal(err)
				}
				for lbl, v := range results[k].Votes {
					if v != sRes.Votes[lbl] {
						t.Errorf("size=%d seed=%d block %d: batched votes %v, single %v", size, seed, k, results[k].Votes, sRes.Votes)
						break
					}
				}
				if k == 0 {
					// Block 0 shares the single-query permutation stream:
					// its shuffled window is bit-exact with ShuffleResult.
					for i := 0; i < len(cbs[0].Slots); i++ {
						if slots[i] != sSlots[i] {
							t.Errorf("seed=%d: block-0 slot %d: batched %d, single %d", seed, i, slots[i], sSlots[i])
							break
						}
					}
				}
			}
		}
	}
}

// TestBatchedShuffleSelectorFollowsTheBatch: the batched shuffle pays the
// leaf-slot selector for the residue the batch's own program left. wide8
// has one level lane and four lane groups: its lone query ran over the
// groups and pays the product, its full batch ran the ungrouped program and
// pays none (same seed, so the same permutation diagonals either way).
// lanes4's four lanes leave residue at every batch: both pay it, and the
// votes would not survive the replicate without it.
func TestBatchedShuffleSelectorFollowsTheBatch(t *testing.T) {
	for _, tc := range []struct {
		name   string
		forest *model.Forest
		extra  int64 // plaintext products of a lone query's shuffle over a full batch's
	}{{"wide8", wide8Forest(t), 1}, {"lanes4", lanes4Forest(t), 0}} {
		c, err := Compile(tc.forest, Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		b := heclear.New(1024, 65537)
		m, err := Prepare(b, c, false)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(7, 7))
		products := map[int]int64{}
		for _, size := range []int{1, m.Meta.BatchCapacity()} {
			batch := make([][]uint64, size)
			for k := range batch {
				batch[k] = randomFeatures(rng, tc.forest.NumFeatures, tc.forest.Precision)
			}
			out := classifyBatchRaw(t, &Engine{Backend: b}, m, batch)
			counting := he.WithCounts(b)
			shuffled, cbs, err := ShuffleResultBatch(counting, &m.Meta, out, size, 0, 11, 1)
			if err != nil {
				t.Fatal(err)
			}
			products[size] = counting.Counts().ConstMul
			slots, _ := he.Reveal(b, shuffled)
			results, err := DecodeShuffledBatch(cbs, len(tc.forest.Labels), slots, m.Meta.BatchBlock())
			if err != nil {
				t.Fatalf("%s batch %d: %v", tc.name, size, err)
			}
			for k, feats := range batch {
				want := make([]int, len(tc.forest.Labels))
				for _, lbl := range tc.forest.Classify(feats) {
					want[lbl]++
				}
				if !slices.Equal(results[k].Votes, want) {
					t.Errorf("%s batch %d query %d: votes %v, want %v", tc.name, size, k, results[k].Votes, want)
				}
			}
		}
		lone, full := products[1], products[m.Meta.BatchCapacity()]
		if lone-full != tc.extra {
			t.Errorf("%s: the lone query's shuffle ran %d plaintext products, the full batch's %d, want %d apart", tc.name, lone, full, tc.extra)
		}
	}
}

// TestBatchedShuffleCodebookIndependence: every block must carry its own
// independently seeded permutation — distinct codebooks across blocks,
// deterministic per seed, different across seeds.
func TestBatchedShuffleCodebookIndependence(t *testing.T) {
	b := heclear.New(1024, 65537)
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	capacity := m.Meta.BatchCapacity() // 64
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{uint64(i % 16), uint64((i * 7) % 16)}
	}
	out := classifyBatchRaw(t, e, m, batch)

	// Padding tops out at SPad per block (8 here): 8! = 40320
	// permutations, and the fixed seed below draws 64 distinct ones.
	padTo := m.Meta.SPad()
	_, cbs, err := ShuffleResultBatch(b, &m.Meta, out, capacity, padTo, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := func(cb *ShuffledCodebook) string {
		s := make([]byte, len(cb.Slots))
		for i, v := range cb.Slots {
			s[i] = byte(v)
		}
		return string(s)
	}
	seen := map[string]int{}
	for k, cb := range cbs {
		if len(cb.Slots) != padTo {
			t.Fatalf("block %d codebook has %d slots", k, len(cb.Slots))
		}
		if prev, dup := seen[key(cb)]; dup {
			t.Errorf("blocks %d and %d share a codebook (cross-query linkage)", prev, k)
		}
		seen[key(cb)] = k
	}
	// Deterministic per seed, distinct across seeds.
	_, again, err := ShuffleResultBatch(b, &m.Meta, out, capacity, padTo, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, other, err := ShuffleResultBatch(b, &m.Meta, out, capacity, padTo, 43, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cbs {
		if key(again[k]) != key(cbs[k]) {
			t.Errorf("block %d: same seed produced a different codebook", k)
		}
		if key(other[k]) == key(cbs[k]) {
			t.Errorf("block %d: different seed reproduced the codebook", k)
		}
	}
}

func TestBatchedShuffleErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	c := compileFigure1(t)
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := he.NewPlain(b, make([]uint64, 64))
	if err != nil {
		t.Fatal(err)
	}
	capacity := m.Meta.BatchCapacity() // 4
	if _, _, err := ShuffleResultBatch(b, &m.Meta, zero, 0, 0, 1, 1); err == nil {
		t.Error("zero batch accepted")
	}
	if _, _, err := ShuffleResultBatch(b, &m.Meta, zero, capacity+1, 0, 1, 1); err == nil {
		t.Error("batch beyond capacity accepted")
	}
	if _, _, err := ShuffleResultBatch(b, &m.Meta, zero, 1, 3, 1, 1); err == nil {
		t.Error("padding below leaf count accepted")
	}
	// Block-local padding is bounded by SPad (8 for Figure 1): wider
	// permutations would read into the neighbouring query.
	if _, _, err := ShuffleResultBatch(b, &m.Meta, zero, 1, m.Meta.SPad()+1, 1, 1); err == nil {
		t.Error("padding beyond the block accepted")
	}
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

// TestBatchedShuffleSingleBlockLayout covers the degenerate capacity-1
// layout (2·SPad == slots): the batched path must behave exactly like
// the single-query one, including wide paddings past SPad.
func TestBatchedShuffleSingleBlockLayout(t *testing.T) {
	b := heclear.New(16, 65537)
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 16})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta.BatchCapacity() != 1 {
		t.Fatalf("capacity %d, want 1", m.Meta.BatchCapacity())
	}
	e := &Engine{Backend: b}
	out := classifyBatchRaw(t, e, m, [][]uint64{{0, 5}})
	for _, padTo := range []int{0, 10, 16} {
		shuffled, cbs, err := ShuffleResultBatch(b, &m.Meta, out, 1, padTo, 5, 1)
		if err != nil {
			t.Fatalf("padTo=%d: %v", padTo, err)
		}
		slots, err := he.Reveal(b, shuffled)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecodeShuffledBatch(cbs, len(forest.Labels), slots, m.Meta.BatchBlock())
		if err != nil {
			t.Fatalf("padTo=%d: %v", padTo, err)
		}
		if res[0].Votes[4] != 1 {
			t.Errorf("padTo=%d: votes %v, want one vote for L4", padTo, res[0].Votes)
		}
	}
}

// TestBatchedShufflePerfSmoke is the CI guardrail for the batched
// shuffle: one block-diagonal pass over a full batch must beat the
// sequential single-query shuffle loop on the clear backend (the
// batched kernel issues ~2·√P rotations once instead of per query).
// Gated behind COPSE_PERF_SMOKE=1 like the other wall-clock smokes.
func TestBatchedShufflePerfSmoke(t *testing.T) {
	if os.Getenv("COPSE_PERF_SMOKE") == "" {
		t.Skip("set COPSE_PERF_SMOKE=1 to run the batched-shuffle perf smoke")
	}
	b := heclear.New(1024, 65537)
	c, err := Compile(model.Figure1(), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	capacity := m.Meta.BatchCapacity()
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{uint64(i % 16), uint64(i / 16)}
	}
	batchOut := classifyBatchRaw(t, e, m, batch)
	singleOut := classifyBatchRaw(t, e, m, batch[:1])

	const reps = 5
	start := time.Now()
	for r := 0; r < reps; r++ {
		for q := 0; q < capacity; q++ {
			if _, _, err := ShuffleResult(b, &m.Meta, singleOut, 0, uint64(r*capacity+q+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	single := time.Since(start) / reps

	start = time.Now()
	for r := 0; r < reps; r++ {
		if _, _, err := ShuffleResultBatch(b, &m.Meta, batchOut, capacity, 0, uint64(r+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	batched := time.Since(start) / reps

	t.Logf("full batch (%d queries): single-query loop %v, batched pass %v (%.1fx)",
		capacity, single, batched, float64(single)/float64(batched))
	if batched >= single {
		t.Fatalf("batched shuffle (%v) is not faster than %d sequential single-query shuffles (%v)",
			batched, capacity, single)
	}
}

// TestBatchedShuffleBGVLeveledKeys runs the batched shuffle on real BGV
// ciphertexts with the full leveled staging: a PlanShuffle-compiled
// model, chain sized to the plan, Galois keys generated at the
// level budget Meta.RotationStepLevels emits — proving the leveled key
// set covers the block-diagonal kernel — and asserts the rotation bill
// of the whole batch stays within 2·√P+1.
func TestBatchedShuffleBGVLeveledKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("BGV batched shuffle is slow")
	}
	forest := model.Figure1()
	c, err := Compile(forest, Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := c.Meta.LevelPlan
	if plan == nil {
		t.Fatal("no level plan")
	}
	b, err := hebgv.New(hebgv.Config{
		Params:             bgv.TestParams(plan.ChainLevels(true)),
		RotationSteps:      c.Meta.RotationSteps,
		RotationStepLevels: c.Meta.RotationStepLevels(true),
		Seed:               17,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b, Workers: 4}
	capacity := m.Meta.BatchCapacity()
	rng := rand.New(rand.NewPCG(31, 7))
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = []uint64{rng.Uint64N(16), rng.Uint64N(16)}
	}
	out := classifyBatchRaw(t, e, m, batch)

	counting := he.WithCounts(b)
	shuffled, cbs, err := ShuffleResultBatch(counting, &m.Meta, out, capacity, 0, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	nPad := m.Meta.LPad()
	bound := int64(2*int(math.Sqrt(float64(nPad)))) + 1
	if rots := counting.Counts().Rotate; rots > bound {
		t.Errorf("batched shuffle of %d queries used %d rotations, bound 2·√%d+1 = %d", capacity, rots, nPad, bound)
	}
	budget, err := b.NoiseBudget(shuffled.Ct)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Fatalf("shuffled result noise budget %d", budget)
	}
	slots, err := he.Reveal(b, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	results, err := DecodeShuffledBatch(cbs, len(forest.Labels), slots, m.Meta.BatchBlock())
	if err != nil {
		t.Fatal(err)
	}
	for k, feats := range batch {
		wantVotes := make([]int, len(forest.Labels))
		for _, lbl := range forest.Classify(feats) {
			wantVotes[lbl]++
		}
		for lbl, v := range results[k].Votes {
			if v != wantVotes[lbl] {
				t.Errorf("block %d (%v): votes %v, want %v", k, feats, results[k].Votes, wantVotes)
				break
			}
		}
	}
}
