package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"time"

	"copse"
	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
)

// ShuffleBench is the machine-readable result-shuffle record emitted by
// copse-bench -shufflejson (BENCH_shuffle.json): per-query shuffle cost
// at B=1 versus one block-diagonal pass over the full batch, on the
// clear and BGV backends, with the rotation bill of the batched kernel
// checked against its 2·√P+1 budget — so successive PRs can diff the
// cost of leakage-hardened (shuffled) serving.
type ShuffleBench struct {
	Queries int           `json:"queries"`
	Seed    uint64        `json:"seed"`
	Cases   []ShuffleCase `json:"cases"`
}

// ShuffleCase is one model × backend record.
type ShuffleCase struct {
	Name     string `json:"name"`
	Backend  string `json:"backend"`
	Slots    int    `json:"slots"`
	Capacity int    `json:"batch_capacity"`
	// Period is the padded leaf count — the BSGS period of the
	// permutation kernel; RotationBound is its 2·√Period+1 budget.
	Period        int `json:"period"`
	RotationBound int `json:"rotation_bound"`

	// Single is one single-query shuffle (the per-query cost at B=1).
	Single ShufflePoint `json:"single"`
	// SingleLoop shuffles a full batch the pre-batching way: Capacity
	// sequential single-query ShuffleResult calls.
	SingleLoop ShufflePoint `json:"single_loop"`
	// Batched is one ShuffleResultBatch pass over the full batch.
	Batched ShufflePoint `json:"batched"`

	// PerQuerySpeedup is SingleLoop per-query cost over Batched
	// per-query cost at full batch.
	PerQuerySpeedup float64 `json:"per_query_speedup"`
}

// ShufflePoint is one configuration's cost.
type ShufflePoint struct {
	Queries    int     `json:"queries"`
	TotalMS    float64 `json:"total_ms"` // median over repetitions
	PerQueryMS float64 `json:"per_query_ms"`
	// Rotations is the Galois-rotation bill of one pass (for
	// SingleLoop: of the whole loop).
	Rotations int64 `json:"rotations"`
}

// WriteJSON writes the report, indented for diff-friendliness.
func (r *ShuffleBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ShuffleReport measures the result shuffle on every configured model,
// on both backends: it stages a PlanShuffle-compiled model (scheduled
// chain, leveled Galois keys on BGV — the batched kernel must run off
// the same key budget the compiler emitted), classifies one full batch
// and one single query, then times the single-query shuffle, the
// sequential single-query loop over the batch, and the batched
// block-diagonal pass. Every shuffled result is decoded through its
// codebook and verified against the plaintext walk.
func ShuffleReport(cfg Config) (*ShuffleBench, error) {
	cfg = cfg.withDefaults()
	cases, err := AllCases(cfg)
	if err != nil {
		return nil, err
	}
	report := &ShuffleBench{Queries: cfg.Queries, Seed: cfg.Seed}
	for _, cs := range cases {
		for _, backend := range []string{"clear", "bgv"} {
			sc, err := shuffleCase(cs, backend, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: shuffle %s/%s: %w", cs.Name, backend, err)
			}
			report.Cases = append(report.Cases, sc)
		}
	}
	return report, nil
}

func shuffleBackend(cs Case, backend string, meta *core.Meta, seed uint64) (he.Backend, error) {
	switch backend {
	case "clear":
		return heclear.New(cs.Slots, 65537), nil
	case "bgv":
		plan := meta.LevelPlan
		if plan == nil {
			return nil, fmt.Errorf("no level plan (PlanShuffle compile failed?)")
		}
		levels := plan.ChainLevels(true)
		var params bgv.Params
		switch cs.Slots {
		case 1024:
			params = bgv.TestParams(levels)
		case 2048:
			params = bgv.DemoParams(levels)
		default:
			return nil, fmt.Errorf("no BGV preset for %d slots", cs.Slots)
		}
		return hebgv.New(hebgv.Config{
			Params:             params,
			RotationSteps:      meta.RotationSteps,
			RotationStepLevels: meta.RotationStepLevels(true),
			Seed:               seed,
		})
	}
	return nil, fmt.Errorf("unknown backend %q", backend)
}

func shuffleCase(cs Case, backend string, cfg Config) (ShuffleCase, error) {
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots, PlanShuffle: true})
	if err != nil {
		return ShuffleCase{}, err
	}
	b, err := shuffleBackend(cs, backend, &compiled.Meta, cfg.Seed+200)
	if err != nil {
		return ShuffleCase{}, err
	}
	m, err := core.Prepare(b, compiled, true)
	if err != nil {
		return ShuffleCase{}, err
	}
	e := &core.Engine{Backend: b, Workers: defaultWorkers(cfg)}
	meta := &m.Meta
	capacity := meta.BatchCapacity()
	nPad := meta.LPad()
	sc := ShuffleCase{
		Name:          cs.Name,
		Backend:       backend,
		Slots:         cs.Slots,
		Capacity:      capacity,
		Period:        nPad,
		RotationBound: 2*int(math.Sqrt(float64(nPad))) + 1,
	}

	// One full batch and one single query, classified outside the timed
	// windows (the shuffle is the unit under measurement).
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5f))
	limit := uint64(1) << uint(cs.Forest.Precision)
	batch := make([][]uint64, capacity)
	for i := range batch {
		batch[i] = make([]uint64, cs.Forest.NumFeatures)
		for j := range batch[i] {
			batch[i][j] = rng.Uint64N(limit)
		}
	}
	classify := func(qs [][]uint64) (he.Operand, error) {
		q, err := core.PrepareQueryBatch(b, meta, qs, true)
		if err != nil {
			return he.Operand{}, err
		}
		out, _, err := e.Classify(m, q)
		return out, err
	}
	batchOut, err := classify(batch)
	if err != nil {
		return ShuffleCase{}, err
	}
	singleOut, err := classify(batch[:1])
	if err != nil {
		return ShuffleCase{}, err
	}

	reps := 3
	if backend == "clear" {
		reps = 9
	}

	// B=1: one single-query shuffle per pass.
	singles := make([]time.Duration, reps)
	counting := he.WithCounts(b)
	for r := range singles {
		start := time.Now()
		if _, _, err := core.ShuffleResult(counting, meta, singleOut, 0, cfg.Seed+uint64(r)+1); err != nil {
			return ShuffleCase{}, err
		}
		singles[r] = time.Since(start)
	}
	singleRots := counting.Counts().Rotate / int64(reps)
	ms := medianMS(singles)
	sc.Single = ShufflePoint{Queries: 1, TotalMS: ms, PerQueryMS: ms, Rotations: singleRots}

	// B=max, the pre-batching way: capacity sequential single shuffles.
	loops := make([]time.Duration, reps)
	counting = he.WithCounts(b)
	for r := range loops {
		start := time.Now()
		for q := 0; q < capacity; q++ {
			if _, _, err := core.ShuffleResult(counting, meta, singleOut, 0, cfg.Seed+uint64(r*capacity+q)+1); err != nil {
				return ShuffleCase{}, err
			}
		}
		loops[r] = time.Since(start)
	}
	ms = medianMS(loops)
	sc.SingleLoop = ShufflePoint{
		Queries:    capacity,
		TotalMS:    ms,
		PerQueryMS: ms / float64(capacity),
		Rotations:  counting.Counts().Rotate / int64(reps),
	}

	// B=max, batched: one block-diagonal pass shuffles every query. The
	// kernel runs with workers=1 so the comparison isolates the batching
	// win — the single-query loop above is serial too (thread
	// parallelism is §9's axis, not this record's).
	batches := make([]time.Duration, reps)
	counting = he.WithCounts(b)
	var shuffled he.Operand
	var cbs []*core.ShuffledCodebook
	for r := range batches {
		start := time.Now()
		shuffled, cbs, err = core.ShuffleResultBatch(counting, meta, batchOut, capacity, 0, cfg.Seed+uint64(r)+1, 1)
		if err != nil {
			return ShuffleCase{}, err
		}
		batches[r] = time.Since(start)
	}
	batchedRots := counting.Counts().Rotate / int64(reps)
	if batchedRots > int64(sc.RotationBound) {
		return ShuffleCase{}, fmt.Errorf("batched shuffle used %d rotations, budget 2·√%d+1 = %d", batchedRots, nPad, sc.RotationBound)
	}
	ms = medianMS(batches)
	sc.Batched = ShufflePoint{
		Queries:    capacity,
		TotalMS:    ms,
		PerQueryMS: ms / float64(capacity),
		Rotations:  batchedRots,
	}
	if sc.Batched.PerQueryMS > 0 {
		sc.PerQuerySpeedup = sc.SingleLoop.PerQueryMS / sc.Batched.PerQueryMS
	}

	// Verify the last batched pass end to end (the harness doubles as an
	// integration test).
	slots, err := he.Reveal(b, shuffled)
	if err != nil {
		return ShuffleCase{}, err
	}
	results, err := core.DecodeShuffledBatch(cbs, len(cs.Forest.Labels), slots, meta.BatchBlock())
	if err != nil {
		return ShuffleCase{}, err
	}
	for k, feats := range batch {
		wantVotes := make([]int, len(cs.Forest.Labels))
		for _, lbl := range cs.Forest.Classify(feats) {
			wantVotes[lbl]++
		}
		for lbl, v := range results[k].Votes {
			if v != wantVotes[lbl] {
				return ShuffleCase{}, fmt.Errorf("batch entry %d: votes %v, want %v", k, results[k].Votes, wantVotes)
			}
		}
	}
	return sc, nil
}
