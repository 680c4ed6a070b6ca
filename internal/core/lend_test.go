package core

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he/hebgv"
	"copse/internal/ring"
)

// TestOnlyParallelPassesLend holds the lending rule (ring.Run): only a
// pass worker waiting with nothing ready lends its slot, so key
// generation, Prepare, set encryption and a one-worker pass — the paper's
// single-threaded columns — start no helper, and a two-worker pass on two
// cores does.
func TestOnlyParallelPassesLend(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f := microForest(t, "depth4")
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedConfigs[0]
	before := ring.HelpersStarted()
	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.ChainLevels(cfg.encModel)), Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(47, 1))
	batch := make([][]uint64, c.Meta.BatchCapacity())
	for i := range batch {
		batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
	}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
	if err != nil {
		t.Fatal(err)
	}
	if started := ring.HelpersStarted() - before; started != 0 {
		t.Errorf("key generation, Prepare and set encryption started %d helpers", started)
	}
	classify := func(workers int) int64 {
		before := ring.HelpersStarted()
		out, cbs, _, err := (&Engine{Backend: b, Workers: workers}).Classify(context.Background(), m, q, 47)
		if err != nil {
			t.Fatal(err)
		}
		checkVotes(t, b, f, m, out, cbs, batch, 0)
		return ring.HelpersStarted() - before
	}
	if started := classify(1); started != 0 {
		t.Errorf("a one-worker pass started %d helpers", started)
	}
	var started int64
	for try := 0; try < 3 && started == 0; try++ {
		started = classify(2)
	}
	if started == 0 {
		t.Error("no two-worker pass on two cores started a helper")
	}
	t.Logf("a two-worker pass started %d helpers", started)
}
