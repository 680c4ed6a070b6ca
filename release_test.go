package copse_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"copse"
	"copse/internal/he"
	"copse/internal/ring"
	"copse/internal/synth"
)

// TestUseAfterReleaseOracle serves the plane-packing oracle's BGV models
// — depth4, prec16, wide8 and its two shards — with the ring's
// use-after-release checks on (ring.SetPoolChecks): every row handed back
// to a pool is overwritten with a value above every modulus, and a row
// handed back twice panics. A register released before its last reader
// has read it, or a serving path that releases what something still
// reads, therefore shows up as a wrong label, a failed pass or a panic,
// and under -race as a race with the overwrite. Each model runs in the
// three ways a model and a query are staged, shuffled and not: the lone
// query and the full batch through the three-call API (the executor
// releases; the query and result stay the test's), then the lone query
// through ClassifyBatch, whose serving loop — on every other service the
// batcher — releases the query and the result it made. The services take
// Workers 1, 2 and 4 in turn.
func TestUseAfterReleaseOracle(t *testing.T) {
	ring.SetPoolChecks(true)
	defer ring.SetPoolChecks(false)
	turn := 0
	for _, pm := range packedModels(t) {
		if !pm.heavy && pm.name != "depth4" && pm.name != "prec16" {
			continue // the full suite's extra precisions and the clear-only model
		}
		for _, shuffle := range []bool{false, true} {
			c := pm.compiled[shuffle]
			for _, sc := range programScenarios[:3] {
				workers, batcher := []int{1, 2, 4}[turn%3], turn%2 == 1
				turn++
				t.Run(fmt.Sprintf("%s/shuffle=%v/%s/workers=%d", pm.name, shuffle, sc.name, workers), func(t *testing.T) {
					opts := []copse.Option{copse.WithBackend(copse.BackendBGV), copse.WithScenario(sc.scenario),
						copse.WithShuffle(shuffle), copse.WithWorkers(workers), copse.WithSeed(27)}
					if batcher {
						opts = append(opts, copse.WithBatchWindow(time.Millisecond))
					}
					svc := copse.NewService(opts...)
					defer svc.Close()
					if err := svc.Register("m", c); err != nil {
						t.Fatal(err)
					}
					for _, n := range []int{1, c.Meta.BatchCapacity()} {
						checkPackedBatch(t, svc, pm, &c.Meta, n, shuffle)
					}
					batch := randomBatch(pm.forest, 1, 99)
					results, err := svc.ClassifyBatch(context.Background(), "m", batch)
					if err != nil {
						t.Fatal(err)
					}
					want := pm.forest.Classify(batch[0])[pm.trees[0]:pm.trees[1]]
					votes := make([]int, len(pm.forest.Labels))
					for _, label := range want {
						votes[label]++
					}
					if !slices.Equal(results[0].Votes, votes) || !shuffle && !slices.Equal(results[0].PerTree, want) {
						t.Errorf("served %v: votes %v, trees %v; forest says %v, %v", batch[0], results[0].Votes, results[0].PerTree, votes, want)
					}
				})
			}
		}
	}
}

// TestPassAllocationBound holds a warm pass to the memory it keeps
// reusing: every register goes back to the ring's row pool at its last
// read, and every evaluator output is drawn from it, so once the pool has
// grown to a pass's peak a pass allocates only small bookkeeping. It runs
// the benchmark's two pass shapes — a lone prec16 query under Offload
// (single-compare) and a full depth4 batch against the plaintext model
// (batch-saturated) — and bounds each under 2 MB and no collection over
// ten passes. Before registers were released they allocated 51.9 and
// 34.4 MB a pass.
func TestPassAllocationBound(t *testing.T) {
	specs := map[string]synth.ForestSpec{}
	for _, mb := range synth.Microbenchmarks() {
		specs[mb.Name] = mb.Spec
	}
	for _, tc := range []struct {
		model    string
		scenario copse.Scenario
		full     bool
	}{
		{"prec16", copse.ScenarioOffload, false},
		{"depth4", copse.ScenarioServerModel, true},
	} {
		t.Run(tc.model, func(t *testing.T) {
			f := generateForest(t, specs[tc.model])
			c, err := copse.Compile(f, copse.CompileOptions{Slots: 1024})
			if err != nil {
				t.Fatal(err)
			}
			svc := copse.NewService(copse.WithBackend(copse.BackendBGV), copse.WithScenario(tc.scenario), copse.WithSeed(5))
			defer svc.Close()
			if err := svc.Register("m", c); err != nil {
				t.Fatal(err)
			}
			n := 1
			if tc.full {
				n = c.Meta.BatchCapacity()
			}
			q, err := svc.EncryptQueryBatch("m", randomBatch(f, n, 7))
			if err != nil {
				t.Fatal(err)
			}
			pass := func() {
				enc, _, err := svc.Classify(context.Background(), "m", q)
				if err != nil {
					t.Fatal(err)
				}
				op := enc.Operand()
				he.Release(op.Ct) // the result is the caller's to give back
			}
			for range 3 {
				pass()
			}
			const passes = 10
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			helpers := ring.HelpersStarted()
			for range passes {
				pass()
			}
			runtime.ReadMemStats(&after)
			perPass, gcs := (after.TotalAlloc-before.TotalAlloc)/passes, after.NumGC-before.NumGC
			t.Logf("%s, batch of %d: %.2f MB and %d allocations a pass, %d lent task sets joined by their helper a pass, %d collections over %d passes",
				tc.model, n, float64(perPass)/1e6, (after.Mallocs-before.Mallocs)/passes, (ring.HelpersStarted()-helpers)/passes, gcs, passes)
			if perPass >= 2e6 || gcs != 0 {
				t.Errorf("a warm pass allocates %.2f MB (bound 2 MB) and %d passes collected %d times (bound 0)",
					float64(perPass)/1e6, passes, gcs)
			}
		})
	}
}
