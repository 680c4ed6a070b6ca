// Benchmarks regenerating the paper's evaluation (§8): one benchmark per
// table and figure. The clear backend is used for the scaling figures
// (its timing tracks the operation structure; see DESIGN.md §5), and
// real BGV ciphertexts for the absolute-cost benchmarks. The
// copse-bench command runs the same harness with the paper's full query
// counts and renders the tables.
package copse_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"copse"
	"copse/internal/baseline"
	"copse/internal/experiments"
	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// benchCfg shrinks the real-world models so the full suite stays
// laptop-sized; copse-bench -scale 1 runs the paper-sized ones.
var benchCfg = experiments.Config{Backend: "clear", Queries: 3, Seed: 1, RealWorldScale: 0.25}

var caseOnce = sync.OnceValues(func() ([]experiments.Case, error) {
	return experiments.AllCases(benchCfg)
})

func benchCases(b *testing.B) []experiments.Case {
	b.Helper()
	cases, err := caseOnce()
	if err != nil {
		b.Fatal(err)
	}
	return cases
}

// copseSystem builds (and caches per call-site) a COPSE system for a case.
func copseSystem(b *testing.B, cs experiments.Case, workers int, scenario copse.Scenario) *copse.System {
	b.Helper()
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := copse.NewSystem(compiled,
		copse.WithBackend(copse.BackendClear),
		copse.WithScenario(scenario),
		copse.WithWorkers(workers),
	)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchQueries runs one encrypted query per iteration.
func benchQueries(b *testing.B, sys *copse.System, forest *model.Forest) *copse.Trace {
	b.Helper()
	query, err := sys.Diane.EncryptQuery(make([]uint64, forest.NumFeatures))
	if err != nil {
		b.Fatal(err)
	}
	var last *copse.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, trace, err := sys.Sally.Classify(query)
		if err != nil {
			b.Fatal(err)
		}
		last = trace
	}
	b.StopTimer()
	return last
}

func benchBaselineQueries(b *testing.B, cs experiments.Case, workers int) {
	b.Helper()
	m, err := baseline.Prepare(cs.Forest, cs.Slots, "clear", 0)
	if err != nil {
		b.Fatal(err)
	}
	query, err := baseline.PrepareQuery(m.Backend, &m.Meta, make([]uint64, cs.Forest.NumFeatures))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.Classify(context.Background(), m, query, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SingleThread: COPSE vs the Aloufi et al. baseline, both
// single-threaded, across the model suite (paper Figure 6: 5–7×).
func BenchmarkFig6SingleThread(b *testing.B) {
	for _, cs := range benchCases(b) {
		b.Run("copse/"+cs.Name, func(b *testing.B) {
			sys := copseSystem(b, cs, 1, copse.ScenarioOffload)
			benchQueries(b, sys, cs.Forest)
		})
		b.Run("baseline/"+cs.Name, func(b *testing.B) {
			benchBaselineQueries(b, cs, 1)
		})
	}
}

// BenchmarkFig7Multithread: COPSE single- vs multi-threaded
// (paper Figure 7: ~2.5× micro, ~5× real-world).
func BenchmarkFig7Multithread(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, cs := range benchCases(b) {
		b.Run("threads=1/"+cs.Name, func(b *testing.B) {
			sys := copseSystem(b, cs, 1, copse.ScenarioOffload)
			benchQueries(b, sys, cs.Forest)
		})
		b.Run(fmt.Sprintf("threads=%d/%s", workers, cs.Name), func(b *testing.B) {
			sys := copseSystem(b, cs, workers, copse.ScenarioOffload)
			benchQueries(b, sys, cs.Forest)
		})
	}
}

// BenchmarkFig8MultithreadVsBaseline: both systems multithreaded
// (paper Figure 8).
func BenchmarkFig8MultithreadVsBaseline(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, cs := range benchCases(b) {
		b.Run("copse/"+cs.Name, func(b *testing.B) {
			sys := copseSystem(b, cs, workers, copse.ScenarioOffload)
			benchQueries(b, sys, cs.Forest)
		})
		b.Run("baseline/"+cs.Name, func(b *testing.B) {
			benchBaselineQueries(b, cs, workers)
		})
	}
}

// BenchmarkFig9PlaintextModel: encrypted-model (M=D) vs plaintext-model
// (M=S) configurations (paper Figure 9: ~1.4×).
func BenchmarkFig9PlaintextModel(b *testing.B) {
	for _, cs := range benchCases(b) {
		b.Run("encrypted/"+cs.Name, func(b *testing.B) {
			sys := copseSystem(b, cs, 1, copse.ScenarioOffload)
			benchQueries(b, sys, cs.Forest)
		})
		b.Run("plaintext/"+cs.Name, func(b *testing.B) {
			sys := copseSystem(b, cs, 1, copse.ScenarioServerModel)
			benchQueries(b, sys, cs.Forest)
		})
	}
}

// fig10 runs the named microbenchmarks, reporting per-stage times as
// custom metrics (paper Figure 10 breakdowns).
func fig10(b *testing.B, names []string) {
	cases := benchCases(b)
	byName := map[string]experiments.Case{}
	for _, cs := range cases {
		byName[cs.Name] = cs
	}
	for _, name := range names {
		cs, ok := byName[name]
		if !ok {
			b.Fatalf("no case %q", name)
		}
		b.Run(name, func(b *testing.B) {
			sys := copseSystem(b, cs, 1, copse.ScenarioOffload)
			trace := benchQueries(b, sys, cs.Forest)
			if trace != nil {
				msPer := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
				b.ReportMetric(msPer(trace.Compare), "compare-ms")
				b.ReportMetric(msPer(trace.Reshuffle), "reshuffle-ms")
				b.ReportMetric(msPer(trace.Levels), "levels-ms")
				b.ReportMetric(msPer(trace.Accumulate), "accumulate-ms")
			}
		})
	}
}

// BenchmarkFig10aDepth: stage times vs maximum depth (paper Figure 10a).
func BenchmarkFig10aDepth(b *testing.B) { fig10(b, []string{"depth4", "depth5", "depth6"}) }

// BenchmarkFig10bBranches: stage times vs branch count (paper Figure 10b).
func BenchmarkFig10bBranches(b *testing.B) { fig10(b, []string{"width55", "width78", "width677"}) }

// BenchmarkFig10cPrecision: stage times vs precision (paper Figure 10c).
func BenchmarkFig10cPrecision(b *testing.B) { fig10(b, []string{"prec8", "prec16"}) }

// BenchmarkTable1OpCounts: per-stage operation counts as metrics
// (paper Table 1); the analytic comparison is in copse-bench -exp table1.
func BenchmarkTable1OpCounts(b *testing.B) {
	cases := benchCases(b)
	for _, cs := range cases {
		if cs.Name != "width78" {
			continue
		}
		sys := copseSystem(b, cs, 1, copse.ScenarioOffload)
		trace := benchQueries(b, sys, cs.Forest)
		if trace != nil {
			b.ReportMetric(float64(trace.CompareOps.Mul), "compare-muls")
			b.ReportMetric(float64(trace.LevelOps.Mul), "level-muls")
			b.ReportMetric(float64(trace.LevelOps.Rotate), "level-rotates")
			b.ReportMetric(float64(trace.AccumulateOps.Mul), "accumulate-muls")
		}
	}
}

// BenchmarkTable2TotalComplexity: total multiplicative depth and op
// counts (paper Table 2).
func BenchmarkTable2TotalComplexity(b *testing.B) {
	cases := benchCases(b)
	for _, cs := range cases {
		if cs.Name != "width78" {
			continue
		}
		sys := copseSystem(b, cs, 1, copse.ScenarioOffload)
		sys.Backend().ResetCounts()
		benchQueries(b, sys, cs.Forest)
		counts := sys.Backend().Counts()
		b.ReportMetric(float64(counts.MaxDepth), "mult-depth")
	}
}

// BenchmarkTable5ParamSweep: BGV chain-length sweep on the smallest
// micro model (paper Table 5's encryption-parameter study).
func BenchmarkTable5ParamSweep(b *testing.B) {
	forest, err := synth.Generate(synth.Microbenchmarks()[0].Spec)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := copse.Compile(forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		b.Fatal(err)
	}
	for _, levels := range []int{compiled.Meta.RecommendedLevels, compiled.Meta.RecommendedLevels + 2} {
		b.Run(fmt.Sprintf("levels=%d", levels), func(b *testing.B) {
			sys, err := copse.NewSystem(compiled,
				copse.WithBackend(copse.BackendBGV),
				copse.WithScenario(copse.ScenarioOffload),
				copse.WithLevels(levels),
				copse.WithWorkers(runtime.GOMAXPROCS(0)),
				copse.WithSeed(9),
			)
			if err != nil {
				b.Fatal(err)
			}
			benchQueries(b, sys, forest)
		})
	}
}

// BenchmarkTable6Generate: microbenchmark model generation (Table 6).
func BenchmarkTable6Generate(b *testing.B) {
	specs := synth.Microbenchmarks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mb := range specs {
			if _, err := synth.Generate(mb.Spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClassify: the BGV hot path end to end — the op-program
// executor under the model's level plan, on a chain sized to it, with the
// rotation, hoisting and limb-op counts per query. It reports
// allocations: a warm pass draws every polynomial from the ring's row
// pool, so B/op is the result each iteration keeps and small bookkeeping.
func BenchmarkClassify(b *testing.B) {
	b.ReportAllocs()
	compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := copse.NewSystem(compiled,
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(runtime.GOMAXPROCS(0)),
		copse.WithSeed(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	sys.Backend().ResetCounts()
	trace := benchQueries(b, sys, copse.ExampleForest())
	counts := sys.Backend().Counts()
	iters := int64(b.N)
	b.ReportMetric(float64(counts.Rotate/iters), "rotations/op")
	b.ReportMetric(float64(counts.RotateHoisted/iters), "hoisted-rot/op")
	b.ReportMetric(float64(counts.LimbOps/iters), "limb-ops/op")
	if trace != nil {
		b.ReportMetric(float64(trace.Limbs.Result), "result-limbs")
	}
}

// BenchmarkBGVInference: the quickstart model end to end on real BGV
// ciphertexts — the repository's absolute-cost reference number.
func BenchmarkBGVInference(b *testing.B) {
	compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
	if err != nil {
		b.Fatal(err)
	}
	sys, err := copse.NewSystem(compiled,
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(runtime.GOMAXPROCS(0)),
		copse.WithSeed(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	benchQueries(b, sys, copse.ExampleForest())
}

// BenchmarkClearBackendOps: the reference backend's raw op cost, for
// calibrating the structural timings above.
func BenchmarkClearBackendOps(b *testing.B) {
	backend := heclear.New(1024, 65537)
	x, err := backend.Encrypt(make([]uint64, 1024))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := backend.Mul(x, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rotate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := backend.Rotate(x, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
	var _ he.Backend = backend
}
