// Go benchmarks of the serving hot path and of the reference backend.
// The paper's tables and figures are rendered by copse-bench, and the
// repository's benchmark is ./bench.
package copse_test

import (
	"context"
	"runtime"
	"testing"

	"copse"
	"copse/internal/he"
	"copse/internal/he/heclear"
)

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
	svc := copse.NewService(
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(runtime.GOMAXPROCS(0)),
		copse.WithSeed(4),
	)
	defer svc.Close()
	if err := svc.Register("figure1", compiled); err != nil {
		b.Fatal(err)
	}
	query, err := svc.EncryptQuery("figure1", make([]uint64, compiled.Meta.NumFeatures))
	if err != nil {
		b.Fatal(err)
	}
	svc.Backend().ResetCounts()
	var trace *copse.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, trace, err = svc.Classify(context.Background(), "figure1", query); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	counts := svc.Backend().Counts()
	iters := int64(b.N)
	b.ReportMetric(float64(counts.Rotate/iters), "rotations/op")
	b.ReportMetric(float64(counts.RotateHoisted/iters), "hoisted-rot/op")
	b.ReportMetric(float64(counts.LimbOps/iters), "limb-ops/op")
	if trace != nil {
		b.ReportMetric(float64(trace.Limbs.Result), "result-limbs")
	}
}

// BenchmarkClearBackendOps: the reference backend's raw op cost, for
// calibrating the structural timings of the clear backend.
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
