package copse_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"copse"
)

// TestLevelPlanPerfSmoke is the CI guardrail for static level
// scheduling: the scheduled BGV classify path must beat the reactive one
// (the same model compiled with CompileOptions.NoLevelPlan) on the
// example model. It is a coarse A/B wall-clock
// check — the scheduled path runs a shorter modulus chain and ~2× fewer
// limb·ops, so a regression to parity means the plan stopped being
// applied. The reactive side aligns operands inside the backend, one
// rounding per move since those became single multi-prime calls, which
// narrowed the gap from 2.9× to 2.4× on the 2-core reference; parity
// is still the threshold. Gated behind COPSE_PERF_SMOKE=1 so ordinary test runs (and
// -race, where timing is meaningless) skip it.
func TestLevelPlanPerfSmoke(t *testing.T) {
	if os.Getenv("COPSE_PERF_SMOKE") == "" {
		t.Skip("set COPSE_PERF_SMOKE=1 to run the level-plan perf smoke")
	}
	const queries = 3
	run := func(noPlan bool) time.Duration {
		compiled, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024, NoLevelPlan: noPlan})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := copse.NewSystem(compiled,
			copse.WithBackend(copse.BackendBGV),
			copse.WithScenario(copse.ScenarioOffload),
			copse.WithWorkers(runtime.GOMAXPROCS(0)),
			copse.WithSeed(4),
		)
		if err != nil {
			t.Fatal(err)
		}
		query, err := sys.Diane.EncryptQuery([]uint64{3, 5})
		if err != nil {
			t.Fatal(err)
		}
		// One warm-up pass (pools, lift caches), then timed queries.
		if _, _, err := sys.Sally.Classify(query); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < queries; i++ {
			enc, _, err := sys.Sally.Classify(query)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Diane.DecryptResult(enc); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / queries
	}
	reactive := run(true)
	planned := run(false)
	t.Logf("planned %v/query vs reactive %v/query (%.2fx)", planned, reactive, float64(reactive)/float64(planned))
	if planned >= reactive {
		t.Fatalf("level-scheduled classify (%v) is not faster than reactive (%v)", planned, reactive)
	}
}
