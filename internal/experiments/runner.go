package experiments

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"copse"
	"copse/internal/baseline"
	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
)

// copseRunner owns one instantiated COPSE system for a benchmark case.
type copseRunner struct {
	cs  Case
	sys *copse.System
}

func newCopseRunner(cs Case, cfg Config, workers int, scenario copse.Scenario) (*copseRunner, error) {
	cfg = cfg.withDefaults()
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
	if err != nil {
		return nil, fmt.Errorf("experiments: compiling %s: %w", cs.Name, err)
	}
	kind, err := copse.ParseBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	sys, err := copse.NewSystem(compiled, copse.WithBackend(kind), copse.WithScenario(scenario),
		copse.WithWorkers(workers), copse.WithSeed(cfg.Seed+100))
	if err != nil {
		return nil, fmt.Errorf("experiments: system for %s: %w", cs.Name, err)
	}
	return &copseRunner{cs: cs, sys: sys}, nil
}

// close stops the system's service (its batcher goroutines, when the
// configuration has any).
func (r *copseRunner) close() {
	_ = r.sys.Service().Close()
}

// run executes `queries` random inference queries, returning the Classify
// wall times and stage traces. Every result is verified against the
// plaintext tree walk; a mismatch is an error (the harness doubles as an
// integration test).
func (r *copseRunner) run(queries int, seed uint64) ([]time.Duration, []*copse.Trace, error) {
	rng := rand.New(rand.NewPCG(seed, 0xf00d))
	var times []time.Duration
	var traces []*copse.Trace
	for qi := 0; qi < queries; qi++ {
		feats := randomFeatures(rng, r.cs.Forest.NumFeatures, r.cs.Forest.Precision)
		query, err := r.sys.Diane.EncryptQuery(feats)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		enc, trace, err := r.sys.Sally.Classify(query)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s query %d: %w", r.cs.Name, qi, err)
		}
		times = append(times, time.Since(start))
		traces = append(traces, trace)
		res, err := r.sys.Diane.DecryptResult(enc)
		if err != nil {
			return nil, nil, err
		}
		want := r.cs.Forest.Classify(feats)
		for ti := range want {
			if res.PerTree[ti] != want[ti] {
				return nil, nil, fmt.Errorf("experiments: %s query %d tree %d: secure %d != plaintext %d",
					r.cs.Name, qi, ti, res.PerTree[ti], want[ti])
			}
		}
	}
	return times, traces, nil
}

// baselineRunner owns one instantiated Aloufi-et-al. system.
type baselineRunner struct {
	cs      Case
	backend he.Backend
	model   *baseline.Model
	workers int
}

func newBaselineRunner(cs Case, cfg Config, workers int) (*baselineRunner, error) {
	cfg = cfg.withDefaults()
	var backend he.Backend
	switch cfg.Backend {
	case "clear":
		backend = heclear.New(cs.Slots, 65537)
	case "bgv":
		params, err := bgv.ParamsForSlots(cs.Slots, baselineLevels(cs))
		if err != nil {
			return nil, err
		}
		b, err := hebgv.New(hebgv.Config{Params: params, PowerOfTwoOnly: true, Seed: cfg.Seed + 7})
		if err != nil {
			return nil, err
		}
		backend = b
	default:
		return nil, fmt.Errorf("experiments: unknown backend %q", cfg.Backend)
	}
	m, err := baseline.Prepare(backend, cs.Forest, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline prepare %s: %w", cs.Name, err)
	}
	return &baselineRunner{cs: cs, backend: backend, model: m, workers: workers}, nil
}

// baselineLevels sizes the BGV chain for the baseline circuit: the
// comparison depth plus the log-depth path products.
func baselineLevels(cs Case) int {
	logp := log2Ceil(cs.Forest.Precision)
	logPath := log2Ceil(cs.Forest.Depth() + 2)
	return (logp + 2) + logPath + 1 + 4
}

func (r *baselineRunner) run(queries int, seed uint64) ([]time.Duration, error) {
	rng := rand.New(rand.NewPCG(seed, 0xbead))
	e := &baseline.Engine{Backend: r.backend, Workers: r.workers}
	var times []time.Duration
	for qi := 0; qi < queries; qi++ {
		feats := randomFeatures(rng, r.cs.Forest.NumFeatures, r.cs.Forest.Precision)
		query, err := baseline.PrepareQuery(r.backend, &r.model.Meta, feats, true)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		outs, err := e.Classify(r.model, query)
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s query %d: %w", r.cs.Name, qi, err)
		}
		times = append(times, time.Since(start))
		var perTree [][]uint64
		for _, op := range outs {
			slots, err := he.Reveal(r.backend, op)
			if err != nil {
				return nil, err
			}
			perTree = append(perTree, slots)
		}
		got, err := baseline.DecodeResult(&r.model.Meta, perTree)
		if err != nil {
			return nil, err
		}
		want := r.cs.Forest.Classify(feats)
		for ti := range want {
			if got[ti] != want[ti] {
				return nil, fmt.Errorf("experiments: baseline %s query %d tree %d: %d != %d",
					r.cs.Name, qi, ti, got[ti], want[ti])
			}
		}
	}
	return times, nil
}

func randomFeatures(r *rand.Rand, n, precision int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64N(1 << uint(precision))
	}
	return out
}

func log2Ceil(n int) int {
	d := 0
	for 1<<d < n {
		d++
	}
	return d
}

func defaultWorkers(cfg Config) int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}
