package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"copse"
	"copse/internal/baseline"
	"copse/internal/he"
)

// A side is one of the two systems a figure compares, opened on one case.
// classify answers one query with its per-tree labels and the time the
// answer took, encryption and decryption left out.
type side interface {
	classify(feats []uint64) ([]int, time.Duration, error)
	close()
}

// An opener opens one side of a comparison on a case.
type opener func(Case) (side, error)

// copseSide serves a case on a COPSE service under the case's name; trace
// is the stage trace of its last pass.
type copseSide struct {
	cs    Case
	svc   *copse.Service
	trace *copse.Trace
}

func newCopseSide(cs Case, cfg Config, workers int, scenario copse.Scenario) (*copseSide, error) {
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
	if err != nil {
		return nil, fmt.Errorf("experiments: compiling %s: %w", cs.Name, err)
	}
	kind, err := copse.ParseBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	svc := copse.NewService(copse.WithBackend(kind), copse.WithScenario(scenario),
		copse.WithWorkers(workers), copse.WithSeed(cfg.Seed+100))
	if err := svc.Register(cs.Name, compiled); err != nil {
		_ = svc.Close()
		return nil, fmt.Errorf("experiments: service for %s: %w", cs.Name, err)
	}
	return &copseSide{cs: cs, svc: svc}, nil
}

// openCopse opens a COPSE side of the given workers and scenario.
func openCopse(cfg Config, workers int, scenario copse.Scenario) opener {
	return func(cs Case) (side, error) { return newCopseSide(cs, cfg, workers, scenario) }
}

func (s *copseSide) classify(feats []uint64) ([]int, time.Duration, error) {
	query, err := s.svc.EncryptQuery(s.cs.Name, feats)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	enc, trace, err := s.svc.Classify(context.Background(), s.cs.Name, query)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	s.trace = trace
	res, err := s.svc.DecryptResult(s.cs.Name, enc)
	if err != nil {
		return nil, 0, err
	}
	return res.PerTree, took, nil
}

func (s *copseSide) close() { _ = s.svc.Close() }

// baselineSide is one instantiated Aloufi-et-al. system.
type baselineSide struct {
	model   *baseline.Model
	workers int
}

// openBaseline opens a baseline side of the given workers.
func openBaseline(cfg Config, workers int) opener {
	return func(cs Case) (side, error) {
		m, err := baseline.Prepare(cs.Forest, cs.Slots, cfg.Backend, cfg.Seed+7)
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline prepare %s: %w", cs.Name, err)
		}
		return &baselineSide{model: m, workers: workers}, nil
	}
}

func (s *baselineSide) classify(feats []uint64) ([]int, time.Duration, error) {
	query, err := baseline.PrepareQuery(s.model.Backend, &s.model.Meta, feats)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	out, _, err := baseline.Classify(context.Background(), s.model, query, s.workers)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	slots, err := he.Reveal(s.model.Backend, out)
	if err != nil {
		return nil, 0, err
	}
	labels, err := baseline.DecodeResult(&s.model.Meta, slots)
	return labels, took, err
}

func (s *baselineSide) close() {}

// answer has side s, named name, classify query q of case cs and checks
// its labels against the plaintext tree walk: the harness doubles as an
// integration test. Query 0 is a round's warm-up.
func answer(s side, name string, cs Case, q int, feats []uint64) (time.Duration, error) {
	got, took, err := s.classify(feats)
	if want := cs.Forest.Classify(feats); err == nil && !slices.Equal(got, want) {
		err = fmt.Errorf("labels %v, plaintext walk %v", got, want)
	}
	if err != nil {
		return 0, fmt.Errorf("experiments: %s on %s, query %d: %w", name, cs.Name, q, err)
	}
	return took, nil
}

// queryStream draws the feature vectors of a case's queries, the same
// for every side and every figure under one seed.
func queryStream(cfg Config, cs Case) func() []uint64 {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf00d))
	return func() []uint64 {
		out := make([]uint64, cs.Forest.NumFeatures)
		for i := range out {
			out[i] = rng.Uint64N(1 << uint(cs.Forest.Precision))
		}
		return out
	}
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
