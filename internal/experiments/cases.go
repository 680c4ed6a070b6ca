// Package experiments implements the reproduction harness behind
// `copse-bench`: one runner per table and figure of the paper's
// evaluation section (§8). Tables 1, 2 and 5 read what the compiler knows
// — a program's bill, a plan's chain — and run no pass; Figures 6–9 are
// one routine comparing two sides query by query. Performance tracking is
// a separate harness, `go run ./bench`.
package experiments

import (
	"fmt"
	"slices"

	"copse/internal/model"
	"copse/internal/synth"
	"copse/internal/train"
)

// Case is one benchmark model.
type Case struct {
	Name      string
	Forest    *model.Forest
	Slots     int
	RealWorld bool
}

// Config controls a harness run.
type Config struct {
	// Backend: "clear" (noise-free reference; default) or "bgv" (real
	// ciphertexts; slow in pure Go — used for the micro models).
	Backend string
	// Queries per model; the paper uses 27 and reports medians.
	Queries int
	// Workers for the multithreaded runs; 0 means GOMAXPROCS.
	Workers int
	// Seed drives model generation, training and query sampling.
	Seed uint64
	// RealWorldScale shrinks the trained models when < 1 (their size is
	// otherwise tuned to the paper's, which is slow on the BGV backend).
	RealWorldScale float64
	// Models, when non-empty, restricts the suite to the named cases.
	Models []string
}

// filterCases applies cfg.Models, in place.
func filterCases(cfg Config, cases []Case) []Case {
	return slices.DeleteFunc(cases, func(c Case) bool { return len(cfg.Models) > 0 && !slices.Contains(cfg.Models, c.Name) })
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "clear"
	}
	if c.Queries == 0 {
		c.Queries = 27
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RealWorldScale == 0 {
		c.RealWorldScale = 1
	}
	return c
}

// MicroCases generates the eight Table 6 microbenchmark models.
func MicroCases() ([]Case, error) {
	var out []Case
	for _, mb := range synth.Microbenchmarks() {
		f, err := synth.Generate(mb.Spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: generating %s: %w", mb.Name, err)
		}
		out = append(out, Case{Name: mb.Name, Forest: f, Slots: 1024})
	}
	return out, nil
}

// RealWorldCases trains the soccer5/income5/soccer15/income15 models of
// §8.1 on the synthetic dataset stand-ins.
func RealWorldCases(cfg Config) ([]Case, error) {
	cfg = cfg.withDefaults()
	rows := int(3000 * cfg.RealWorldScale)
	if rows < 200 {
		rows = 200
	}
	maxDepth := 7
	minLeaf := max(int(float64(rows)*0.008), 4)
	type spec struct {
		name  string
		ds    *synth.Dataset
		trees int
	}
	specs := []spec{
		{"soccer5", synth.Soccer(rows, cfg.Seed), 5},
		{"income5", synth.Income(rows, cfg.Seed), 5},
		{"soccer15", synth.Soccer(rows, cfg.Seed+1), 15},
		{"income15", synth.Income(rows, cfg.Seed+1), 15},
	}
	var out []Case
	for _, s := range specs {
		tm, err := train.Fit(s.ds.X, s.ds.Y, s.ds.Labels, train.Config{
			NumTrees:  s.trees,
			MaxDepth:  maxDepth,
			MinLeaf:   minLeaf,
			Precision: 8,
			Seed:      cfg.Seed + 17,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: training %s: %w", s.name, err)
		}
		slots := 1024
		if q := tm.Forest.QuantizedBranching(); q > 512 || tm.Forest.Branches() > 512 || tm.Forest.Leaves() > 1024 {
			slots = 2048
		}
		out = append(out, Case{Name: s.name, Forest: tm.Forest, Slots: slots, RealWorld: true})
	}
	return out, nil
}

// AllCases returns micro + real-world cases, the paper's full suite,
// restricted by cfg.Models when set.
func AllCases(cfg Config) ([]Case, error) {
	micro, err := MicroCases()
	if err != nil {
		return nil, err
	}
	// Skip the (training-heavy) real-world cases when the filter keeps
	// none of them.
	all := micro
	needRW := len(cfg.Models) == 0
	for _, m := range cfg.Models {
		switch m {
		case "soccer5", "income5", "soccer15", "income15":
			needRW = true
		}
	}
	if needRW {
		rw, err := RealWorldCases(cfg)
		if err != nil {
			return nil, err
		}
		all = append(all, rw...)
	}
	return filterCases(cfg, all), nil
}
