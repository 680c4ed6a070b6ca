package experiments

import (
	"fmt"
	"time"

	"copse"
)

// comparison is one of Figures 6–9: two sides opened on every case of the
// suite, the first the one the paper reports faster, and the paper's
// note. The speedup is the second side's median over the first's.
type comparison struct {
	title string
	names [2]string
	open  [2]opener
	note  string
}

// Fig6 reproduces Figure 6: single-threaded COPSE vs the Aloufi et al.
// baseline across the full model suite. The paper reports 5–7× with a
// geometric mean near 6×.
func Fig6(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return comparison{
		title: "Figure 6: COPSE vs Aloufi et al., both single-threaded",
		names: [2]string{"copse", "baseline"},
		open:  [2]opener{openCopse(cfg, 1, copse.ScenarioOffload), openBaseline(cfg, 1)},
		note:  "paper: 5-7x speedups, geomean ~6x (Fig 6)",
	}.suite(cfg)
}

// Fig7 reproduces Figure 7: multithreaded COPSE vs single-threaded
// COPSE. The paper reports ~2.5× on micro models and ~5× on the larger
// real-world models.
func Fig7(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	workers := defaultWorkers(cfg)
	return comparison{
		title: fmt.Sprintf("Figure 7: COPSE multithreaded (%d workers) vs single-threaded", workers),
		names: [2]string{"multi", "1-thread"},
		open:  [2]opener{openCopse(cfg, workers, copse.ScenarioOffload), openCopse(cfg, 1, copse.ScenarioOffload)},
		note:  "paper: ~2.5x on micro models, ~5x on real-world models (Fig 7)",
	}.suite(cfg)
}

// Fig8 reproduces Figure 8: COPSE vs the baseline with both
// multithreaded. The paper's speedups here are smaller than Figure 6's
// because packing already consumed parallel work COPSE would otherwise
// give to threads.
func Fig8(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	workers := defaultWorkers(cfg)
	return comparison{
		title: fmt.Sprintf("Figure 8: COPSE vs Aloufi et al., both multithreaded (%d workers)", workers),
		names: [2]string{"copse", "baseline"},
		open:  [2]opener{openCopse(cfg, workers, copse.ScenarioOffload), openBaseline(cfg, workers)},
		note:  "paper: smaller speedups than Fig 6 — ciphertext packing already consumed parallel work (Fig 8)",
	}.suite(cfg)
}

// Fig9 reproduces Figure 9: inference on plaintext models (server owns
// the model, M=S) vs encrypted models (M=D). The paper reports ~1.4×.
func Fig9(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	return comparison{
		title: "Figure 9: plaintext model (M=S) vs encrypted model (M=D), single-threaded",
		names: [2]string{"plain-model", "enc-model"},
		open:  [2]opener{openCopse(cfg, 1, copse.ScenarioServerModel), openCopse(cfg, 1, copse.ScenarioOffload)},
		note:  "paper: ~1.4x from plaintext models (Fig 9)",
	}.suite(cfg)
}

// suite runs the comparison over the cases cfg selects.
func (c comparison) suite(cfg Config) (*Table, error) {
	cases, err := AllCases(cfg)
	if err != nil {
		return nil, err
	}
	return c.run(cfg, cases)
}

// run times every case through both sides: a row of medians and the
// speedup per case, then the geometric mean of the speedups over the
// micro and over the real-world cases.
func (c comparison) run(cfg Config, cases []Case) (*Table, error) {
	t := &Table{
		Title:  c.title,
		Header: []string{"model", c.names[0] + "(ms)", c.names[1] + "(ms)", "speedup"},
	}
	ratios := map[bool][]float64{} // by Case.RealWorld
	for _, cs := range cases {
		med, err := c.medians(cfg, cs)
		if err != nil {
			return nil, err
		}
		ratios[cs.RealWorld] = append(ratios[cs.RealWorld], float64(med[1])/float64(med[0]))
		t.Rows = append(t.Rows, []string{cs.Name, ms(med[0]), ms(med[1]), speedup(med[1], med[0])})
	}
	for _, rw := range []bool{false, true} {
		if r := ratios[rw]; len(r) > 0 {
			label := map[bool]string{false: "geomean micro", true: "geomean real-world"}[rw]
			t.Rows = append(t.Rows, []string{label, "", "", fmt.Sprintf("%.2fx", geomean(r))})
		}
	}
	t.Notes = append(t.Notes, c.note)
	return t, nil
}

// medians opens both sides on cs, has each answer one warm-up query that is
// not timed, then cfg.Queries rounds of one query each, the side that
// goes first alternating from round to round so that neither is always
// the one running on a cache the other just left. It returns each side's
// median.
func (c comparison) medians(cfg Config, cs Case) ([2]time.Duration, error) {
	var sides [2]side
	for i, open := range c.open {
		s, err := open(cs)
		if err != nil {
			return [2]time.Duration{}, err
		}
		defer s.close()
		sides[i] = s
	}
	next := queryStream(cfg, cs)
	var times [2][]time.Duration
	for q := 0; q <= cfg.Queries; q++ {
		feats := next()
		for k := range 2 {
			i := (q + k) % 2
			took, err := answer(sides[i], c.names[i], cs, q, feats)
			if err != nil {
				return [2]time.Duration{}, err
			}
			if q > 0 {
				times[i] = append(times[i], took)
			}
		}
	}
	return [2]time.Duration{median(times[0]), median(times[1])}, nil
}

// Fig10 reproduces the Figure 10 stage breakdowns: per-stage median
// times for a group of models differing in one parameter, read off the
// traces of Figure 6's COPSE side, warm-up query discarded.
func Fig10(cfg Config, which string) (*Table, error) {
	cfg = cfg.withDefaults()
	var names []string
	var title, note string
	switch which {
	case "a":
		names, title = []string{"depth4", "depth5", "depth6"}, "Figure 10a: run time vs max depth"
		note = "paper: compare/reshuffle flat in depth; level time grows ~linearly; accumulation logarithmic (Fig 10a)"
	case "b":
		names, title = []string{"width55", "width78", "width677"}, "Figure 10b: run time vs branches"
		note = "paper: compare flat in branches; reshuffle and level time grow ~linearly (Fig 10b)"
	case "c":
		names, title = []string{"prec8", "prec16"}, "Figure 10c: run time vs precision"
		note = "paper: only compare time grows (superlinearly) with precision (Fig 10c)"
	default:
		return nil, fmt.Errorf("experiments: unknown Fig10 variant %q", which)
	}
	micro, err := MicroCases()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  title,
		Header: []string{"model", "compare(ms)", "reshuffle(ms)", "levels(ms)", "accumulate(ms)", "total(ms)"},
		Notes:  []string{note},
	}
	for _, cs := range filterCases(Config{Models: names}, micro) {
		s, err := newCopseSide(cs, cfg, 1, copse.ScenarioOffload)
		if err != nil {
			return nil, err
		}
		next := queryStream(cfg, cs)
		var stages [5][]time.Duration
		for q := 0; q <= cfg.Queries; q++ {
			if _, err := answer(s, "copse", cs, q, next()); err != nil {
				s.close()
				return nil, err
			}
			if q == 0 {
				continue // the warm-up
			}
			tr := s.trace
			for i, d := range []time.Duration{tr.Compare, tr.Reshuffle, tr.Levels, tr.Accumulate, tr.Total} {
				stages[i] = append(stages[i], d)
			}
		}
		s.close()
		row := []string{cs.Name}
		for _, st := range stages {
			row = append(row, ms(median(st)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
