package experiments

import (
	"fmt"
	"time"

	"copse"
	"copse/internal/bgv"
	"copse/internal/synth"
)

// Table3 renders the two-party leakage table (paper Table 3) from the
// executable leakage model.
func Table3() *Table {
	t := &Table{
		Title:  "Table 3: data revealed to each notional party, two-party configurations",
		Header: []string{"scenario", "revealed to S", "revealed to M", "revealed to D"},
	}
	rows := []struct {
		name string
		s    copse.Scenario
	}{
		{"S, M=D (offload)", copse.ScenarioOffload},
		{"S=M, D (server model)", copse.ScenarioServerModel},
		{"S=D, M (client eval)", copse.ScenarioClientEval},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.name,
			leakString(copse.Revealed(r.s, copse.PartyServer)),
			leakString(copse.Revealed(r.s, copse.PartyModelOwner)),
			leakString(copse.Revealed(r.s, copse.PartyDataOwner)),
		})
	}
	return t
}

// Table4 renders the three-party leakage table (paper Table 4).
func Table4() *Table {
	t := &Table{
		Title:  "Table 4: data revealed to each party, three-party configurations",
		Header: []string{"scenario", "revealed to S", "revealed to M", "revealed to D"},
	}
	rows := []struct {
		name string
		s    copse.Scenario
	}{
		{"no collusion", copse.ScenarioThreeParty},
		{"S colludes with M", copse.ScenarioColludeSM},
		{"S colludes with D", copse.ScenarioColludeSD},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.name,
			leakString(copse.Revealed(r.s, copse.PartyServer)),
			leakString(copse.Revealed(r.s, copse.PartyModelOwner)),
			leakString(copse.Revealed(r.s, copse.PartyDataOwner)),
		})
	}
	return t
}

func leakString(l copse.Leakage) string {
	if l.Everything {
		return "everything"
	}
	out := ""
	appendIf := func(cond bool, s string) {
		if cond {
			if out != "" {
				out += ", "
			}
			out += s
		}
	}
	appendIf(l.Q, "q")
	appendIf(l.B, "b")
	appendIf(l.K, "K")
	appendIf(l.D, "d")
	if out == "" {
		return "∅"
	}
	return out
}

// Table5 reinterprets the paper's encryption-parameter study (Table 5:
// security parameter 128, 400 modulus bits, 3 key-switching columns in
// HElib) for the pure-Go BGV substrate: it sweeps the chain length
// around the compiler's recommendation and reports timing and remaining
// noise budget, identifying the smallest working chain.
func Table5(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	micro, err := MicroCases()
	if err != nil {
		return nil, err
	}
	cs := micro[0] // depth4
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		return nil, err
	}
	rec := compiled.Meta.RecommendedLevels
	t := &Table{
		Title:  fmt.Sprintf("Table 5: BGV parameter sweep on %s (recommended levels = %d)", cs.Name, rec),
		Header: []string{"levels", "logN", "modulus bits", "median(ms)", "status"},
	}
	for _, levels := range []int{rec - 4, rec - 2, rec, rec + 2} {
		if levels < 2 {
			continue
		}
		status := "ok"
		var med time.Duration
		sys, err := copse.NewSystem(compiled, copse.WithBackend(copse.BackendBGV), copse.WithLevels(levels),
			copse.WithWorkers(defaultWorkers(cfg)), copse.WithSeed(cfg.Seed+3))
		if err != nil {
			status = "setup failed: " + err.Error()
		} else {
			r := &copseRunner{cs: cs, sys: sys}
			times, _, err := r.run(min(cfg.Queries, 3), cfg.Seed)
			if err != nil {
				status = "failed: " + truncate(err.Error(), 40)
			} else {
				med = median(times)
			}
		}
		params := bgv.TestParams(levels)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(levels),
			fmt.Sprint(params.LogN),
			fmt.Sprint(levels * params.PrimeBits),
			ms(med),
			status,
		})
	}
	t.Notes = append(t.Notes,
		"paper Table 5 (HElib): security 128, 400 modulus bits, 3 key-switching columns",
		"our substrate needs deeper chains because the Z_t bit encoding adds multiplications (DESIGN.md §3)",
	)
	return t, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// Table6 regenerates the microbenchmark specification table.
func Table6() (*Table, error) {
	t := &Table{
		Title:  "Table 6: microbenchmark specifications",
		Header: []string{"model", "max depth", "precision", "trees", "branches", "q", "leaves"},
	}
	for _, mb := range synth.Microbenchmarks() {
		f, err := synth.Generate(mb.Spec)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			mb.Name,
			fmt.Sprint(f.Depth()),
			fmt.Sprint(f.Precision),
			fmt.Sprint(len(f.Trees)),
			fmt.Sprint(f.Branches()),
			fmt.Sprint(f.QuantizedBranching()),
			fmt.Sprint(f.Leaves()),
		})
	}
	t.Notes = append(t.Notes, "paper Table 6: every forest has 2 features and 3 distinct labels")
	return t, nil
}

// Ablation runs the COPSE-Go design-choice ablation called out in
// DESIGN.md §6: the diagonal kernel, naive (one rotation per diagonal)
// versus baby-step/giant-step. Both are the same op program built over a
// different staged split, so the comparison isolates the rotation count.
// Hoisted versus per-step rotation cost is not an executor mode; the
// benchmark's per-layer table reports it as bgv.rotate_us.lo against
// bgv.rotate_hoisted_us_per_step.lo.
func Ablation(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	micro, err := MicroCases()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: diagonal kernel (naive vs BSGS)",
		Header: []string{"model", "naive(ms)", "bsgs(ms)", "naive→bsgs"},
	}
	kind, err := copse.ParseBackend(cfg.Backend)
	if err != nil {
		return nil, err
	}
	for _, cs := range []Case{micro[2], micro[5]} { // depth6, width677: most levels/branches
		var medians [2]time.Duration
		for i, noBSGS := range []bool{true, false} {
			compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots, NoBSGS: noBSGS})
			if err != nil {
				return nil, err
			}
			sys, err := copse.NewSystem(compiled, copse.WithBackend(kind), copse.WithWorkers(1), copse.WithSeed(cfg.Seed+9))
			if err != nil {
				return nil, err
			}
			r := &copseRunner{cs: cs, sys: sys}
			times, _, err := r.run(cfg.Queries, cfg.Seed)
			r.close()
			if err != nil {
				return nil, err
			}
			medians[i] = median(times)
		}
		t.Rows = append(t.Rows, []string{cs.Name, ms(medians[0]), ms(medians[1]), speedup(medians[0], medians[1])})
	}
	t.Notes = append(t.Notes,
		"BSGS cuts each matrix product from period−1 to ~2·√period rotations; both kernels share the branch vector's baby rotations across levels",
	)
	return t, nil
}
