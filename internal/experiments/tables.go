package experiments

import (
	"fmt"
	"math/big"
	"strings"

	"copse"
	"copse/internal/bgv"
	"copse/internal/ring"
	"copse/internal/synth"
)

// Table3 renders the two-party leakage table (paper Table 3) from the
// executable leakage model.
func Table3() *Table {
	return leakTable("Table 3: data revealed to each notional party, two-party configurations",
		[]string{"S, M=D (offload)", "S=M, D (server model)", "S=D, M (client eval)"},
		[]copse.Scenario{copse.ScenarioOffload, copse.ScenarioServerModel, copse.ScenarioClientEval})
}

// Table4 renders the three-party leakage table (paper Table 4).
func Table4() *Table {
	return leakTable("Table 4: data revealed to each party, three-party configurations",
		[]string{"no collusion", "S colludes with M", "S colludes with D"},
		[]copse.Scenario{copse.ScenarioThreeParty, copse.ScenarioColludeSM, copse.ScenarioColludeSD})
}

// leakTable renders what each party learns under each scenario.
func leakTable(title string, names []string, scenarios []copse.Scenario) *Table {
	t := &Table{Title: title, Header: []string{"scenario", "revealed to S", "revealed to M", "revealed to D"}}
	for i, s := range scenarios {
		row := []string{names[i]}
		for _, party := range []copse.Party{copse.PartyServer, copse.PartyModelOwner, copse.PartyDataOwner} {
			row = append(row, leakString(copse.Revealed(s, party)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func leakString(l copse.Leakage) string {
	if l.Everything {
		return "everything"
	}
	var out []string
	for _, f := range []struct {
		revealed bool
		name     string
	}{{l.Q, "q"}, {l.B, "b"}, {l.K, "K"}, {l.D, "d"}} {
		if f.revealed {
			out = append(out, f.name)
		}
	}
	if len(out) == 0 {
		return "∅"
	}
	return strings.Join(out, ", ")
}

// Table5 is the paper's encryption-parameter table (Table 5: security
// 128, 400 modulus bits, 3 key-switching columns in HElib) for the pure-Go
// BGV substrate. Per Table 6 model and model encryption it prints the ring
// the model's slots pick, the chain its level plan needs
// (Meta.ChainLevels), the bits of the ciphertext modulus Q and of the
// key-switching modulus P on that chain, and the key-switch digits at its
// top. All of it is fixed at compile time: no service is built and no
// pass runs.
func Table5() (*Table, error) {
	micro, err := MicroCases()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Table 5: BGV parameters of each model's level plan",
		Header: []string{"model", "model encryption", "logN", "chain primes", "Q bits", "P bits", "key-switch digits"},
	}
	for _, cs := range micro {
		compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
		if err != nil {
			return nil, err
		}
		for _, encModel := range []bool{true, false} {
			levels := compiled.Meta.ChainLevels(encModel)
			p, err := bgv.ParamsForSlots(cs.Slots, levels)
			if err != nil {
				return nil, err
			}
			params, err := bgv.NewParameters(p)
			if err != nil {
				return nil, err
			}
			top := params.MaxLevel()
			bigP := big.NewInt(1)
			for _, m := range params.RingCtx.QP(top).Moduli[top+1:] {
				bigP.Mul(bigP, new(big.Int).SetUint64(m.Q))
			}
			t.Rows = append(t.Rows, []string{
				cs.Name,
				map[bool]string{true: "encrypted", false: "plaintext"}[encModel],
				fmt.Sprint(p.LogN),
				fmt.Sprint(levels),
				fmt.Sprint(params.QBits(top)),
				fmt.Sprint(bigP.BitLen()),
				fmt.Sprint(ring.HybridDigits(top)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper Table 5 (HElib): security 128, 400 modulus bits, 3 key-switching columns",
		"our substrate needs deeper chains because the Z_t bit encoding adds multiplications (DESIGN.md §3)",
		"logN 11 is a test ring, far below 128-bit security at these moduli (DESIGN.md §2)",
	)
	return t, nil
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
