package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
)

// checkBill holds the counters of backend b, zeroed before a pass of
// program p that left trace, to p's bill: they moved by exactly the sum
// of its stage bills — on a backend without levels no limbs and no
// relinearizations — and reached the last stage's depth, and the trace
// reports the same counts stage by stage.
func checkBill(t *testing.T, b he.Backend, p *Program, trace *Trace) {
	t.Helper()
	bills := p.StageBills()
	var want, traced he.OpCounts
	for _, bill := range bills {
		want = want.Plus(bill.Ops)
	}
	if _, leveled := b.(he.LevelDropper); !leveled {
		want.LimbOps, want.Relin = 0, 0
	}
	for _, ops := range []he.OpCounts{trace.CompareOps, trace.ReshuffleOps, trace.LevelOps, trace.AccumulateOps, trace.ShuffleOps} {
		traced = traced.Plus(ops)
	}
	if got := b.Counts(); got != want {
		t.Errorf("the backend counted %v, the program's bill is %v", got, want)
	}
	if got, last := b.Counts().MaxDepth, bills[len(bills)-1].Ops.MaxDepth; got != last {
		t.Errorf("the backend reached depth %d, the last stage's bill %d", got, last)
	}
	if traced != want {
		t.Errorf("the trace reports %v, the program's bill is %v", traced, want)
	}
}

// TestProgramBillMatchesBackendCounters is the oracle of the op bill a
// pass copies into its trace instead of measuring it (Program.StageBills),
// and of the answers and layout of every planned pass: for every model of
// the alignment corpus, in every scenario and at every plane packing, a
// pass run alone on BGV and on the exact backend moves the backend's own
// counters by exactly the program's bill, runs at the packing its batch
// fill selects, and answers as the forest does. The BGV evaluator refuses
// a binary op on operands at different levels (*bgv.LevelMismatchError),
// so each level move of the plan is an opDrop of the program. The passes
// run on the default worker count (GOMAXPROCS). A baseline program's bill
// is checked the same way.
func TestProgramBillMatchesBackendCounters(t *testing.T) {
	rng := rand.New(rand.NewPCG(34, 1))
	for name, ac := range alignCorpus(t) {
		f, c := ac.f, ac.c
		start := 0
		if c.Shard != nil {
			start = c.Shard.TreeStart
		}
		for _, cfg := range schedConfigs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				for _, b := range []he.Backend{planBackend(t, c, cfg.encModel), heclear.New(c.Meta.Slots, 65537)} {
					t.Run(b.Name(), func(t *testing.T) {
						m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, ac.shuffle)
						if err != nil {
							t.Fatal(err)
						}
						for _, fill := range packingFills(&c.Meta) {
							batch := make([][]uint64, fill)
							for i := range batch {
								batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
							}
							q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
							if err != nil {
								t.Fatal(err)
							}
							b.ResetCounts()
							out, cbs, trace := classifyCase(t, &Engine{Backend: b}, m, q)
							if g := m.Meta.PlanesPerCiphertext(fill); trace.PlanesPerCiphertext != g || trace.QueryCiphertexts != m.Meta.QueryCiphertexts(g) {
								t.Fatalf("fill %d ran %d operands at %d planes per ciphertext, want %d at %d",
									fill, trace.QueryCiphertexts, trace.PlanesPerCiphertext, m.Meta.QueryCiphertexts(g), g)
							}
							checkBill(t, b, m.ProgramFor(q.PlanesPerCiphertext), trace)
							checkVotes(t, b, f, m, out, cbs, batch, m.Meta.QueryCapacity(q.PlanesPerCiphertext), start)
						}
					})
				}
			})
		}
	}

	// The baseline: a comparison per node, and a leaf's left turns the
	// plaintext one minus a decision.
	forest := &BaselineForest{NumFeatures: 2, Precision: 3, Features: []int{0, 1, 0},
		Paths: [][]int{{-1, -2}, {-1, 2}, {1, -3}, {1, 3}}}
	plan, err := PlanBaseline(forest, 1024)
	if err != nil {
		t.Fatal(err)
	}
	keyed, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(plan.Compare + 1), Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []he.Backend{keyed, heclear.New(1024, 65537)} {
		t.Run("baseline/"+b.Name(), func(t *testing.T) {
			p, err := NewBaselineProgram(b, forest, plan)
			if err != nil {
				t.Fatal(err)
			}
			bits := func(n, level int) []he.Operand {
				ops := make([]he.Operand, n)
				for i := range ops {
					vals := make([]uint64, b.Slots())
					for j := range vals {
						vals[j] = rng.Uint64N(2)
					}
					ct, err := he.EncryptAtLevel(b, vals, level)
					if err != nil {
						t.Fatal(err)
					}
					ops[i] = he.Cipher(ct)
				}
				return ops
			}
			query := bits(forest.NumFeatures*forest.Precision, plan.Compare)
			thresholds := bits(len(forest.Features)*forest.Precision, plan.Compare)
			labels := bits(len(forest.Paths), plan.Level)
			b.ResetCounts()
			_, trace, err := (&Engine{Backend: b, Workers: 2}).ClassifyBaseline(context.Background(), p, query, thresholds, labels)
			if err != nil {
				t.Fatal(err)
			}
			checkBill(t, b, p, trace)
		})
	}
}
