package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"testing"
	"time"

	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// TestPrepareRejectsInfeasiblePlan: a plan one level lower than the
// planner's — at the compare entry, at the final level (for a shuffled
// model: below the shuffle's entry), or at any one compare round — is
// refused, in both scenarios: by the planner's own
// oracle (the level pass over planStructure at every packing, which is what
// holds the stored plan tight), and by Prepare with the typed error instead
// of a program that decrypts to garbage. The plan is computed from Meta
// alone, for the worst case over the models Meta describes — it is sent to
// the client with Meta and must say nothing more about the model — so a
// plaintext model may pass Prepare under a plan the oracle refuses, but
// only for having staged fewer diagonals than that worst case.
func TestPrepareRejectsInfeasiblePlan(t *testing.T) {
	for name, ac := range alignCorpus(t) {
		c := ac.c
		b := heclear.New(c.Meta.Slots, 65537)
		for _, encModel := range []bool{true, false} {
			if _, err := Prepare(b, c, encModel, true, ac.shuffle); err != nil {
				t.Fatalf("%s enc=%v: the compiled plan: %v", name, encModel, err)
			}
			pl := planner{nm: planNoiseModel(c.Meta.Slots)}
			for g := 1; g <= c.Meta.PlanesPerCiphertext(1); g <<= 1 {
				prog, err := planStructure(&c.Meta, encModel, ac.shuffle, g)
				if err != nil {
					t.Fatal(err)
				}
				pl.progs = append(pl.progs, prog)
			}
			if _, fail := pl.run(c.Meta.LevelPlan.For(encModel)); fail != nil {
				t.Fatalf("%s enc=%v: the oracle refuses the compiled plan: %+v", name, encModel, *fail)
			}
			lowered := map[string]func(st *StageLevels){
				"compare": func(st *StageLevels) { st.Compare-- },
				"final":   func(st *StageLevels) { st.Final-- },
			}
			for r := range c.Meta.LevelPlan.For(encModel).CompareRounds {
				lowered[fmt.Sprintf("round %d", r)] = func(st *StageLevels) { st.CompareRounds[r]-- }
			}
			for what, lower := range lowered {
				plan := *c.Meta.LevelPlan
				st := &plan.Plain
				if encModel {
					st = &plan.Cipher
				}
				st.CompareRounds = append([]int(nil), st.CompareRounds...)
				lower(st)
				if _, fail := pl.run(*st); fail == nil {
					t.Errorf("%s enc=%v, %s lowered by one: the planner's oracle still passes — the stored plan is not minimal", name, encModel, what)
				}
				lc := *c
				lc.Meta.LevelPlan = &plan
				m, err := Prepare(b, &lc, encModel, true, ac.shuffle)
				var infeasible *PlanInfeasibleError
				if errors.As(err, &infeasible) {
					continue
				}
				if err != nil || encModel || diagProducts(m.Program) >= diagProducts(pl.progs[0]) {
					t.Errorf("%s enc=%v, %s lowered by one: Prepare error %v, want *PlanInfeasibleError", name, encModel, what, err)
				}
			}
		}
	}
}

// diagProducts counts the diagonal products of a program's mat-vecs.
func diagProducts(p *Program) int {
	n := 0
	for _, op := range p.ops {
		if op.Code == opMulDiag {
			n++
		}
	}
	return n
}

// randomPlanCase draws one forest and its compile options: precision
// 1..16, depth 1..8, 1..12 trees, 1..6 features or — one case in three,
// the wide blocks that split into level lanes — 8..24, Slots
// 1024/2048/4096, PlanShuffle on or off, redrawn until the model fits its
// slots.
func randomPlanCase(t *testing.T, rng *rand.Rand) (*model.Forest, *Compiled, Options) {
	t.Helper()
	for {
		depth := 1 + rng.IntN(8)
		spec := synth.ForestSpec{
			NumFeatures: 1 + rng.IntN(6), NumLabels: 2 + rng.IntN(3),
			Precision: 1 + rng.IntN(16), MaxDepth: depth, Seed: rng.Uint64(),
		}
		if rng.IntN(3) == 0 {
			spec.NumFeatures = 8 + rng.IntN(17)
		}
		for tr := 1 + rng.IntN(12); tr > 0; tr-- {
			most := min(1<<depth-1, 3*depth)
			spec.BranchesPerTree = append(spec.BranchesPerTree, depth+rng.IntN(most-depth+1))
		}
		f, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Slots: 1024 << rng.IntN(3), PlanShuffle: rng.IntN(2) == 0}
		if c, err := Compile(f, opts); err == nil {
			return f, c, opts
		}
	}
}

// checkLevelledProgram asserts what the level pass promises of a program
// built under st over the given level lanes (lanes of a block × lane
// groups): its schedule is
// what its ops imply, no binary op reads ciphertext registers at different
// levels (what the evaluator would refuse), no register is dropped
// to the same level twice, every ciphertext trace register sits exactly at
// its stage entry, and the accumulate stage rotates once per doubling of
// the lanes.
func checkLevelledProgram(t *testing.T, p *Program, st StageLevels, lanes int) {
	t.Helper()
	checkSchedule(t, p)
	drops := map[[2]int]bool{}
	rounds := 0
	for i, op := range p.ops {
		switch op.Code {
		case opRot:
			if op.Stage == stAccumulate {
				rounds++
			}
		case opDrop:
			if key := [2]int{op.A, op.Imm}; drops[key] {
				t.Errorf("op %d drops register %d to level %d a second time", i, op.A, op.Imm)
			} else {
				drops[key] = true
			}
		case opAdd, opSub, opMul, opMulLazy:
			if a, b := p.est[op.A], p.est[op.B]; a.cipher && b.cipher && a.level != b.level {
				t.Errorf("op %d (code %d) reads registers at levels %d and %d", i, op.Code, a.level, b.level)
			}
		}
	}
	if rounds != log2Ceil(lanes) {
		t.Errorf("the accumulate stage rotates %d times over %d lanes", rounds, lanes)
	}
	for _, at := range []struct {
		what       string
		reg, level int
	}{
		{"query", p.regQuery, st.Compare}, {"decisions", p.regDecisions, st.Reshuffle},
		{"branch vector", p.regBranchVec, st.Level}, {"level result", p.regLevelResult, st.Accumulate},
		{"leaf bitvector", p.regLeaves, st.Final},
	} {
		if e := p.est[at.reg]; e.cipher && e.level != at.level {
			t.Errorf("the %s sits at level %d, its stage entry is %d", at.what, e.level, at.level)
		}
	}
}

// TestPlannerGeneratedShapes runs the planner over generated model
// shapes instead of a fixed corpus: seeded random forests, whole and
// split into two or three shards, × encrypted or plaintext model ×
// encrypted or plaintext query. Every case must have a plan whose
// entries descend along the pipeline, whose compare rounds descend and
// stay at or above the reshuffle entry, and under which the program
// Prepare builds from the staged shapes is feasible and levelled, its
// compare stage ⌈log2 p⌉ product levels deep (one more under an encrypted
// model) at every packing, on no more key switches than the Sklansky
// chain's — with the result shuffle stage too when the case compiles with
// PlanShuffle. Static checks only (the exact backend), so it runs under
// -short.
func TestPlannerGeneratedShapes(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 0x5a))
	cases := 52
	if testing.Short() {
		cases = 16
	}
	laned, grouped := map[int]int{}, map[int]int{} // models seen per lane count and per group count
	defer func() {
		t.Logf("models per lane count: %v, per group count: %v", laned, grouped)
		if len(laned) < 3 || len(grouped) < 3 {
			t.Errorf("the generated shapes cover the lane counts %v and the group counts %v only", laned, grouped)
		}
	}()
	for i := 0; i < cases; i++ {
		f, whole, opts := randomPlanCase(t, rng)
		models := []*Compiled{whole}
		if k := 2 + rng.IntN(2); i%2 == 1 && len(f.Trees) >= k {
			shards, _, err := ShardForest(whole, k)
			if err != nil {
				t.Fatalf("case %d (%v %+v): %v", i, &whole.Meta, opts, err)
			}
			models = shards
		}
		for mi, c := range models {
			t.Run(fmt.Sprintf("case%d/%d", i, mi), func(t *testing.T) {
				t.Logf("%v %+v", &c.Meta, opts)
				plan := c.Meta.LevelPlan
				b := heclear.New(c.Meta.Slots, 65537)
				lanes, _ := c.Meta.LevelLanes()
				laned[lanes]++
				grouped[c.Meta.LevelGroups()]++
				for _, cfg := range schedConfigs {
					encModel := cfg.encModel
					st := plan.For(encModel)
					chain := append(append([]int{st.Compare}, st.CompareRounds...), st.Reshuffle, st.Level, st.Accumulate, st.Final, minFinalLevel)
					for j := 1; j < len(chain); j++ {
						if chain[j] > chain[j-1] {
							t.Errorf("enc=%v: schedule %+v does not descend", encModel, st)
						}
					}
					m, err := Prepare(b, c, encModel, cfg.encQuery, opts.PlanShuffle)
					if err != nil {
						t.Fatalf("%s: %v", cfg.name, err)
					}
					// Every plane packing, on the level staging of its layout
					// — the lanes of a block below Meta.LevelGroups, of every
					// group from there up.
					for i, pk := range m.packings {
						h, groups, ops := c.Meta.LevelLayout(1 << i)
						if lv := pk.levels; lv.lanes != h || lv.groups != groups || len(lv.mats) != ops || len(lv.masks) != ops {
							t.Errorf("enc=%v: packing %d runs on %d operands (%d masks) of %d lanes × %d groups, its layout is %d of %d × %d",
								encModel, 1<<i, len(lv.mats), len(lv.masks), lv.lanes, lv.groups, ops, h, groups)
						}
						checkLevelledProgram(t, pk.program, st, h*groups)
						checkCompareBill(t, pk.program, &c.Meta, 1<<i)
					}
				}
			})
		}
	}
}

// TestPlannerBudget is the perf smoke for planning on the op program:
// computeLevelPlan over the Meta of every Table 6 model and the four-lane
// one, compiled at Slots 1024 and 2048, must plan both scenarios in under
// 25 ms. Gated behind COPSE_PERF_SMOKE=1 like the other wall-clock checks.
func TestPlannerBudget(t *testing.T) {
	if os.Getenv("COPSE_PERF_SMOKE") == "" {
		t.Skip("set COPSE_PERF_SMOKE=1 to run the planner budget smoke")
	}
	forests := map[string]*model.Forest{"lanes4": lanes4Forest(t)}
	for _, mb := range synth.Microbenchmarks() {
		forests[mb.Name] = microForest(t, mb.Name)
	}
	for name, f := range forests {
		for _, slots := range []int{1024, 2048} {
			c, err := Compile(f, Options{Slots: slots})
			if err != nil {
				t.Fatal(err)
			}
			best := time.Hour
			for run := 0; run < 5; run++ {
				start := time.Now()
				if _, err := computeLevelPlan(&c.Meta, false); err != nil {
					t.Fatalf("%s/%d: %v", name, slots, err)
				}
				best = min(best, time.Since(start))
			}
			t.Logf("%s slots=%d: planned in %v", name, slots, best)
			if best > 25*time.Millisecond {
				t.Errorf("%s slots=%d: planning took %v, budget 25ms", name, slots, best)
			}
		}
	}
}
