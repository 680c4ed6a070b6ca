package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
	"copse/internal/synth"
)

// planForests returns the scenario corpus the level-plan regression
// tests sweep: the Figure 1 running example plus synthetic micro models
// of varying depth and width.
func planForests(t *testing.T, short bool) map[string]*model.Forest {
	t.Helper()
	forests := map[string]*model.Forest{"figure1": model.Figure1()}
	if short {
		return forests
	}
	for _, name := range []string{"depth4", "width55"} {
		forests[name] = microForest(t, name)
	}
	return forests
}

// microForest generates one of the Table 6 models by name.
func microForest(t *testing.T, name string) *model.Forest {
	t.Helper()
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == name {
			f, err := synth.Generate(mb.Spec)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("no Table 6 model %q", name)
	return nil
}

// TestLevelPlanComputed: every compiled model carries a structurally
// sound schedule — monotone non-increasing along the pipeline, final
// level positive, and a chain shorter than RecommendedLevels.
func TestLevelPlanComputed(t *testing.T) {
	for name, f := range planForests(t, false) {
		c, err := Compile(f, Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		plan := c.Meta.LevelPlan
		if plan.Levels >= c.Meta.RecommendedLevels {
			t.Errorf("%s: planned chain %d not shorter than the recommended %d", name, plan.Levels, c.Meta.RecommendedLevels)
		}
		for scenario, st := range map[string]StageLevels{"cipher": plan.Cipher, "plain": plan.Plain} {
			if st.Final < 1 {
				t.Errorf("%s/%s: final level %d below 1", name, scenario, st.Final)
			}
			if !(st.Compare >= st.Reshuffle && st.Reshuffle >= st.Level &&
				st.Level >= st.Accumulate && st.Accumulate >= st.Final) {
				t.Errorf("%s/%s: schedule not monotone: %+v", name, scenario, st)
			}
			// The deep stages must run on a small fraction of the chain.
			if st.Accumulate+1 > plan.Levels/2 {
				t.Errorf("%s/%s: product tree enters at %d limbs on a %d-prime chain", name, scenario, st.Accumulate+1, plan.Levels)
			}
			// The product levels inside compare carry their own
			// schedule: one entry per level, non-increasing, bracketed by
			// the stage's own entry and exit, and actually shedding limbs
			// before the boundary (the compare stage is the expensive
			// one; per-round drops are its whole point).
			if len(st.CompareRounds) != log2Ceil(c.Meta.Precision) {
				t.Errorf("%s/%s: %d compare rounds scheduled, want %d", name, scenario, len(st.CompareRounds), log2Ceil(c.Meta.Precision))
			}
			prev := st.Compare
			for r, lvl := range st.CompareRounds {
				if lvl > prev || lvl < st.Reshuffle {
					t.Errorf("%s/%s: compare round %d level %d outside [%d, %d]", name, scenario, r, lvl, st.Reshuffle, prev)
				}
				prev = lvl
			}
			if n := len(st.CompareRounds); n > 0 && st.CompareRounds[n-1] > st.Reshuffle+1 {
				t.Errorf("%s/%s: last compare round still at level %d, reshuffle entry is %d", name, scenario, st.CompareRounds[n-1], st.Reshuffle)
			}
		}
	}
}

// TestLevelPlanNoBSGSAndShuffleVariants: the naive staging also gets a
// feasible plan, and PlanShuffle reserves at least the shuffle's entry.
func TestLevelPlanNoBSGSAndShuffleVariants(t *testing.T) {
	f := model.Figure1()
	if _, err := Compile(f, Options{Slots: 1024, NoBSGS: true}); err != nil {
		t.Fatalf("naive staging: %v", err)
	}
	sh, err := Compile(f, Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := sh.Meta.LevelPlan
	if plan.Cipher.Final < plan.ShuffleLevel() || plan.Plain.Final < plan.ShuffleLevel() {
		t.Errorf("PlanShuffle did not reserve shuffle headroom: %+v", plan)
	}
}

// planBackend builds a BGV backend on the plan-sized chain, the way the
// serving layer does.
func planBackend(t *testing.T, c *Compiled, encModel bool) *hebgv.Backend {
	t.Helper()
	b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.ChainLevels(encModel)), Seed: 33})
	if err != nil {
		t.Fatalf("hebgv.New: %v", err)
	}
	return b
}

// checkPinnedMargins runs the three benchmark models with noise
// measurement on and compares the margin at every stage boundary with
// the pinned values.
func checkPinnedMargins(t *testing.T) {
	t.Helper()
	// Margins measured before level moves became single roundings and
	// the key-switch tail was fused (seeded keys and encryption, so a
	// run reproduces them): a rounding that drops several primes, or
	// P·q_ℓ, at once must leave the same headroom as the one-prime
	// steps it replaces.
	for _, pin := range []struct {
		name     string
		f        *model.Forest
		encModel bool
		want     StageNoise
	}{
		// Re-pinned where the affine level mask took a prime off the chain
		// under the level stage (compare 13 → 12, reshuffle 7 → 6, level
		// 6 → 5): query / decisions / branch vector were 743 / 417 / 357.
		// The query gained 6 bits (688 → 694) when the backend began to
		// encrypt under its secret key: t·e alone is the fresh noise.
		{"prec16/offload", microForest(t, "prec16"), true, StageNoise{Query: 694, Decisions: 362, BranchVec: 301, LevelResult: 251, Result: 87}},
		// Re-pinned where planning on the op program moved an entry down
		// (levelplans.golden lists them): depth4's level entry 5 → 4 took
		// the branch vector from 283 to 252; wide8's chain one prime
		// shorter (compare 12 → 11, reshuffle 7 → 6, level 7 → 5) took
		// query / decisions / branch vector from 688 / 417 / 391. The
		// comparison tree took another prime off both plaintext-model
		// chains (compare 10 → 9 and 11 → 10): query 578 → 529 and
		// 633 → 584 (a prime less, 6 bits of secret-key encryption more),
		// depth4's decisions 307 → 287.
		{"depth4/servermodel", microForest(t, "depth4"), false, StageNoise{Query: 529, Decisions: 287, BranchVec: 252, LevelResult: 197, Result: 87}},
		{"wide8/servermodel", wide8Forest(t), false, StageNoise{Query: 584, Decisions: 362, BranchVec: 307, LevelResult: 252, Result: 87}},
	} {
		c, err := Compile(pin.f, Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		b := planBackend(t, c, pin.encModel)
		m, err := Prepare(b, c, pin.encModel, true, false)
		if err != nil {
			t.Fatal(err)
		}
		q, err := PrepareQuery(b, &m.Meta, make([]uint64, pin.f.NumFeatures), true)
		if err != nil {
			t.Fatal(err)
		}
		_, _, trace, err := (&Engine{Backend: b, MeasureNoise: true}).Classify(context.Background(), m, q, 0)
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		got, want := trace.Noise, pin.want
		for _, bd := range []struct {
			stage     string
			got, want int
		}{
			{"query", got.Query, want.Query}, {"decisions", got.Decisions, want.Decisions},
			{"branch vector", got.BranchVec, want.BranchVec}, {"level result", got.LevelResult, want.LevelResult},
			{"result", got.Result, want.Result},
		} {
			if bd.got < bd.want-2 || bd.got > bd.want+2 {
				t.Errorf("%s: measured margin at the %s is %d bits, pinned %d ± 2", pin.name, bd.stage, bd.got, bd.want)
			}
		}
	}
}

// TestClassifyPlannedNoiseHeadroom is the noise-headroom regression over
// the scenario corpus: every BGV Classify under the static schedule must
// decrypt with positive noise budget, land exactly at the planned final
// level, and classify correctly — on the plan-sized (shortened) chain.
// For the three benchmark models it also pins the measured margin at
// every stage boundary.
func TestClassifyPlannedNoiseHeadroom(t *testing.T) {
	if !testing.Short() {
		checkPinnedMargins(t)
	}
	scenarios := []struct {
		name     string
		encModel bool
	}{
		{"offload", true},
		{"servermodel", false},
	}
	for name, f := range planForests(t, testing.Short()) {
		for _, sc := range scenarios {
			c, err := Compile(f, Options{Slots: 1024})
			if err != nil {
				t.Fatal(err)
			}
			plan := c.Meta.LevelPlan
			b := planBackend(t, c, sc.encModel)
			m, err := Prepare(b, c, sc.encModel, true, false)
			if err != nil {
				t.Fatal(err)
			}
			e := &Engine{Backend: b, Workers: 4}
			inputs := [][]uint64{{0, 5}, {3, 2}, {15, 15}}
			if f.NumFeatures != 2 {
				inputs = [][]uint64{make([]uint64, f.NumFeatures)}
				for i := range inputs[0] {
					inputs[0][i] = uint64(i % (1 << uint(f.Precision)))
				}
			}
			for _, feats := range inputs {
				want := f.Classify(feats)
				q, err := PrepareQuery(b, &m.Meta, feats, true)
				if err != nil {
					t.Fatal(err)
				}
				out, _, trace, err := e.Classify(context.Background(), m, q, 0)
				if err != nil {
					t.Fatalf("%s/%s Classify(%v): %v", name, sc.name, feats, err)
				}
				budget, err := b.NoiseBudget(out.Ct)
				if err != nil {
					t.Fatal(err)
				}
				if budget <= 0 {
					t.Fatalf("%s/%s Classify(%v): noise budget %d", name, sc.name, feats, budget)
				}
				level, err := b.CiphertextLevel(out.Ct)
				if err != nil {
					t.Fatal(err)
				}
				if wantLevel := plan.For(sc.encModel).Final; level != wantLevel {
					t.Errorf("%s/%s: result at level %d, plan schedules %d", name, sc.name, level, wantLevel)
				}
				if trace.Limbs.Result != plan.For(sc.encModel).Final+1 {
					t.Errorf("%s/%s: trace reports %d result limbs", name, sc.name, trace.Limbs.Result)
				}
				slots, err := he.Reveal(b, out)
				if err != nil {
					t.Fatal(err)
				}
				res, err := DecodeResult(&m.Meta, slots)
				if err != nil {
					t.Fatalf("%s/%s DecodeResult(%v): %v", name, sc.name, feats, err)
				}
				for ti := range want {
					if res.PerTree[ti] != want[ti] {
						t.Errorf("%s/%s Classify(%v) tree %d = L%d, want L%d", name, sc.name, feats, ti, res.PerTree[ti], want[ti])
					}
				}
			}
		}
	}
}

// TestShuffleStageNeedsHeadroom: the default minimal schedule lands the
// result below the shuffle stage's entry, so preparing a model compiled
// without PlanShuffle for a shuffling service fails in the level pass —
// a *PlanInfeasibleError for the shuffle stage, naming the option — on
// any backend, in both scenarios; a PlanShuffle compile prepares, its
// result landing at that entry. Shuffled passes of PlanShuffle models run
// on BGV in TestPlannedPassAlignsNothing.
func TestShuffleStageNeedsHeadroom(t *testing.T) {
	b := heclear.New(1024, 65537)
	for _, planShuffle := range []bool{false, true} {
		c, err := Compile(model.Figure1(), Options{Slots: 1024, PlanShuffle: planShuffle})
		if err != nil {
			t.Fatal(err)
		}
		plan := c.Meta.LevelPlan
		for _, encModel := range []bool{true, false} {
			_, err := Prepare(b, c, encModel, true, true)
			if planShuffle {
				if err != nil || plan.For(encModel).Final != plan.ShuffleLevel() {
					t.Errorf("PlanShuffle enc=%v: %v, result at level %d for a shuffle entered at %d", encModel, err, plan.For(encModel).Final, plan.ShuffleLevel())
				}
				continue
			}
			var infeasible *PlanInfeasibleError
			if !errors.As(err, &infeasible) || infeasible.Stage != "shuffle" || !strings.Contains(err.Error(), "PlanShuffle") {
				t.Errorf("minimal schedule enc=%v: %v, want the shuffle stage's *PlanInfeasibleError naming PlanShuffle", encModel, err)
			}
		}
	}
}

// TestPlannerNoiseBoundsMeasured pins the level pass to the evaluator
// from above, on every model the benchmark gates — depth4, prec16, and
// wide8 whole and in its two shards — the four-lane model and the
// shuffled Figure 1 and wide8, in both scenarios and at every plane
// packing: each trace register sits at the level the pass assigned it,
// and the noise the pass predicts for it is at least what a decryption
// measures — at the shuffled result too.
func TestPlannerNoiseBoundsMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 36 full BGV passes")
	}
	for name, ac := range alignCorpus(t) {
		if name != "depth4" && name != "prec16" && ac.f.NumFeatures == 2 && !ac.shuffle {
			continue
		}
		f, c := ac.f, ac.c
		nm := planNoiseModel(c.Meta.Slots)
		for _, encModel := range []bool{true, false} {
			b := planBackend(t, c, encModel)
			m, err := Prepare(b, c, encModel, true, ac.shuffle)
			if err != nil {
				t.Fatal(err)
			}
			for _, fill := range packingFills(&c.Meta) {
				batch := make([][]uint64, fill)
				for k := range batch {
					batch[k] = make([]uint64, f.NumFeatures)
					for i := range batch[k] {
						batch[k][i] = uint64(3*i+k+1) % (1 << uint(f.Precision))
					}
				}
				q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
				if err != nil {
					t.Fatal(err)
				}
				_, _, trace := classifyCase(t, &Engine{Backend: b, Workers: 2, MeasureNoise: true}, m, q)
				g := trace.PlanesPerCiphertext
				p := m.ProgramFor(g)
				for _, at := range []struct {
					stage         string
					reg           int
					limbs, budget int
				}{
					{"query", p.regQuery, trace.Limbs.Query, trace.Noise.Query},
					{"decisions", p.regDecisions, trace.Limbs.Decisions, trace.Noise.Decisions},
					{"branch vector", p.regBranchVec, trace.Limbs.BranchVec, trace.Noise.BranchVec},
					{"level result", p.regLevelResult, trace.Limbs.LevelResult, trace.Noise.LevelResult},
					{"result", p.result, trace.Limbs.Result, trace.Noise.Result},
				} {
					want := p.est[at.reg]
					if at.limbs != want.level+1 {
						t.Errorf("%s enc=%v g=%d %s: %d limbs, the pass assigns level %d", name, encModel, g, at.stage, at.limbs, want.level)
						continue
					}
					// The modulus is limbs 55-bit primes, one bit above the
					// planner's lower bound qBits.
					measured := nm.qBits(want.level) + 1 - float64(at.budget) - 1
					t.Logf("%s enc=%v g=%d %s: level %d, predicted %.1f bits, measured %.0f", name, encModel, g, at.stage, want.level, want.noise, measured)
					if measured > want.noise {
						t.Errorf("%s enc=%v g=%d %s: measured noise %.0f bits exceeds the predicted %.1f", name, encModel, g, at.stage, measured, want.noise)
					}
				}
			}
		}
	}
}
