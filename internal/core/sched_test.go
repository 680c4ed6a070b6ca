package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"copse/internal/chaos"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
)

// schedConfigs are the three staging configurations the six party
// scenarios reduce to at this layer (copse.scenarioEncryption): which of
// model and query the pass sees encrypted.
var schedConfigs = []struct {
	name               string
	encModel, encQuery bool
}{
	{"offload", true, true}, // also threeparty, colludesm, colludesd
	{"servermodel", false, true},
	{"clienteval", true, false},
}

// checkSchedule asserts that p's schedule is exactly what its ops imply.
func checkSchedule(t *testing.T, p *Program) {
	t.Helper()
	sc := &p.sched
	if sc.stageEnd[stDone-1] != len(p.ops) {
		t.Fatalf("stages end at op %d of %d", sc.stageEnd[stDone-1], len(p.ops))
	}
	producer := make([]int, p.numReg)
	for r := range producer {
		producer[r] = -1
	}
	readers := make([]int, p.numReg)
	wantDeps := make([]int32, len(p.ops))
	lo := 0
	for st, hi := range sc.stageEnd {
		ranks := make([]bool, hi-lo)
		for i := lo; i < hi; i++ {
			op := p.ops[i]
			if int(op.Stage) != st {
				t.Fatalf("op %d tagged stage %d inside stage %d's range", i, op.Stage, st)
			}
			for _, r := range op.operands() {
				if producer[r] < 0 {
					t.Fatalf("op %d reads register %d before any op writes it", i, r)
				}
				readers[r]++
			}
			for r := op.Dst; r < op.Dst+p.width(op); r++ {
				if producer[r] >= 0 {
					t.Fatalf("ops %d and %d both write register %d", producer[r], i, r)
				}
				producer[r] = i
			}
			for _, j := range sc.succ[i] {
				if int(j) <= i || int(j) >= hi {
					t.Fatalf("op %d lists successor %d outside (%d, %d)", i, j, i, hi)
				}
				wantDeps[j]++
			}
			if k := int(sc.rank[i]); k < 0 || k >= hi-lo || ranks[k] {
				t.Fatalf("stage %d: rank %d of op %d is not a fresh place in [0, %d)", st, k, i, hi-lo)
			} else {
				ranks[k] = true
			}
		}
		lo = hi
	}
	for i, op := range p.ops {
		if sc.deps[i] != wantDeps[i] {
			t.Errorf("op %d counts %d dependencies but %d ops list it as successor", i, sc.deps[i], wantDeps[i])
		}
		// Every same-stage producer of an operand lists this op, once.
		var from []int
		for _, r := range op.operands() {
			if j := producer[r]; p.ops[j].Stage == op.Stage && !slices.Contains(from, j) {
				from = append(from, j)
				if !slices.Contains(sc.succ[j], int32(i)) {
					t.Errorf("op %d reads op %d's result but is not among its successors", i, j)
				}
			}
		}
		if len(from) != int(sc.deps[i]) {
			t.Errorf("op %d has %d same-stage producers, schedule says %d", i, len(from), sc.deps[i])
		}
	}
	// Every op is live: something reads it, or it is a carrier the
	// executor reads at a stage boundary.
	for _, r := range []int{p.result, p.regQuery, p.regDecisions, p.regBranchVec, p.regLevelResult, p.regLeaves} {
		readers[r]++
	}
	for i, op := range p.ops {
		if !slices.ContainsFunc(readers[op.Dst:op.Dst+p.width(op)], func(n int) bool { return n > 0 }) {
			t.Errorf("op %d (code %d) writes a register nothing reads", i, op.Code)
		}
	}
	if sc.critical <= 0 || sc.critical > sc.work {
		t.Errorf("critical path %d outside (0, work %d]", sc.critical, sc.work)
	}
}

// scheduleCase is one model of the schedule corpus, with the forest whose
// trees [start, start+NumTrees) its answers must match.
type scheduleCase struct {
	f *model.Forest
	c *Compiled
	// plainOnly: see degenerateCase.
	plainOnly bool
}

// scheduleCorpus compiles every configuration of the plan forests and
// the shardable one — default, PlanShuffle and Slots 2048 — the
// degenerate shapes, and two shards of each multi-tree model.
func scheduleCorpus(t *testing.T) map[string]scheduleCase {
	t.Helper()
	corpus := map[string]scheduleCase{}
	forests := planForests(t, false)
	forests["shardable"] = shardTestForest(t, 77)
	for name, f := range forests {
		for _, v := range []struct {
			name string
			opts Options
		}{
			{"shuffle=false", Options{Slots: 1024}},
			{"shuffle=true", Options{Slots: 1024, PlanShuffle: true}},
			{"slots2048", Options{Slots: 2048}},
		} {
			c, err := Compile(f, v.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			corpus[name+"/"+v.name] = scheduleCase{f: f, c: c}
		}
	}
	for _, dc := range degenerateCases(t) {
		corpus["degenerate/"+dc.name] = scheduleCase{dc.forest, dc.compiled, dc.plainOnly}
	}
	for _, name := range slices.Collect(maps.Keys(corpus)) {
		if sc := corpus[name]; sc.c.Meta.NumTrees >= 2 {
			shards, _, err := ShardForest(sc.c, 2)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, c := range shards {
				corpus[fmt.Sprintf("%s/shard%d", name, i)] = scheduleCase{sc.f, c, sc.plainOnly}
			}
		}
	}
	return corpus
}

// prepareScheduleCase stages sc for one scenario, shuffled or not, and
// holds Prepare to the plan: a shuffling service stages exactly the
// models whose result lands at or above the shuffle's entry — compiled
// with PlanShuffle, a shard of one, or an old artifact planned at load —
// and every other model is refused with the shuffle stage's typed error.
// It returns nil for a refused model.
func prepareScheduleCase(t *testing.T, b he.Backend, sc scheduleCase, encModel, encQuery, shuffle bool) *ModelOperands {
	t.Helper()
	m, err := Prepare(b, sc.c, encModel, encQuery, shuffle)
	plan := sc.c.Meta.LevelPlan
	if !shuffle || plan.For(encModel).Final >= plan.ShuffleLevel() {
		if err != nil {
			t.Fatalf("Prepare(enc=%v, shuffle=%v): %v", encModel, shuffle, err)
		}
		return m
	}
	var infeasible *PlanInfeasibleError
	if !errors.As(err, &infeasible) || infeasible.Stage != "shuffle" {
		t.Fatalf("Prepare(enc=%v) of a result at level %d for a shuffle entered at %d: %v, want the shuffle stage's *PlanInfeasibleError",
			encModel, plan.For(encModel).Final, plan.ShuffleLevel(), err)
	}
	return nil
}

// TestProgramSchedulesAreValid checks the static schedule of every
// program the corpus builds: every configuration and plane packing,
// shuffled and not, the degenerate shapes and the shards. A shuffled
// cell of a model without the shuffle's headroom checks the refusal.
func TestProgramSchedulesAreValid(t *testing.T) {
	for name, sc := range scheduleCorpus(t) {
		b := heclear.New(sc.c.Meta.Slots, 65537)
		for _, cfg := range schedConfigs {
			for _, shuffle := range []bool{false, true} {
				sub := name + "/" + cfg.name
				if shuffle {
					sub += "/shuffled"
				}
				t.Run(sub, func(t *testing.T) {
					m := prepareScheduleCase(t, b, sc, cfg.encModel, cfg.encQuery, shuffle)
					if m == nil {
						return
					}
					for _, pk := range m.packings {
						checkSchedule(t, pk.program)
					}
				})
			}
		}
	}
}

// TestScheduleCorpusMatchesForest is the forest oracle over the same
// corpus: every model it stages, in the three staging configurations and
// shuffled where the plan allows, classifies a random batch at every plane packing
// exactly like its forest's trees, on the exact backend. (The BGV sweeps
// over the benchmark's models are TestProgramBillMatchesBackendCounters and
// TestPlanePackingMatchesForest.)
func TestScheduleCorpusMatchesForest(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 1))
	for name, sc := range scheduleCorpus(t) {
		b := heclear.New(sc.c.Meta.Slots, 65537)
		start := 0
		if sc.c.Shard != nil {
			start = sc.c.Shard.TreeStart
		}
		for _, cfg := range schedConfigs {
			if cfg.encModel && sc.plainOnly {
				continue
			}
			for _, shuffle := range []bool{false, true} {
				plan := sc.c.Meta.LevelPlan
				if shuffle && plan.For(cfg.encModel).Final < plan.ShuffleLevel() {
					continue
				}
				sub := name + "/" + cfg.name
				if shuffle {
					sub += "/shuffled"
				}
				t.Run(sub, func(t *testing.T) {
					m := prepareScheduleCase(t, b, sc, cfg.encModel, cfg.encQuery, shuffle)
					for _, fill := range packingFills(&sc.c.Meta) {
						batch := make([][]uint64, fill)
						for i := range batch {
							batch[i] = randomFeatures(rng, sc.f.NumFeatures, sc.f.Precision)
						}
						q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
						if err != nil {
							t.Fatal(err)
						}
						out, cbs, _ := classifyCase(t, &Engine{Backend: b}, m, q)
						checkVotes(t, b, sc.f, m, out, cbs, batch, m.Meta.QueryCapacity(q.PlanesPerCiphertext), start)
					}
				})
			}
		}
	}
}

// sameOperand reports whether two result operands are the same bytes:
// equal slot vectors on the exact backend, equal residue polynomials on
// BGV.
func sameOperand(t *testing.T, b he.Backend, x, y he.Operand) bool {
	t.Helper()
	bb, ok := b.(*hebgv.Backend)
	if !ok {
		xs, err := he.Reveal(b, x)
		if err != nil {
			t.Fatal(err)
		}
		ys, err := he.Reveal(b, y)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Equal(xs, ys)
	}
	xc, _, err := bb.ExportCiphertext(x.Ct)
	if err != nil {
		t.Fatal(err)
	}
	yc, _, err := bb.ExportCiphertext(y.Ct)
	if err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(xc.C, yc.C)
}

// checkScheduleIndependent runs one query batch through m sequentially,
// on 2, 3 and 8 workers, and on 3 workers with the ready queue in random
// order, and asserts every run returns the sequential run's result byte
// for byte — and that it is the right answer.
func checkScheduleIndependent(t *testing.T, b he.Backend, f *model.Forest, m *ModelOperands, batch [][]uint64, encQuery bool, treeStart int) {
	t.Helper()
	q, err := PrepareQueryBatch(b, &m.Meta, batch, encQuery)
	if err != nil {
		t.Fatal(err)
	}
	want, cbs, _ := classifyCase(t, &Engine{Backend: b, Workers: 1}, m, q)
	checkVotes(t, b, f, m, want, cbs, batch, m.Meta.QueryCapacity(q.PlanesPerCiphertext), treeStart)
	rng := rand.New(rand.NewPCG(uint64(len(batch)), 0x5ced))
	random := func(n int) []int32 {
		order := make([]int32, n)
		for i, k := range rng.Perm(n) {
			order[i] = int32(k)
		}
		return order
	}
	for _, e := range []*Engine{
		{Backend: b, Workers: 2}, {Backend: b, Workers: 3}, {Backend: b, Workers: 8},
		{Backend: b, Workers: 3, shuffleReady: random}, {Backend: b, Workers: 3, shuffleReady: random},
	} {
		got, _, trace := classifyCase(t, e, m, q)
		if trace.Workers != e.Workers {
			t.Errorf("trace reports %d workers, engine has %d", trace.Workers, e.Workers)
		}
		if !sameOperand(t, b, want, got) {
			t.Errorf("workers=%d random=%v: result differs from the sequential pass", e.Workers, e.shuffleReady != nil)
		}
	}
}

// TestScheduleIndependent is the scheduler's correctness property: the
// result ciphertext does not depend on the worker count or on the order
// ready ops are taken in. It sweeps the three staging configurations ×
// the result shuffle on or off × one batch fill per plane packing (the
// lone query to the full batch) on both backends, plus a model of four
// level lanes and a forest sharded two ways. Part of the CI -race list.
func TestScheduleIndependent(t *testing.T) {
	backends := []string{"clear"}
	if !testing.Short() {
		backends = append(backends, "bgv")
	}
	rng := rand.New(rand.NewPCG(14, 9))
	for _, backend := range backends {
		for _, cfg := range schedConfigs {
			newBackend := func(c *Compiled) he.Backend {
				if backend == "bgv" {
					return planBackend(t, c, cfg.encModel)
				}
				return heclear.New(c.Meta.Slots, 65537)
			}
			for _, tc := range []struct {
				name     string
				f        *model.Forest
				shuffled bool
			}{
				{"shuffle=false", model.Figure1(), false}, {"shuffle=true", model.Figure1(), true},
				{"lanes4", lanes4Forest(t), false}, // the accumulate stage's rotations
			} {
				t.Run(fmt.Sprintf("%s/%s/%s", backend, cfg.name, tc.name), func(t *testing.T) {
					f := tc.f
					c, err := Compile(f, Options{Slots: 1024, PlanShuffle: tc.shuffled})
					if err != nil {
						t.Fatal(err)
					}
					b := newBackend(c)
					m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, tc.shuffled)
					if err != nil {
						t.Fatal(err)
					}
					for _, fill := range packingFills(&c.Meta) {
						batch := make([][]uint64, fill)
						for i := range batch {
							batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
						}
						checkScheduleIndependent(t, b, f, m, batch, cfg.encQuery, 0)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/%s/sharded", backend, cfg.name), func(t *testing.T) {
				f := shardTestForest(t, 77)
				c, err := Compile(f, Options{Slots: 1024})
				if err != nil {
					t.Fatal(err)
				}
				shards, _, err := ShardForest(c, 2)
				if err != nil {
					t.Fatal(err)
				}
				b := newBackend(c)
				batch := [][]uint64{randomFeatures(rng, f.NumFeatures, f.Precision), randomFeatures(rng, f.NumFeatures, f.Precision)}
				for _, sc := range shards {
					m, err := Prepare(b, sc, cfg.encModel, cfg.encQuery, false)
					if err != nil {
						t.Fatal(err)
					}
					checkScheduleIndependent(t, b, f, m, batch, cfg.encQuery, sc.Shard.TreeStart)
				}
			})
		}
	}
}

// TestCancelStopsWithinOneOp cancels a pass in the middle of its compare
// stage, every op of which a chaos latency schedule stretches to a known
// length: the pass must return within a few op times — not at the end of
// the stage — with the context's error, and leave no goroutine behind.
func TestCancelStopsWithinOneOp(t *testing.T) {
	const opTime = 5 * time.Millisecond
	sched := chaos.NewSchedule(chaos.Config{Seed: 3, Default: chaos.Rates{Latency: 1, LatencyMin: opTime, LatencyMax: opTime}})
	b := chaos.WrapBackend(heclear.New(1024, 65537), sched)
	f := planForests(t, false)["depth4"]
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	// A full batch: one plane per ciphertext is the longest compare stage.
	batch := make([][]uint64, m.Meta.BatchCapacity())
	for i := range batch {
		batch[i] = make([]uint64, f.NumFeatures)
	}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		// The compare stage alone outlasts the cancellation by far.
		compare := time.Duration(m.ProgramFor(q.PlanesPerCiphertext).sched.stageEnd[stCompare]/2/workers) * opTime
		const cancelAfter = 4 * opTime
		if compare < 5*cancelAfter {
			t.Fatalf("compare stage is only ~%v long; the test needs a longer one", compare)
		}
		before := runtime.NumGoroutine()
		sched.Arm(true)
		ctx, cancel := context.WithCancel(context.Background())
		var cancelled time.Time
		timer := time.AfterFunc(cancelAfter, func() {
			cancelled = time.Now()
			cancel()
		})
		_, _, _, err := (&Engine{Backend: b, Workers: workers}).Classify(ctx, m, q, 0)
		returned := time.Now()
		timer.Stop()
		sched.Arm(false)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled pass returned %v, want context.Canceled", workers, err)
		}
		// An op in flight finishes; nothing new starts. The bound leaves
		// room for a slow CI host and is still far below the stage.
		if late := returned.Sub(cancelled); late > 8*opTime {
			t.Errorf("workers=%d: pass returned %v after cancellation, want within a few %v ops (compare stage: ~%v)", workers, late, opTime, compare)
		}
		// ClassifyCtx waits for its helpers, so none can outlive it; the
		// timer's goroutine may take a moment to exit.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("workers=%d: %d goroutines before the pass, %d after", workers, before, n)
		}
	}
}
