package copse_test

import (
	"context"
	"slices"
	"testing"

	"copse"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/synth"
)

// laneShape is one model of the level-lane oracle: a forest generated so
// that its blocks split into the stated lanes (a narrow branch vector
// under a block the feature count makes wide), with the stacked operands
// that makes of its levels — for the whole model and, when it is split,
// for every shard.
type laneShape struct {
	name                 string
	spec                 synth.ForestSpec
	slots, shards        int
	levels, lanes, ops   int
	shardLanes, shardOps int
	capacity             int  // the batch capacity the case is about, when it is
	bgv                  bool // also served on BGV (Slots 1024)
	full                 bool // left to the full suite
}

// laneShapes are the geometries of Meta.LevelLanes: every lane a level,
// identity lanes padding the last operand (D not a multiple of h), fewer
// levels than the block has room for (the lanes widen), a capacity-1 model
// that still has lanes, and a split whose shards stack deeper than their
// parent. depth4 and prec16 (two lanes; a fifth level beside an identity
// lane) and wide8 with its two shards (one lane under Meta.ForcedSPad) run
// through the same loop in TestPlanePackingMatchesForest.
var laneShapes = []laneShape{
	{name: "lanes4-levels3", slots: 1024, levels: 3, lanes: 4, ops: 1, bgv: true,
		spec: synth.ForestSpec{NumFeatures: 10, NumLabels: 3, Precision: 6, MaxDepth: 3, BranchesPerTree: []int{3}, Seed: 3}},
	{name: "lanes4-levels6", slots: 1024, levels: 6, lanes: 4, ops: 2, bgv: true,
		spec: synth.ForestSpec{NumFeatures: 12, NumLabels: 3, Precision: 5, MaxDepth: 6, BranchesPerTree: []int{6}, Seed: 6}},
	{name: "lanes2-levels5", slots: 1024, levels: 5, lanes: 2, ops: 3, bgv: true, full: true,
		spec: synth.ForestSpec{NumFeatures: 12, NumLabels: 3, Precision: 6, MaxDepth: 5, BranchesPerTree: []int{5}, Seed: 4}},
	{name: "wide-lanes2-levels2", slots: 1024, levels: 2, lanes: 2, ops: 1, bgv: true, full: true,
		spec: synth.ForestSpec{NumFeatures: 12, NumLabels: 3, Precision: 6, MaxDepth: 2, BranchesPerTree: []int{3}, Seed: 5}},
	{name: "split", slots: 1024, shards: 2, levels: 3, lanes: 2, ops: 2, shardLanes: 4, shardOps: 1, bgv: true,
		spec: synth.ForestSpec{NumFeatures: 16, NumLabels: 3, Precision: 5, MaxDepth: 3, BranchesPerTree: []int{4, 3, 4, 3}, Seed: 7}},
	{name: "capacity1", slots: 128, levels: 3, lanes: 2, ops: 2, capacity: 1, full: true,
		spec: synth.ForestSpec{NumFeatures: 16, NumLabels: 3, Precision: 5, MaxDepth: 3, BranchesPerTree: []int{4, 3, 4, 3}, Seed: 7}},
}

// TestLevelLanesMatchForest is the oracle of the level stage's lane axis:
// however many level matrices a model's blocks evaluate side by side, and
// whatever the accumulate rounds leave in the lanes past the first, every
// answer is model.Forest.Classify's bit for bit — through the loop of
// TestPlanePackingMatchesForest (six scenarios, shuffled and not, every
// plane packing from the lone query to the full batch, exact backend and
// BGV) — and the results of a split model's shards, each with residue in
// its own lanes, still merge by plain addition.
func TestLevelLanesMatchForest(t *testing.T) {
	turn := 0
	for _, ls := range laneShapes {
		if ls.full && testing.Short() {
			continue
		}
		f := generateForest(t, ls.spec)
		models := packModel(t, ls.name, f, ls.slots, ls.shards, ls.bgv)
		for i, pm := range models {
			wantLanes, wantOps := ls.lanes, ls.ops
			if i > 0 {
				wantLanes, wantOps = ls.shardLanes, ls.shardOps
			}
			m := &pm.compiled[false].Meta
			if lanes, ops := m.LevelLanes(); lanes != wantLanes || ops != wantOps || (i == 0 && m.D != ls.levels) ||
				(ls.capacity > 0 && m.BatchCapacity() != ls.capacity) {
				t.Fatalf("%s: %d levels in %d stacked operands of %d lanes at capacity %d, the case is %d levels in %d of %d",
					pm.name, m.D, ops, lanes, m.BatchCapacity(), ls.levels, wantOps, wantLanes)
			}
			pm.heavy = false
			servePacked(t, pm, &turn)
		}
		if ls.shards > 0 {
			t.Run(ls.name+"/merge", func(t *testing.T) { checkLaneMerge(t, f, models) })
		}
	}
}

// checkLaneMerge classifies one encrypted batch on every shard of a split
// model and adds the result operands, as the gateway does: the sum must
// decode, against the parent's layout, to the forest's answers.
func checkLaneMerge(t *testing.T, f *copse.Forest, models []packedModel) {
	svc := copse.NewService(copse.WithBackend(copse.BackendClear), copse.WithScenario(copse.ScenarioServerModel), copse.WithSeed(19))
	defer svc.Close()
	for _, pm := range models {
		if err := svc.Register(pm.name, pm.compiled[false]); err != nil {
			t.Fatal(err)
		}
	}
	whole := models[0]
	meta := &whole.compiled[false].Meta
	for _, n := range []int{1, meta.BatchCapacity()} {
		batch := randomBatch(f, n, uint64(40+n))
		q, err := svc.EncryptQueryBatch(whole.name, batch)
		if err != nil {
			t.Fatal(err)
		}
		var merged he.Operand
		for i, pm := range models[1:] {
			enc, _, err := svc.Classify(context.Background(), pm.name, q)
			if err != nil {
				t.Fatalf("%s: %v", pm.name, err)
			}
			op, _, err := enc.Operand()
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				merged = op
			} else if merged, err = he.Add(svc.Backend(), merged, op); err != nil {
				t.Fatal(err)
			}
		}
		slots, err := he.Reveal(svc.Backend(), merged)
		if err != nil {
			t.Fatal(err)
		}
		results, err := core.DecodeResultBatch(meta, slots, n, meta.QueryCapacity(q.PlanesPerCiphertext))
		if err != nil {
			t.Fatalf("batch of %d: decoding the merged result: %v", n, err)
		}
		for i, feats := range batch {
			if want := f.Classify(feats); !slices.Equal(results[i].PerTree, want) {
				t.Errorf("batch of %d, query %d %v: merged shards say %v, forest says %v", n, i, feats, results[i].PerTree, want)
			}
		}
	}
}

// TestLevelLanesOverGroupsMatchForest is the oracle of the level stage's group axis
// (DESIGN.md §13.5): on BGV, whatever share of the blocks a batch fills —
// so whether its level stage runs over the lanes of a block or over those
// of every lane group, with the selector that zeroes the decisions outside
// block group 0, the rotate-and-add that fills the groups and the rounds
// that fold them — every answer from the lone query to the full batch is
// model.Forest.Classify's, with and without the result shuffle (which has
// the residue of the groups past the first to select out), in each of the
// three ways a model and a query are staged, on an evaluator that aligns
// no operand itself. The models are the benchmark's (prec16: 2 lanes × 4
// groups; depth4: 2 × 2; wide8 and its two shards: 1 × 4), a one-lane Table
// 6 model (width55) and the four-lane one, which has two groups. The short
// suite keeps both edges of every packing, which the two oracles above
// already serve for every model here but width55.
func TestLevelLanesOverGroupsMatchForest(t *testing.T) {
	var models []packedModel
	for _, mb := range synth.Microbenchmarks() {
		if mb.Name == "prec16" || mb.Name == "depth4" || mb.Name == "width55" {
			models = append(models, packModel(t, mb.Name, generateForest(t, mb.Spec), 1024, 0, true)...)
		}
	}
	models = append(models, packModel(t, "wide8", generateForest(t, synth.ForestSpec{
		Name: "wide8", NumFeatures: 4, NumLabels: 3, Precision: 8, MaxDepth: 5,
		BranchesPerTree: []int{15, 15, 15, 15, 15, 15, 15, 15}, Seed: 1,
	}), 1024, 2, true)...)
	models = append(models, packModel(t, "lanes4", generateForest(t, laneShapes[1].spec), 1024, 0, true)...)
	want := map[string][2]int{"prec16": {2, 4}, "depth4": {2, 2}, "width55": {1, 8}, "wide8": {1, 4}, "wide8-shard0": {1, 4}, "wide8-shard1": {1, 4}, "lanes4": {4, 2}}
	turn := 0
	for _, pm := range models {
		if testing.Short() && pm.name != "width55" {
			continue
		}
		m := &pm.compiled[false].Meta
		lanes, groups, _ := m.LevelLayout(m.PlanesPerCiphertext(1))
		if w := want[pm.name]; lanes != w[0] || groups != w[1] {
			t.Fatalf("%s: a lone query runs on %d lanes × %d groups, the case is %d × %d", pm.name, lanes, groups, w[0], w[1])
		}
		pm.bgv, pm.sweep = true, true
		servePacked(t, pm, &turn, copse.BackendBGV)
	}
}
