package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"copse/internal/he"
	"copse/internal/he/heclear"
)

// TestLevelGroupsOnTheExactBackend reads the carriers of every program of
// the lane-group corpus off the exact backend, at the lone query and at
// the largest batch of every plane packing, under an encrypted and a
// plaintext model:
//
//   - the branch vector is BPad-periodic across the whole block of every
//     query — whether the reshuffle rows were staged repeated and one
//     rotation by −SPad finishes it (encrypted model) or the doubling chain
//     does (plaintext model) — in every lane group;
//   - under a grouped layout the decisions are exactly 0 outside block
//     group 0 after the selector, so the rotate-and-add that fills the
//     groups is exact: every group holds group 0's branch vector;
//   - lane 0 of every query block of the result equals, slot for slot, the
//     result of the same packing's program built over the lanes of a block
//     alone (G = 1), which is the forest's answer.
func TestLevelGroupsOnTheExactBackend(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 2))
	corpus := alignCorpus(t)
	if _, ok := corpus["width55"]; !ok {
		c, err := Compile(microForest(t, "width55"), Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		corpus["width55"] = alignCase{f: microForest(t, "width55"), c: c}
	}
	grouped := 0
	for name, ac := range corpus {
		f, c := ac.f, ac.c
		meta := &c.Meta
		slots, block := meta.Slots, meta.BatchBlock()
		for _, encModel := range []bool{true, false} {
			b := heclear.New(slots, 65537)
			m, err := Prepare(b, c, encModel, true, false)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.packings {
				g := 1 << i
				lanes, groups, _ := meta.LevelLayout(g)
				// The same packing over the lanes of a block alone.
				alone := *m
				alone.packings = slices.Clone(m.packings)
				pk := &alone.packings[i]
				pk.levels = &levelStaging{lanes: lanes, groups: 1, mats: m.Levels, masks: m.Masks}
				if pk.program, err = newProgram(b, alone.progInputs(g, pk.levels)); err != nil {
					t.Fatal(err)
				}
				for _, fill := range []int{1, meta.QueryCapacity(g)} {
					if meta.PlanesPerCiphertext(fill) != g {
						continue // the lone query belongs to the top packing only
					}
					t.Run(fmt.Sprintf("%s/enc=%v/g=%d/fill=%d", name, encModel, g, fill), func(t *testing.T) {
						batch := make([][]uint64, fill)
						for k := range batch {
							batch[k] = randomFeatures(rng, f.NumFeatures, f.Precision)
						}
						q, err := PrepareQueryBatch(b, meta, batch, true)
						if err != nil {
							t.Fatal(err)
						}
						// The carriers, off a register file of the program's ops
						// run in program order; the engine's pass recycles its own.
						pk, p := m.packings[i], m.packings[i].program
						in := passInputs{query: q.Bits, thresholds: pk.thresholds, levels: pk.levels, reshuffle: m.Reshuffle}
						ps := &pass{passScratch: newPassScratch(p), passInputs: in, b: he.WithCounts(b), p: p}
						for i := range p.ops {
							if err := ps.runOp(i); err != nil {
								t.Fatal(err)
							}
						}
						decisions, _ := he.Reveal(b, ps.regs[p.regDecisions])
						branch, _ := he.Reveal(b, ps.regs[p.regBranchVec])
						out, _, trace, err := (&Engine{Backend: b}).Classify(context.Background(), m, q, 0)
						if err != nil {
							t.Fatal(err)
						}
						if trace.LevelGroups != groups || trace.LevelLanes != lanes {
							t.Fatalf("ran on %d lanes × %d groups, the layout is %d × %d", trace.LevelLanes, trace.LevelGroups, lanes, groups)
						}
						if groups > 1 {
							grouped++
							for s := slots / g; s < slots; s++ {
								if decisions[s] != 0 {
									t.Fatalf("decisions slot %d, outside block group 0, holds %d after the selector", s, decisions[s])
								}
							}
						}
						for k := 0; k < fill; k++ {
							base := branch[k*block : (k+1)*block]
							for s, v := range base {
								if v != base[s%meta.BPad] {
									t.Fatalf("query %d: branch vector slot %d holds %d, slot %d holds %d: not %d-periodic across the block", k, s, v, s%meta.BPad, base[s%meta.BPad], meta.BPad)
								}
							}
							for j := 1; j < groups; j++ {
								at := j*slots/groups + k*block
								if !slices.Equal(branch[at:at+block], base) {
									t.Fatalf("query %d: lane group %d does not hold group 0's branch vector", k, j)
								}
							}
						}
						ref, _, _, err := (&Engine{Backend: b}).Classify(context.Background(), &alone, q, 0)
						if err != nil {
							t.Fatal(err)
						}
						got, _ := he.Reveal(b, out)
						want, _ := he.Reveal(b, ref)
						if direct, _ := he.Reveal(b, ps.regs[p.result]); !slices.Equal(direct, got) {
							t.Fatal("the ops in program order and the engine's pass disagree on the result")
						}
						for k := 0; k < fill; k++ {
							lo, hi := k*block, k*block+meta.NumLeaves
							if !slices.Equal(got[lo:hi], want[lo:hi]) {
								t.Errorf("query %d: lane 0 holds %v, the G = 1 program's result is %v", k, got[lo:hi], want[lo:hi])
							}
						}
						results, err := DecodeResultBatch(meta, got, fill, meta.QueryCapacity(g))
						if err != nil {
							t.Fatal(err)
						}
						start := 0
						if c.Shard != nil {
							start = c.Shard.TreeStart
						}
						for k, res := range results {
							if want := f.Classify(batch[k])[start : start+len(res.PerTree)]; !slices.Equal(res.PerTree, want) {
								t.Errorf("query %d: classified %v, forest says %v", k, res.PerTree, want)
							}
						}
					})
				}
			}
		}
	}
	if grouped == 0 {
		t.Error("no program of the corpus ran on a grouped layout")
	}
}
