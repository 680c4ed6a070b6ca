package core

import (
	"fmt"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

// programRotation is one rotation an op of a staged program issues: its
// step, and the level pass's estimate of the register rotated.
type programRotation struct {
	step int
	reg  est
}

// stagedRotations walks the ops of every program m staged — one per
// plane packing — and lists the rotations they issue.
func stagedRotations(m *ModelOperands) []programRotation {
	var out []programRotation
	for _, pk := range m.packings {
		p := pk.program
		for _, op := range p.ops {
			var steps []int
			switch op.Code {
			case opRot, opRotLazy:
				steps = []int{op.Imm}
			case opHoist:
				steps = p.hoists[op.Imm]
			}
			for _, s := range steps {
				out = append(out, programRotation{step: s, reg: p.est[op.A]})
			}
		}
	}
	return out
}

// checkKeysFollowPrograms holds b's Galois keys to the programs staged
// on it, both ways: every rotation of a ciphertext register has a
// direct key at or above the level the register sits at, each key sits
// exactly at the highest such level, and
// no key exists for an element no program rotates by.
func checkKeysFollowPrograms(t *testing.T, b *hebgv.Backend, staged ...*ModelOperands) {
	t.Helper()
	params, keys := b.Parameters(), b.Material().Keys
	ev := bgv.NewEvaluator(params, keys)
	top := params.MaxLevel()
	rotated := map[uint64]bool{}
	need := map[uint64]int{}
	for _, m := range staged {
		for _, r := range stagedRotations(m) {
			if r.step%params.Slots() == 0 {
				continue
			}
			elt := params.GaloisElt(r.step)
			rotated[elt] = true
			if !r.reg.cipher {
				continue
			}
			level := min(r.reg.level, top)
			need[elt] = max(need[elt], level)
			if _, _, err := ev.GaloisKey(r.step, level); err != nil {
				t.Errorf("rotation by %d at level %d: %v", r.step, level, err)
			}
		}
	}
	for elt, k := range keys.Galois {
		switch want, ok := need[elt]; {
		case !rotated[elt]:
			t.Errorf("Galois key for element %d: no program rotates by it", elt)
		case !ok:
			t.Errorf("Galois key for element %d: the programs rotate only plaintexts by it", elt)
		case k.Level() != want:
			t.Errorf("Galois key for element %d sits at level %d, the programs rotate it at %d at most", elt, k.Level(), want)
		}
	}
}

// TestKeysFollowPrograms stages the benchmark models — depth4, prec16,
// wide8, and wide8's two shards onto one backend, as a worker holding
// both stages them — on BGV, in each scenario configuration (Offload,
// ServerModel, ClientEval), shuffled and not. Staging makes the key set:
// after it, the backend holds exactly the Galois keys the staged op
// programs rotate by, each at the highest level one is rotated at.
func TestKeysFollowPrograms(t *testing.T) {
	forests := map[string]*model.Forest{"depth4": microForest(t, "depth4"), "prec16": microForest(t, "prec16"), "wide8": wide8Forest(t)}
	for _, name := range []string{"depth4", "prec16", "wide8", "wide8-shards"} {
		for _, shuffle := range []bool{false, true} {
			for _, cfg := range schedConfigs {
				t.Run(fmt.Sprintf("%s/shuffle=%v/%s", name, shuffle, cfg.name), func(t *testing.T) {
					f := forests[name]
					if name == "wide8-shards" {
						f = forests["wide8"]
					}
					c, err := Compile(f, Options{Slots: 1024, PlanShuffle: shuffle})
					if err != nil {
						t.Fatal(err)
					}
					models := []*Compiled{c}
					if name == "wide8-shards" {
						if models, _, err = ShardForest(c, 2); err != nil {
							t.Fatal(err)
						}
					}
					b := planBackend(t, models[0], cfg.encModel)
					var staged []*ModelOperands
					for _, mc := range models {
						m, err := Prepare(b, mc, cfg.encModel, cfg.encQuery, shuffle)
						if err != nil {
							t.Fatal(err)
						}
						staged = append(staged, m)
					}
					checkKeysFollowPrograms(t, b, staged...)
				})
			}
		}
	}
}
