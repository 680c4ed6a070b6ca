package core

import (
	"testing"

	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/matrix"
)

// TestPlainStagingResidentOperands counts the plaintext diagonal operands
// a plaintext model keeps resident: the benchmark's cluster shards (wide8
// split in two) and depth4, staged under the server-model scenario. Every
// diagonal of the reshuffle and of both level stagings has a slot in Ops
// (576, 576 and 80), but only the nonzero ones (156, 146 and 36) and one
// shared zero operand per matrix that has zero diagonals are staged: the
// programs skip the rest. The threshold planes, which the programs fold
// into constants, are values only.
func TestPlainStagingResidentOperands(t *testing.T) {
	wide8, err := Compile(wide8Forest(t), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, _, err := ShardForest(wide8, 2)
	if err != nil {
		t.Fatal(err)
	}
	depth4, err := Compile(microForest(t, "depth4"), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name               string
		c                  *Compiled
		diagonals, nonzero int
	}{
		{"wide8/shard0", shards[0], 576, 156},
		{"wide8/shard1", shards[1], 576, 146},
		{"depth4", depth4, 80, 36},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := heclear.New(1024, 65537)
			m, err := Prepare(b, tc.c, false, true, false)
			if err != nil {
				t.Fatal(err)
			}
			mats := append([]*matrix.Diagonals{m.Reshuffle}, m.Levels...)
			if m.grouped != nil {
				mats = append(mats, m.grouped.mats...)
			}
			diagonals, nonzero, withZero := 0, 0, 0
			staged := map[he.Plain]bool{}
			for _, d := range mats {
				diagonals += len(d.Ops)
				hasZero := false
				for i, op := range d.Ops {
					if op.Pt == nil || op.Ct != nil {
						t.Fatalf("diagonal %d of a plaintext model is not a plaintext", i)
					}
					staged[op.Pt] = true
					if d.Zero[i] {
						hasZero = true
					} else {
						nonzero++
					}
				}
				if hasZero {
					withZero++
				}
			}
			if diagonals != tc.diagonals || nonzero != tc.nonzero {
				t.Errorf("%d diagonals, %d nonzero; the benchmark's model has %d, %d", diagonals, nonzero, tc.diagonals, tc.nonzero)
			}
			if len(staged) != nonzero+withZero {
				t.Errorf("%d distinct diagonal operands staged, want the %d nonzero plus one zero for each of %d matrices", len(staged), nonzero, withZero)
			}
			t.Logf("%d diagonals over %d matrices: %d staged", diagonals, len(mats), len(staged))
			for _, pk := range m.packings {
				for j, op := range pk.thresholds {
					if op.Pt != nil || op.Ct != nil || len(op.Vals) != b.Slots() {
						t.Errorf("threshold plane %d of a plaintext model is staged as an operand, not values", j)
					}
				}
			}
		})
	}
}
