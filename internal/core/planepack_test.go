package core

import (
	"errors"
	"testing"

	"copse/internal/he"
	"copse/internal/he/heclear"
	"copse/internal/model"
)

// TestPlanePackingFollowsBatchFill pins the layout rule: the packing is
// the largest power of two the idle block groups hold, capped by the
// precision rounded up, and the operand count is ⌈p/g⌉.
func TestPlanePackingFollowsBatchFill(t *testing.T) {
	prec16, err := Compile(microForest(t, "prec16"), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	m := &prec16.Meta
	if m.BatchCapacity() != 16 || m.BatchBlock() != 64 {
		t.Fatalf("prec16 stages %d blocks of %d slots, want 16 of 64", m.BatchCapacity(), m.BatchBlock())
	}
	for batch, g := range map[int]int{1: 16, 2: 8, 3: 4, 4: 4, 5: 2, 8: 2, 9: 1, 16: 1} {
		if got := m.PlanesPerCiphertext(batch); got != g || m.QueryCiphertexts(g) != 16/g || m.QueryCapacity(g) != 16/g {
			t.Errorf("batch of %d: %d planes per ciphertext in %d ciphertexts for %d queries, want %d in %d for %d",
				batch, got, m.QueryCiphertexts(got), m.QueryCapacity(got), g, 16/g, 16/g)
		}
	}
	// Figure 1 at Slots 1024 has more idle blocks (64) than planes (4): the
	// precision caps the packing, and a quarter-full batch still rides it.
	fig, err := Compile(model.Figure1(), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if g := fig.Meta.PlanesPerCiphertext(16); g != 4 || fig.Meta.QueryCiphertexts(g) != 1 {
		t.Errorf("figure1, batch of 16 of 64: %d planes per ciphertext, want all 4 in one", g)
	}
	// A model that fills the slots has no idle block to ride.
	full, err := Compile(model.Figure1(), Options{Slots: 16})
	if err != nil {
		t.Fatal(err)
	}
	if g := full.Meta.PlanesPerCiphertext(1); full.Meta.BatchCapacity() != 1 || g != 1 {
		t.Errorf("capacity-%d model packs %d planes per ciphertext, want 1", full.Meta.BatchCapacity(), g)
	}
}

// TestLoneQueryOpBudget is the deterministic form of the claim: a lone
// prec16 query under Offload is one encryption, and its compare stage —
// one product for gt, then log2 16 rotate-and-multiply rounds — at most
// 16 key switches, where one plane per ciphertext pays 59 products.
func TestLoneQueryOpBudget(t *testing.T) {
	f := microForest(t, "prec16")
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b := heclear.New(1024, 65537)
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	before := b.Counts()
	q, err := PrepareQuery(b, &m.Meta, make([]uint64, f.NumFeatures), true)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Counts().Minus(before).Encrypt; n != 1 || len(q.Bits) != 1 {
		t.Errorf("a lone query is %d encryptions and %d ciphertexts, want 1 and 1", n, len(q.Bits))
	}
	_, trace, err := (&Engine{Backend: b}).Classify(m, q)
	if err != nil {
		t.Fatal(err)
	}
	ops := trace.CompareOps
	if ks := ops.Mul + ops.Relin + ops.Rotate; ks > 16 || ops.Mul != 8 || ops.Rotate != 7 {
		t.Errorf("lone-query compare stage: %d key switches (%v), want 8 products + 7 rotations", ks, ops)
	}
	full := make([][]uint64, m.Meta.BatchCapacity())
	for i := range full {
		full[i] = make([]uint64, f.NumFeatures)
	}
	if q, err = PrepareQueryBatch(b, &m.Meta, full, true); err != nil {
		t.Fatal(err)
	}
	if _, trace, err = (&Engine{Backend: b}).Classify(m, q); err != nil {
		t.Fatal(err)
	}
	if ops := trace.CompareOps; ops.Mul != 59 || ops.Rotate != 0 || len(q.Bits) != 16 {
		t.Errorf("full-batch compare stage over %d ciphertexts: %v, want the 59 products of one plane per ciphertext", len(q.Bits), ops)
	}
}

// TestLevelOpBudget pins the deterministic bill of the level lanes:
// prec16 under Offload stacks its five level matrices into three operands
// of two lanes, so the levels stage is three mat-vecs over the one hoist —
// 48 lazy tensor products, 12 relinearizations, 9 giant rotations, 3 mask
// products — where one matrix per operand paid 80, 20, 15 and 5, and the
// accumulate stage finishes with one rotation at the depth of a product
// tree over five. A one-lane model (wide8) keeps one mat-vec per level and
// a rotation-free accumulate stage.
func TestLevelOpBudget(t *testing.T) {
	for _, tc := range []struct {
		name          string
		f             *model.Forest
		lanes, ops    int
		levels, accum StageBill // Work aside
	}{
		{"prec16", microForest(t, "prec16"), 2, 3,
			StageBill{Products: 51, Lazy: 48, Relins: 12, Rotations: 12, Hoisted: 3, KeySwitches: 27, Depth: 2},
			StageBill{Products: 3, Rotations: 1, KeySwitches: 4, Depth: 3}},
		{"wide8", wide8Forest(t), 1, 5,
			StageBill{Products: 5*128 + 5, Lazy: 5 * 128, Relins: 5 * 8, Rotations: 5*7 + 15, Hoisted: 15, KeySwitches: 5 + 5*8 + 5*7 + 15, Depth: 2},
			StageBill{Products: 4, KeySwitches: 4, Depth: 3}},
	} {
		c, err := Compile(tc.f, Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if lanes, ops := c.Meta.LevelLanes(); lanes != tc.lanes || ops != tc.ops {
			t.Fatalf("%s: %d stacked operands of %d lanes, want %d of %d", tc.name, ops, lanes, tc.ops, tc.lanes)
		}
		b := heclear.New(1024, 65537)
		m, err := Prepare(b, c, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Levels) != tc.ops || len(m.Masks) != tc.ops {
			t.Errorf("%s: staged %d level operands and %d masks, want %d of each", tc.name, len(m.Levels), len(m.Masks), tc.ops)
		}
		// One staging serves every plane packing: the bill does not depend
		// on the query's layout.
		for _, g := range m.PlanePackings() {
			bills := m.ProgramFor(g).StageBills()
			levels, accum := bills[stLevels], bills[stAccumulate]
			levels.Work, accum.Work = 0, 0
			if levels != tc.levels || accum != tc.accum {
				t.Errorf("%s at %d planes per ciphertext: levels %+v, accumulate %+v; want %+v and %+v", tc.name, g, levels, accum, tc.levels, tc.accum)
			}
		}
		q, err := PrepareQuery(b, &m.Meta, make([]uint64, tc.f.NumFeatures), true)
		if err != nil {
			t.Fatal(err)
		}
		_, trace, err := (&Engine{Backend: b}).Classify(m, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []struct {
			what string
			ops  he.OpCounts
			bill StageBill
		}{{"levels", trace.LevelOps, tc.levels}, {"accumulate", trace.AccumulateOps, tc.accum}} {
			// The exact backend has nothing to relinearize and counts none.
			if ops := st.ops; ops.Mul != int64(st.bill.Products) || ops.Rotate != int64(st.bill.Rotations) || ops.RotateHoisted != int64(st.bill.Hoisted) {
				t.Errorf("%s %s stage ran %v, the bill is %+v", tc.name, st.what, ops, st.bill)
			}
		}
		if trace.LevelLanes != tc.lanes || trace.LevelOperands != tc.ops {
			t.Errorf("%s: trace reports %d level operands of %d lanes", tc.name, trace.LevelOperands, trace.LevelLanes)
		}
	}
}

// TestQueryLayoutErrors: a query whose layout names no staged program is
// a typed error before any op runs; a hand-built query without a layout
// stamp is one plane per operand.
func TestQueryLayoutErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	c, err := Compile(model.Figure1(), Options{Slots: 64}) // p = 4, capacity 4
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true)
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Backend: b}
	lone, err := PrepareQuery(b, &m.Meta, []uint64{1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if lone.PlanesPerCiphertext != 4 || len(lone.Bits) != 1 {
		t.Fatalf("lone query: %d operands at %d planes per ciphertext, want 1 at 4", len(lone.Bits), lone.PlanesPerCiphertext)
	}
	for name, tc := range map[string]struct {
		mutate func(q *Query)
		want   QueryLayoutError
	}{
		"operand count":              {func(q *Query) { q.Bits = append(q.Bits, q.Bits[0]) }, QueryLayoutError{Planes: 2, PlanesPerCiphertext: 4, Block: 16, Want: 1}},
		"packing above the capacity": {func(q *Query) { q.PlanesPerCiphertext = 8 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 8, Block: 16}},
		"packing not a power of two": {func(q *Query) { q.PlanesPerCiphertext = 3 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 3, Block: 16}},
		"unstamped with one operand": {func(q *Query) { q.PlanesPerCiphertext = 0 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 1, Block: 16, Want: 4}},
		"packed for another model": {func(q *Query) { q.K, q.Block = 4, 32 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 4, Block: 32,
			Packed: QueryPacking{NumFeatures: 2, K: 4, QPad: 8, Block: 32}, Model: QueryPacking{NumFeatures: 2, K: 3, QPad: 8, Block: 16}}},
	} {
		q := *lone
		q.Bits = append([]he.Operand(nil), lone.Bits...)
		tc.mutate(&q)
		_, _, err := e.Classify(m, &q)
		var le *QueryLayoutError
		if !errors.As(err, &le) || *le != tc.want {
			t.Errorf("%s: Classify error %v, want %+v", name, err, tc.want)
		}
	}
	// One plane per operand, no stamps: the hand-built query of old.
	full, err := PrepareQueryBatch(b, &m.Meta, [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Classify(m, &Query{Bits: full.Bits, Batch: 4}); err != nil {
		t.Errorf("hand-built query of %d planes: %v", len(full.Bits), err)
	}
}
