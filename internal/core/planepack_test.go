package core

import (
	"context"
	"errors"
	"slices"
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
// 16 key switches, where one plane per ciphertext pays 43 products: 16
// for gt and 27 in the reduction tree over the ciphertexts.
func TestLoneQueryOpBudget(t *testing.T) {
	f := microForest(t, "prec16")
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	b := heclear.New(1024, 65537)
	m, err := Prepare(b, c, true, true, false)
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
	_, _, trace, err := (&Engine{Backend: b}).Classify(context.Background(), m, q, 0)
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
	if _, _, trace, err = (&Engine{Backend: b}).Classify(context.Background(), m, q, 0); err != nil {
		t.Fatal(err)
	}
	if ops := trace.CompareOps; ops.Mul != 43 || ops.Rotate != 0 || len(q.Bits) != 16 {
		t.Errorf("full-batch compare stage over %d ciphertexts: %v, want the 43 products of one plane per ciphertext", len(q.Bits), ops)
	}
}

// TestLevelOpBudget pins the deterministic bill of the level layouts.
// prec16 under Offload stacks its five levels into three operands of two
// lanes for the packings that fill more than a quarter of the blocks —
// three mat-vecs over the one hoist: 48 lazy tensor products, 12
// relinearizations, 9 giant rotations and, the masks being folded into the
// signed matrices, no mask product and depth 1 — and from packing 4 up
// into one operand of 2 lanes × 4 groups: one mat-vec, 16 / 4 / 3, two
// more rotations in the reshuffle stage to fill the groups and two more
// rounds in accumulate to fold them, at the depth of a product tree over
// five either way. A one-lane model (wide8) keeps one mat-vec per level and
// a rotation-free accumulate stage below its four groups, and runs two
// mat-vecs over them.
func TestLevelOpBudget(t *testing.T) {
	type layoutBill struct {
		lanes, groups, ops int
		levels, accum      keyBill
	}
	for _, tc := range []struct {
		name           string
		f              *model.Forest
		block, grouped layoutBill
		// selectors counts the plaintext products that zero the lone
		// query's decisions outside block group 0: one on the result when it
		// is a single operand, one on each factor of the last round's GT
		// when it is several.
		selectors int64
	}{
		{"prec16", microForest(t, "prec16"),
			layoutBill{2, 1, 3,
				keyBill{Products: 48, Lazy: 48, Relins: 12, Rotations: 12, Hoisted: 3, KeySwitches: 24, Depth: 1},
				keyBill{Products: 3, Rotations: 1, KeySwitches: 4, Depth: 3}},
			layoutBill{2, 4, 1,
				keyBill{Products: 16, Lazy: 16, Relins: 4, Rotations: 6, Hoisted: 3, KeySwitches: 10, Depth: 1},
				keyBill{Products: 3, Rotations: 3, KeySwitches: 6, Depth: 3}}, 1},
		{"wide8", wide8Forest(t),
			layoutBill{1, 1, 5,
				keyBill{Products: 5 * 128, Lazy: 5 * 128, Relins: 5 * 8, Rotations: 5*7 + 15, Hoisted: 15, KeySwitches: 5*8 + 5*7 + 15, Depth: 1},
				keyBill{Products: 4, KeySwitches: 4, Depth: 3}},
			layoutBill{1, 4, 2,
				keyBill{Products: 2 * 128, Lazy: 2 * 128, Relins: 2 * 8, Rotations: 2*7 + 15, Hoisted: 15, KeySwitches: 2*8 + 2*7 + 15, Depth: 1},
				keyBill{Products: 3, Rotations: 2, KeySwitches: 5, Depth: 3}}, 2},
	} {
		c, err := Compile(tc.f, Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		b := heclear.New(1024, 65537)
		m, err := Prepare(b, c, true, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Levels) != tc.block.ops || len(m.Masks) != tc.block.ops || m.grouped == nil || len(m.grouped.mats) != tc.grouped.ops {
			t.Errorf("%s: staged %d level operands and %d masks, want %d of each and %d over the groups", tc.name, len(m.Levels), len(m.Masks), tc.block.ops, tc.grouped.ops)
		}
		// Two stagings serve every plane packing: the bill depends on the
		// query's layout only through which of them it runs on.
		reshuffleRots := map[int]int{}
		for _, g := range m.PlanePackings() {
			want := tc.block
			if g >= tc.grouped.groups {
				want = tc.grouped
			}
			if lanes, groups, ops := c.Meta.LevelLayout(g); lanes != want.lanes || groups != want.groups || ops != want.ops {
				t.Fatalf("%s at %d planes per ciphertext: %d stacked operands of %d lanes × %d groups, want %d of %d × %d", tc.name, g, ops, lanes, groups, want.ops, want.lanes, want.groups)
			}
			bills := m.ProgramFor(g).StageBills()
			levels, accum := keyBillOf(bills[stLevels]), keyBillOf(bills[stAccumulate])
			if levels != want.levels || accum != want.accum {
				t.Errorf("%s at %d planes per ciphertext: levels %+v, accumulate %+v; want %+v and %+v", tc.name, g, levels, accum, want.levels, want.accum)
			}
			reshuffleRots[want.groups] = int(bills[stReshuffle].Ops.Rotate)
		}
		if grouped, block := reshuffleRots[tc.grouped.groups], reshuffleRots[1]; grouped-block != log2Ceil(tc.grouped.groups) {
			t.Errorf("%s: the reshuffle stage rotates %d times over %d groups and %d times over one", tc.name, grouped, tc.grouped.groups, block)
		}
		q, err := PrepareQuery(b, &m.Meta, make([]uint64, tc.f.NumFeatures), true)
		if err != nil {
			t.Fatal(err)
		}
		_, _, trace, err := (&Engine{Backend: b}).Classify(context.Background(), m, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []struct {
			what string
			ops  he.OpCounts
			bill keyBill
		}{{"levels", trace.LevelOps, tc.grouped.levels}, {"accumulate", trace.AccumulateOps, tc.grouped.accum}} {
			// The exact backend has nothing to relinearize and counts none.
			if ops := st.ops; ops.Mul != int64(st.bill.Products) || ops.Rotate != int64(st.bill.Rotations) || ops.RotateHoisted != int64(st.bill.Hoisted) {
				t.Errorf("%s %s stage ran %v, the bill is %+v", tc.name, st.what, ops, st.bill)
			}
		}
		if trace.CompareOps.ConstMul != tc.selectors {
			t.Errorf("%s: a lone query's compare stage ran %d plaintext products, want %d group selectors", tc.name, trace.CompareOps.ConstMul, tc.selectors)
		}
		if want := tc.grouped; trace.LevelLanes != want.lanes || trace.LevelGroups != want.groups || trace.LevelOperands != want.ops {
			t.Errorf("%s: trace reports %d level operands of %d lanes × %d groups", tc.name, trace.LevelOperands, trace.LevelLanes, trace.LevelGroups)
		}
	}
}

// TestQueryLayoutErrors: a query whose layout is not the one its batch
// count fixes is a typed error before any op runs, and so is a query
// without layout stamps.
func TestQueryLayoutErrors(t *testing.T) {
	b := heclear.New(64, 65537)
	c, err := Compile(model.Figure1(), Options{Slots: 64}) // p = 4, capacity 4
	if err != nil {
		t.Fatal(err)
	}
	m, err := Prepare(b, c, true, true, false)
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
		"unstamped packing":          {func(q *Query) { q.PlanesPerCiphertext = 0 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 0, Block: 16}},
		"unstamped batch count":      {func(q *Query) { q.Batch = 0 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 4, Block: 16}},
		"packing of another batch":   {func(q *Query) { q.Batch = 4 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 4, Block: 16}},
		"packed for another model": {func(q *Query) { q.K, q.Block = 4, 32 }, QueryLayoutError{Planes: 1, PlanesPerCiphertext: 4, Block: 32,
			Packed: QueryPacking{NumFeatures: 2, K: 4, QPad: 8, Block: 32}, Model: QueryPacking{NumFeatures: 2, K: 3, QPad: 8, Block: 16}}},
	} {
		q := *lone
		q.Bits = append([]he.Operand(nil), lone.Bits...)
		tc.mutate(&q)
		_, _, _, err := e.Classify(context.Background(), m, &q, 0)
		var le *QueryLayoutError
		if !errors.As(err, &le) || *le != tc.want {
			t.Errorf("%s: Classify error %v, want %+v", name, err, tc.want)
		}
	}
	// A full batch's planes, one per operand, without the stamps.
	full, err := PrepareQueryBatch(b, &m.Meta, [][]uint64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = e.Classify(context.Background(), m, &Query{Bits: full.Bits, Batch: 4}, 0)
	want := QueryLayoutError{Planes: 4, Model: QueryPacking{NumFeatures: 2, K: 3, QPad: 8, Block: 16}}
	if le := (*QueryLayoutError)(nil); !errors.As(err, &le) || *le != want {
		t.Errorf("unstamped query of %d planes: Classify error %v, want %+v", len(full.Bits), err, want)
	}
	if _, _, _, err := e.Classify(context.Background(), m, full, 0); err != nil {
		t.Errorf("the stamped query of %d planes: %v", len(full.Bits), err)
	}
}

// TestQueryPlaneKindRefused: each scenario configuration stages the one
// program levelled for its query planes, and a query of the other kind is
// a typed error before any op runs — run on the other program's levels it
// would be mis-levelled. The query of the staged kind still classifies.
func TestQueryPlaneKindRefused(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	feats := []uint64{0, 5}
	want := model.Figure1().Classify(feats)
	for _, cfg := range schedConfigs {
		b := heclear.New(64, 65537)
		m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, false)
		if err != nil {
			t.Fatal(err)
		}
		e := &Engine{Backend: b}
		other, err := PrepareQuery(b, &m.Meta, feats, !cfg.encQuery)
		if err != nil {
			t.Fatal(err)
		}
		b.ResetCounts()
		_, _, _, err = e.Classify(context.Background(), m, other, 0)
		var le *QueryLayoutError
		if !errors.As(err, &le) || le.Encrypted != !cfg.encQuery || le.WantEncrypted != cfg.encQuery {
			t.Errorf("%s: a query of the other plane kind: %v, want a *QueryLayoutError naming both kinds", cfg.name, err)
		}
		if ops := b.Counts(); ops != (he.OpCounts{}) {
			t.Errorf("%s: the refused query ran ops %+v", cfg.name, ops)
		}
		if got := classifySecure(t, e, m, feats, cfg.encQuery); !slices.Equal(got, want) {
			t.Errorf("%s: trees %v, the forest says %v", cfg.name, got, want)
		}
	}
}
