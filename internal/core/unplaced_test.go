package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he"
	"copse/internal/model"
)

// TestPlannerTransferBoundsMeasuredNoise holds the level pass's per-op
// transfer functions — fresh encryption, add, plaintext product, tensor
// product plus relinearization (of fresh operands and of products),
// rotation (of a fresh ciphertext and of a product) and modulus switch —
// to the noise a decryption measures after the BGV op itself, at every
// level of a 7-prime chain: the estimate must bound the measurement from
// above, and at the level the evaluator lands the result. Each op runs
// under its own sim; a cell the sim refuses is not compared, and every op
// must be compared at some level. It is the one
// noise estimate left; the evaluator keeps none.
func TestPlannerTransferBoundsMeasuredNoise(t *testing.T) {
	const levels = 7
	params, err := bgv.NewParameters(bgv.TestParams(levels))
	if err != nil {
		t.Fatal(err)
	}
	kg := bgv.NewSeededKeyGenerator(params, 77)
	sk := kg.GenSecretKey()
	keys, err := kg.GenEvaluationKeys(sk, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	encoder, err := bgv.NewEncoder(params)
	if err != nil {
		t.Fatal(err)
	}
	encryptors := map[string]*bgv.Encryptor{
		"public key": bgv.NewSeededEncryptor(params, kg.GenPublicKey(sk), 78),
		"secret key": bgv.NewSeededSecretKeyEncryptor(params, sk, 79),
	}
	dec := bgv.NewDecryptor(params, sk)
	ev := bgv.NewEvaluator(params, keys)
	nm := planNoiseModel(params.Slots())
	r := rand.New(rand.NewPCG(31, 3))
	plain := func() *bgv.Plaintext {
		vals := make([]uint64, params.Slots())
		for i := range vals {
			vals[i] = r.Uint64N(params.T)
		}
		pt, err := encoder.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	compared := map[string]int{}
	for name, encr := range encryptors {
		for level := 0; level < levels; level++ {
			// check compares one op's result with its estimate e, made
			// under the sims given, where every one of them accepts its op.
			check := func(op string, ct *bgv.Ciphertext, err error, e est, sims ...*sim) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s, level %d, %s: %v", name, level, op, err)
				}
				for _, s := range sims {
					if s.kind != failNone {
						return
					}
				}
				if ct.Level() != e.level {
					t.Fatalf("%s, level %d, %s: the op lands at level %d, the estimate at %d", name, level, op, ct.Level(), e.level)
				}
				measured := params.QBits(ct.Level()) - dec.NoiseBudget(ct) - 1
				if float64(measured) > e.noise {
					t.Errorf("%s, level %d, %s: measured noise %d bits exceeds the estimate %.1f", name, level, op, measured, e.noise)
				}
				compared[op]++
			}
			a, b := encr.EncryptAtLevel(plain(), level), encr.EncryptAtLevel(plain(), level)
			fresh := nm.fresh(level)
			check("fresh", a, nil, fresh)
			sum, err := ev.Add(a, b)
			s := &sim{nm: nm}
			check("add", sum, err, s.add(fresh, fresh), s)
			prodPlain, err := ev.MulPlain(a, plain())
			s = &sim{nm: nm}
			check("mulPlain", prodPlain, err, s.mulPlain(fresh), s)
			rot, err := ev.Rotate(a, 1)
			s = &sim{nm: nm}
			check("rot", rot, err, s.rot(fresh), s)
			if level == 0 {
				continue
			}
			switched := a.Copy()
			s = &sim{nm: nm}
			e := fresh
			s.modSwitch(&e)
			check("modSwitch", switched, ev.ModSwitch(switched), e, s)
			prod, err := ev.Mul(a, b)
			sProd := &sim{nm: nm}
			eProd := sProd.mul(fresh, fresh)
			check("tensor+relin", prod, err, eProd, sProd)
			rotProd, err := ev.Rotate(prod, 1)
			s = &sim{nm: nm}
			check("rot of a product", rotProd, err, s.rot(eProd), sProd, s)
			if level > 1 {
				sq, err := ev.Mul(prod, prod)
				s = &sim{nm: nm}
				check("tensor+relin of products", sq, err, s.mul(eProd, eProd), sProd, s)
			}
		}
	}
	for _, op := range []string{"fresh", "add", "mulPlain", "rot", "modSwitch", "tensor+relin", "rot of a product", "tensor+relin of products"} {
		if compared[op] == 0 {
			t.Errorf("%s: compared at no level", op)
		} else {
			t.Logf("%s: compared at %d cells", op, compared[op])
		}
	}
}

// TestStrippedCompareRoundsPlaced: depth4 under ServerModel with its
// plan's compare rounds stripped needs its hot products' factors cooled in
// the compare stage — a move the evaluator used to make on its own noise
// estimate. The level pass places each as an opDrop below the compare
// entry ahead of the product (no stripped round drops anything), and the
// program answers as the forest does on BGV, whose evaluator makes no
// level move of its own.
func TestStrippedCompareRoundsPlaced(t *testing.T) {
	f := microForest(t, "depth4")
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	plan := *c.Meta.LevelPlan
	plan.Plain.CompareRounds = nil
	stripped := *c
	stripped.Meta.LevelPlan = &plan
	b := planBackend(t, c, false)
	m, err := Prepare(b, &stripped, false, true, false)
	if err != nil {
		t.Fatalf("compare rounds stripped: %v", err)
	}
	cooled := 0
	for _, op := range m.Program.ops {
		if op.Stage == stCompare && op.Code == opDrop && op.Imm < plan.Plain.Compare {
			cooled++
		}
	}
	if cooled == 0 {
		t.Fatal("compare rounds stripped: no compare-stage drop below the entry, so the cooling is left to the evaluator")
	}
	t.Logf("%d cooling drops placed in the compare stage", cooled)
	batch := [][]uint64{randomFeatures(rand.New(rand.NewPCG(31, 4)), f.NumFeatures, f.Precision)}
	q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	out, cbs, _ := classifyCase(t, &Engine{Backend: b}, m, q)
	checkVotes(t, b, f, m, out, cbs, batch, 0)
}

// TestUnplacedMoveRefused: a program whose level pass would need a level
// move it has no op for — a register whose noise nears the modulus after
// a run of plaintext products and additions, where the evaluator makes no
// move of its own — is refused: by Prepare's finish under a given plan,
// with a *PlanInfeasibleError of kind "noise" in the compare stage; and
// the schedule search raises the compare entry until the pass needs no
// such move, so the schedule it returns passes finish. The register is
// not the result, so the pass meets no other failure.
func TestUnplacedMoveRefused(t *testing.T) {
	ops := []progOp{
		{Code: opQuery, Dst: 0},
		{Code: opDiagSum, Dst: 1, Terms: []diagTerm{{Reg: 0}}},
		{Code: opDiagSum, Dst: 2, Terms: []diagTerm{{Reg: 1}}},
	}
	for r := 3; r < 8; r++ {
		ops = append(ops, progOp{Code: opAdd, Dst: r, A: r - 1, B: 0})
	}
	p := &Program{stages: 1, numReg: 8, result: 0, ops: ops}
	plan := StageLevels{Compare: 1, Reshuffle: 1, Level: 1, Accumulate: 1, Final: 1}
	var infeasible *PlanInfeasibleError
	if err := p.finish(1024, plan); !errors.As(err, &infeasible) || infeasible.Kind != "noise" || infeasible.Stage != stageNames[stCompare] {
		t.Errorf("finish: %v, want a *PlanInfeasibleError of kind noise in the compare stage", err)
	}
	pl := planner{nm: planNoiseModel(1024), progs: []*Program{p}}
	at, fail := pl.schedule(1, planCap)
	if fail != nil {
		t.Fatalf("the schedule search: %v", fail.infeasible())
	}
	if at.Compare <= plan.Compare {
		t.Errorf("the search entered compare at %d, not above the refused %d", at.Compare, plan.Compare)
	}
	if err := p.finish(1024, at); err != nil {
		t.Errorf("finish under the searched schedule %+v: %v", at, err)
	}
}

// TestQueryAtWrongLevelRefused: the engine refuses a query whose
// encrypted bit planes sit one level below the scenario's compare entry —
// the lowest level the program's entry drop takes them from — with a
// *QueryLayoutError naming both levels, before any op runs, in both
// encrypted-query scenarios; the query as PrepareQueryBatch makes it, at
// the model's query level (above the entry in a scenario that schedules
// compare lower), is served.
func TestQueryAtWrongLevelRefused(t *testing.T) {
	f := model.Figure1()
	c, err := Compile(f, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for _, encModel := range []bool{true, false} {
		b := planBackend(t, c, encModel)
		m, err := Prepare(b, c, encModel, true, false)
		if err != nil {
			t.Fatal(err)
		}
		batch := [][]uint64{{3, 7}}
		q, err := PrepareQueryBatch(b, &m.Meta, batch, true)
		if err != nil {
			t.Fatal(err)
		}
		want := min(m.Plan.Compare, b.MaxLevel())
		e := &Engine{Backend: b}
		out, cbs, _ := classifyCase(t, e, m, q)
		checkVotes(t, b, f, m, out, cbs, batch, 0)

		low := *q
		low.Bits = nil
		for _, op := range q.Bits {
			d, err := he.DropToLevel(b, op, want-1)
			if err != nil {
				t.Fatal(err)
			}
			low.Bits = append(low.Bits, d)
		}
		before := b.Counts()
		_, _, _, err = e.Classify(context.Background(), m, &low, 0)
		var layout *QueryLayoutError
		if !errors.As(err, &layout) || layout.Level != want-1 || layout.WantLevel != want {
			t.Fatalf("enc=%v: planes at level %d: %v, want a *QueryLayoutError naming levels %d and %d", encModel, want-1, err, want-1, want)
		}
		if ops := b.Counts().Minus(before); ops != (he.OpCounts{MaxDepth: ops.MaxDepth}) {
			t.Errorf("enc=%v: the refused query ran ops: %v", encModel, ops)
		}
	}
}
