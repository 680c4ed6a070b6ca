package copse_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"copse"
	"copse/internal/synth"
)

func compileExample(t *testing.T, slots int) *copse.Compiled {
	t.Helper()
	c, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: slots})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// serve registers c under name on a new service, closed when the test
// ends.
func serve(t *testing.T, name string, c *copse.Compiled, opts ...copse.Option) *copse.Service {
	t.Helper()
	svc := copse.NewService(opts...)
	t.Cleanup(func() { svc.Close() })
	if err := svc.Register(name, c); err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
	return svc
}

// classifyVia runs one query through the three-call API: the data owner
// encrypts it, the server classifies it, the data owner decrypts.
func classifyVia(t *testing.T, svc *copse.Service, name string, feats []uint64) *copse.Result {
	t.Helper()
	q, err := svc.EncryptQuery(name, feats)
	if err != nil {
		t.Fatalf("EncryptQuery: %v", err)
	}
	enc, trace, err := svc.Classify(context.Background(), name, q)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if trace.Total <= 0 {
		t.Error("trace has no total time")
	}
	res, err := svc.DecryptResult(name, enc)
	if err != nil {
		t.Fatalf("DecryptResult: %v", err)
	}
	return res
}

// TestEndToEndAllScenariosClear drives every party configuration through
// the public API on the clear backend.
func TestEndToEndAllScenariosClear(t *testing.T) {
	forest := copse.ExampleForest()
	c := compileExample(t, 64)
	scenarios := []copse.Scenario{
		copse.ScenarioOffload, copse.ScenarioServerModel, copse.ScenarioClientEval,
		copse.ScenarioThreeParty,
	}
	for _, sc := range scenarios {
		svc := serve(t, "figure1", c,
			copse.WithBackend(copse.BackendClear),
			copse.WithScenario(sc),
			copse.WithWorkers(4),
		)
		for _, feats := range [][]uint64{{0, 5}, {7, 0}, {15, 15}} {
			want := forest.Classify(feats)
			res := classifyVia(t, svc, "figure1", feats)
			if res.PerTree[0] != want[0] {
				t.Errorf("scenario %d Classify(%v) = L%d, want L%d", sc, feats, res.PerTree[0], want[0])
			}
		}
	}
}

// TestEndToEndBGV is the flagship integration test: full workflow on
// real BGV ciphertexts through the public API.
func TestEndToEndBGV(t *testing.T) {
	forest := copse.ExampleForest()
	c := compileExample(t, 1024)
	svc := serve(t, "figure1", c,
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(4),
		copse.WithSeed(5),
	)
	for _, feats := range [][]uint64{{0, 5}, {6, 2}} {
		want := forest.Classify(feats)
		res := classifyVia(t, svc, "figure1", feats)
		if res.PerTree[0] != want[0] {
			t.Errorf("Classify(%v) = L%d, want L%d", feats, res.PerTree[0], want[0])
		}
	}
	// The server's structural view must match the leakage model.
	view, err := svc.ServerView("figure1")
	if err != nil {
		t.Fatal(err)
	}
	if view.QPad != c.Meta.QPad || view.D != c.Meta.D {
		t.Errorf("server view %+v inconsistent with meta %s", view, c.Meta.String())
	}
}

// TestServiceRegisterErrors: a bogus backend or scenario option, and a
// model staged for a slot count no BGV ring packs, are refused at the
// first Register.
func TestServiceRegisterErrors(t *testing.T) {
	c := compileExample(t, 64)
	register := func(opts ...copse.Option) error {
		svc := copse.NewService(opts...)
		defer svc.Close()
		return svc.Register("figure1", c)
	}
	if err := register(copse.WithBackend(copse.BackendKind(99))); err == nil {
		t.Error("bogus backend accepted")
	}
	// No ring packs 64 slots: the refusal names the slot counts that work.
	if err := register(copse.WithBackend(copse.BackendBGV)); err == nil || !strings.Contains(err.Error(), "1024, 2048 or 16384") {
		t.Errorf("64-slot model on BGV: %v, want a refusal naming 1024, 2048 or 16384", err)
	}
	if err := register(
		copse.WithBackend(copse.BackendClear),
		copse.WithScenario(copse.Scenario(99)),
	); err == nil {
		t.Error("bogus scenario accepted")
	}
}

// TestTrainCompileClassify is the full ML pipeline: synthetic dataset →
// trained forest → compiled model → secure inference matching plaintext
// prediction.
func TestTrainCompileClassify(t *testing.T) {
	ds := synth.Income(600, 3)
	tm, err := copse.Train(ds.X, ds.Y, ds.Labels, copse.TrainConfig{
		NumTrees: 3, MaxDepth: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := copse.Compile(tm.Forest, copse.CompileOptions{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	svc := serve(t, "income", c,
		copse.WithBackend(copse.BackendClear),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(4),
	)
	for i := 0; i < 10; i++ {
		q, err := tm.QuantizeFeatures(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := tm.Predict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		res := classifyVia(t, svc, "income", q)
		if got := res.Plurality(); got != want {
			t.Errorf("row %d: secure plurality %d, plaintext %d", i, got, want)
		}
	}
}

func TestModelSerializationPublicAPI(t *testing.T) {
	f := copse.ExampleForest()
	var buf bytes.Buffer
	if err := copse.FormatModel(&buf, f); err != nil {
		t.Fatal(err)
	}
	back, err := copse.ParseModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Classify([]uint64{0, 5})[0] != 4 {
		t.Error("round-tripped model misclassifies")
	}
	if _, err := copse.ParseModelString("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestArtifactPublicAPI(t *testing.T) {
	c := compileExample(t, 64)
	var buf bytes.Buffer
	if err := copse.WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := copse.ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.B != c.Meta.B {
		t.Error("artifact round trip changed meta")
	}
}

func TestLeakagePublicAPI(t *testing.T) {
	l := copse.Revealed(copse.ScenarioOffload, copse.PartyServer)
	if !l.Q || !l.B || !l.D || l.K || l.Everything {
		t.Errorf("offload server leakage: %+v", l)
	}
}
