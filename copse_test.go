package copse_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// classifyVia runs one query through the public three-party workflow.
func classifyVia(t *testing.T, sys *copse.System, feats []uint64) *copse.Result {
	t.Helper()
	q, err := sys.Diane.EncryptQuery(feats)
	if err != nil {
		t.Fatalf("EncryptQuery: %v", err)
	}
	enc, trace, err := sys.Sally.Classify(q)
	if err != nil {
		t.Fatalf("Classify: %v", err)
	}
	if trace.Total <= 0 {
		t.Error("trace has no total time")
	}
	res, err := sys.Diane.DecryptResult(enc)
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
		sys, err := copse.NewSystem(c,
			copse.WithBackend(copse.BackendClear),
			copse.WithScenario(sc),
			copse.WithWorkers(4),
		)
		if err != nil {
			t.Fatalf("scenario %d: %v", sc, err)
		}
		for _, feats := range [][]uint64{{0, 5}, {7, 0}, {15, 15}} {
			want := forest.Classify(feats)
			res := classifyVia(t, sys, feats)
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
	sys, err := copse.NewSystem(c,
		copse.WithBackend(copse.BackendBGV),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(4),
		copse.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, feats := range [][]uint64{{0, 5}, {6, 2}} {
		want := forest.Classify(feats)
		res := classifyVia(t, sys, feats)
		if res.PerTree[0] != want[0] {
			t.Errorf("Classify(%v) = L%d, want L%d", feats, res.PerTree[0], want[0])
		}
	}
	// Sally's structural view must match the leakage model.
	view := sys.Sally.ServerView()
	if view.QPad != c.Meta.QPad || view.D != c.Meta.D {
		t.Errorf("server view %+v inconsistent with meta %s", view, c.Meta.String())
	}
}

// TestNewSystemErrors: a bogus backend or scenario option, and a model
// staged for a slot count no BGV ring packs, are refused at construction.
func TestNewSystemErrors(t *testing.T) {
	c := compileExample(t, 64)
	if _, err := copse.NewSystem(c, copse.WithBackend(copse.BackendKind(99))); err == nil {
		t.Error("bogus backend accepted")
	}
	// No ring packs 64 slots: the refusal names the slot counts that work.
	_, err := copse.NewSystem(c, copse.WithBackend(copse.BackendBGV))
	if err == nil || !strings.Contains(err.Error(), "1024, 2048 or 16384") {
		t.Errorf("64-slot model on BGV: %v, want a refusal naming 1024, 2048 or 16384", err)
	}
	if _, err := copse.NewSystem(c,
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
	sys, err := copse.NewSystem(c,
		copse.WithBackend(copse.BackendClear),
		copse.WithScenario(copse.ScenarioOffload),
		copse.WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		q, err := tm.QuantizeFeatures(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := tm.Predict(ds.X[i])
		if err != nil {
			t.Fatal(err)
		}
		res := classifyVia(t, sys, q)
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

// TestGeneratedProgramBuildsAndRuns compiles the staging compiler's
// generated Go program in a scratch module and executes an inference
// with it — the full §5 story.
func TestGeneratedProgramBuildsAndRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a generated program")
	}
	repoRoot, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	c := compileExample(t, 64)
	dir := t.TempDir()
	var src bytes.Buffer
	if err := copse.GenerateProgram(&src, c); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), src.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	gomod := "module generated\n\ngo 1.23\n\nrequire copse v0.0.0\n\nreplace copse => " + repoRoot + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		t.Fatal(err)
	}
	tidy := exec.Command("go", "mod", "tidy")
	tidy.Dir = dir
	tidy.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off")
	if out, err := tidy.CombinedOutput(); err != nil {
		t.Fatalf("go mod tidy: %v\n%s", err, out)
	}
	run := exec.Command("go", "run", ".", "-features", "0,5", "-backend", "clear")
	run.Dir = dir
	run.Env = append(os.Environ(), "GOPROXY=off")
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("go run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "plurality: L4") {
		t.Errorf("generated program output:\n%s", out)
	}
}
