package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"copse/internal/he"
	"copse/internal/model"
)

// TestArtifactV1BackwardCompat: a v1-tagged artifact still loads, with
// its Meta unchanged: the payload encoding is the same (gob), which is
// exactly what the compatibility claim rests on.
func TestArtifactV1BackwardCompat(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	copy(raw, artifactMagicV1)
	back, err := ReadArtifact(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("reading v1-tagged artifact: %v", err)
	}
	if back.Meta.B != c.Meta.B || !reflect.DeepEqual(back.Meta.RotationSteps, c.Meta.RotationSteps) {
		t.Error("v1 round trip changed meta")
	}
}

// TestArtifactV3CarriesLevelPlan: the current format is written under its
// magic and round-trips the static level schedule.
func TestArtifactV3CarriesLevelPlan(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), artifactMagic) {
		t.Errorf("artifact header = %q", buf.String()[:8])
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Meta.LevelPlan, c.Meta.LevelPlan) {
		t.Errorf("level plan changed in round trip: %+v vs %+v", back.Meta.LevelPlan, c.Meta.LevelPlan)
	}
}

// TestGoldenArtifactBackCompat: the committed golden v1, v2 and v4
// artifacts (written by the format generations of their names; see
// testdata) load — v1 and v2 with a level plan made at load, with the
// result shuffle's headroom — and, under that plan, prepare to one
// program in every scenario, shuffled and not: the same stage bills at
// every plane packing and the same rotations, since a v1 artifact,
// written for the naive kernel, is staged on the BSGS one like the
// others. Each classifies on BGV exactly like the forest, with no level
// alignment left to the backend.
func TestGoldenArtifactBackCompat(t *testing.T) {
	forest := model.Figure1()
	batch := [][]uint64{{0, 5}, {6, 0}, {15, 15}}
	type program struct {
		bills     [][]StageBill
		rotations []he.Rotation
	}
	first := map[string]program{}
	for _, file := range []string{"figure1_v1.copse", "figure1_v2.copse", "figure1_v4.copse"} {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ReadArtifact(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		want, err := computeLevelPlan(&c.Meta, true)
		if err != nil {
			t.Fatal(err)
		}
		if file == "figure1_v4.copse" {
			// v4 carries the plan it was compiled with: no shuffle
			// headroom, and rounds planned for an older comparison
			// circuit (TestServiceV4ArtifactPlan serves it as it is).
			// Under the plan v1 and v2 get at load its programs compare
			// with theirs.
			c.Meta.LevelPlan = want
		}
		if !reflect.DeepEqual(c.Meta.LevelPlan, want) {
			t.Fatalf("%s: planned at load %+v, want the shuffle-headroom plan %+v", file, c.Meta.LevelPlan, want)
		}
		for _, cfg := range schedConfigs {
			b := planBackend(t, c, cfg.encModel)
			for _, shuffle := range []bool{false, true} {
				name := fmt.Sprintf("%s/shuffle=%v", cfg.name, shuffle)
				m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, shuffle)
				if err != nil {
					t.Fatalf("%s/%s: %v", file, name, err)
				}
				got := program{rotations: m.rotations()}
				for _, g := range m.PlanePackings() {
					got.bills = append(got.bills, m.ProgramFor(g).StageBills())
				}
				if want, ok := first[name]; !ok {
					first[name] = got
				} else if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: prepared to another program than figure1_v1.copse: bills %v, rotations %v; want %v, %v",
						file, name, got.bills, got.rotations, want.bills, want.rotations)
				}
				q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
				if err != nil {
					t.Fatal(err)
				}
				out, cbs, _ := classifyCase(t, &Engine{Backend: b}, m, q)
				checkVotes(t, b, forest, m, out, cbs, batch, 0)
			}
		}
	}
}

// corruptV2 is the golden v2 artifact with its Meta changed by corrupt.
func corruptV2(t *testing.T, corrupt func(*Meta)) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "figure1_v2.copse"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw[len(artifactMagicV2):]))
	if err != nil {
		t.Fatal(err)
	}
	c := &Compiled{}
	if err := gob.NewDecoder(zr).Decode(c); err != nil {
		t.Fatal(err)
	}
	corrupt(&c.Meta)
	var buf bytes.Buffer
	buf.WriteString(artifactMagicV2)
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(c); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUnplannableArtifactRefused: a v2 artifact the planner cannot
// schedule — the golden one with its payload corrupted to the widest
// comparison a model may have and 128 levels over 128 branches, on a ring
// of 2^62 slots, past the search bound — is refused by ReadArtifact with
// the typed error instead of loading without a plan.
func TestUnplannableArtifactRefused(t *testing.T) {
	raw := corruptV2(t, func(m *Meta) {
		m.Slots, m.Precision = 1<<62, model.MaxPrecision
		m.B, m.BPad, m.D = 128, 128, 128
	})
	_, err := ReadArtifact(bytes.NewReader(raw))
	var infeasible *PlanInfeasibleError
	if !errors.As(err, &infeasible) {
		t.Fatalf("ReadArtifact: %v, want *PlanInfeasibleError", err)
	}
}

// TestMalformedArtifactRefused: an artifact whose Meta breaks an invariant
// Compile guarantees is refused by ReadArtifact with an
// *UnsupportedModelError before anything is planned from it — among them
// a v2 artifact with no features on no slots, whose planning once
// allocated until the process was killed (FuzzReadArtifact's corpus holds
// it).
func TestMalformedArtifactRefused(t *testing.T) {
	for name, corrupt := range map[string]func(*Meta){
		"no features, no slots":     func(m *Meta) { m.NumFeatures, m.Slots = 0, 0 },
		"slots not a power of two":  func(m *Meta) { m.Slots = 1000 },
		"precision":                 func(m *Meta) { m.Precision = model.MaxPrecision + 1 },
		"Q ≠ K·features":            func(m *Meta) { m.K = 4 },
		"QPad past Q's power":       func(m *Meta) { m.QPad = 16 },
		"periods past the slots":    func(m *Meta) { m.Slots = 4 },
		"more levels than branches": func(m *Meta) { m.D = m.B + 1 },
		"no leaves":                 func(m *Meta) { m.NumLeaves = 0 },
		"leaf offsets":              func(m *Meta) { m.NumTrees = 2 },
	} {
		start := time.Now()
		_, err := ReadArtifact(bytes.NewReader(corruptV2(t, corrupt)))
		var unsupported *UnsupportedModelError
		if !errors.As(err, &unsupported) {
			t.Errorf("%s: ReadArtifact: %v, want *UnsupportedModelError", name, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s: refused after %v", name, took)
		}
	}
}

// FuzzReadArtifact: ReadArtifact returns a model or an error for any
// bytes — no panic, and no planning of a shape Compile never produces.
// The seeds are the golden v1, v2 and v4 artifacts.
func FuzzReadArtifact(f *testing.F) {
	for _, name := range []string{"figure1_v1.copse", "figure1_v2.copse", "figure1_v4.copse"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadArtifact(bytes.NewReader(data))
		if err == nil && c.Meta.LevelPlan == nil && (bytes.HasPrefix(data, []byte(artifactMagicV2)) || bytes.HasPrefix(data, []byte(artifactMagicV1))) {
			t.Fatal("a v1/v2 artifact loaded without a level plan")
		}
	})
}
