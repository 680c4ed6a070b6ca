package core

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"copse/internal/model"
)

// TestArtifactV1BackwardCompat: a v1 artifact (naive-kernel staging, no
// BSGS fields) must still load, and its zero-valued BSGS fields must
// select the naive kernel it was staged for.
func TestArtifactV1BackwardCompat(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 64, NoBSGS: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header to the v1 magic: the payload encoding is the
	// same (gob), which is exactly what the compatibility claim rests on.
	raw := buf.Bytes()
	copy(raw, artifactMagicV1)
	back, err := ReadArtifact(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("reading v1-tagged artifact: %v", err)
	}
	if back.Meta.UseBSGS {
		t.Error("naive-staged artifact reports BSGS")
	}
	if back.Meta.B != c.Meta.B || len(back.Meta.RotationSteps) != len(c.Meta.RotationSteps) {
		t.Error("v1 round trip changed meta")
	}
}

func TestArtifactV2CarriesBSGSPlan(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 64})
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
	if !back.Meta.UseBSGS || len(back.Meta.BSGSPlans) == 0 {
		t.Error("BSGS staging lost in round trip")
	}
	baby, giant, ok := back.Meta.BSGSFor(back.Meta.BPad)
	if !ok || baby*giant != back.Meta.BPad {
		t.Errorf("BSGSFor(BPad=%d) = (%d, %d, %v)", back.Meta.BPad, baby, giant, ok)
	}
	// The BSGS step set must be strictly smaller than the naive one for
	// this model (q̂=8, b̂=8: 1..7 plus replication vs baby+giant steps).
	naive, err := Compile(model.Figure1(), Options{Slots: 64, NoBSGS: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Meta.RotationSteps) >= len(naive.Meta.RotationSteps) {
		t.Errorf("BSGS step set (%d) not smaller than naive (%d)",
			len(back.Meta.RotationSteps), len(naive.Meta.RotationSteps))
	}
}

// TestArtifactV3CarriesLevelPlan: the current format round-trips the
// static level schedule.
func TestArtifactV3CarriesLevelPlan(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Meta.LevelPlan, c.Meta.LevelPlan) {
		t.Errorf("level plan changed in round trip: %+v vs %+v", back.Meta.LevelPlan, c.Meta.LevelPlan)
	}
}

// TestGoldenArtifactBackCompat: the committed golden v1 and v2 artifacts
// (written by the earlier format generations; see testdata) load with a
// level plan — made at load, with the result shuffle's headroom — and
// classify on BGV exactly like the forest in every scenario, shuffled and
// not, with no level alignment left to the backend.
func TestGoldenArtifactBackCompat(t *testing.T) {
	forest := model.Figure1()
	batch := [][]uint64{{0, 5}, {6, 0}, {15, 15}}
	for _, tc := range []struct {
		file    string
		useBSGS bool
	}{
		{"figure1_v1.copse", false},
		{"figure1_v2.copse", true},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		c, err := ReadArtifact(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if c.Meta.UseBSGS != tc.useBSGS {
			t.Errorf("%s: UseBSGS = %v, want %v", tc.file, c.Meta.UseBSGS, tc.useBSGS)
		}
		want, err := computeLevelPlan(&c.Meta, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(c.Meta.LevelPlan, want) {
			t.Fatalf("%s: planned at load %+v, want the shuffle-headroom plan %+v", tc.file, c.Meta.LevelPlan, want)
		}
		for _, cfg := range schedConfigs {
			b := planBackend(t, c, cfg.encModel)
			for _, shuffle := range []bool{false, true} {
				m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, shuffle)
				if err != nil {
					t.Fatalf("%s/%s/shuffle=%v: %v", tc.file, cfg.name, shuffle, err)
				}
				q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
				if err != nil {
					t.Fatal(err)
				}
				out, cbs, _ := classifyCase(t, &Engine{Backend: b}, m, q)
				checkVotes(t, b, forest, m, out, cbs, batch, m.Meta.QueryCapacity(q.PlanesPerCiphertext), 0)
			}
		}
	}
}

// TestUnplannableArtifactRefused: a v2 artifact the planner cannot
// schedule — the golden one with its payload corrupted to a 1024-bit
// comparison on a ring of 2^62 slots, past the search bound — is refused
// by ReadArtifact with the typed error instead of loading without a plan.
func TestUnplannableArtifactRefused(t *testing.T) {
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
	c.Meta.Slots, c.Meta.Precision = 1<<62, 1024
	var buf bytes.Buffer
	buf.WriteString(artifactMagicV2)
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(c); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = ReadArtifact(&buf)
	var infeasible *PlanInfeasibleError
	if !errors.As(err, &infeasible) {
		t.Fatalf("ReadArtifact: %v, want *PlanInfeasibleError", err)
	}
}
