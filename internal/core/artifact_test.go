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

	"copse/internal/model"
)

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

// TestArtifactHeaderRefused: ReadArtifact reads the v4 format only. An
// artifact under any other header — a retired format generation, a
// future one, or no artifact at all — is refused with an
// *UnsupportedModelError naming the header, before its payload is read.
func TestArtifactHeaderRefused(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figure1_v4.copse"))
	if err != nil {
		t.Fatal(err)
	}
	for _, header := range []string{"COPSEv1\n", "COPSEv2\n", "COPSEv3\n", "COPSEv5\n", "copsev4\n", "\x1f\x8b\x08\x00\x00\x00\x00\x00"} {
		data := append([]byte(header), raw[len(artifactMagic):]...)
		_, err := ReadArtifact(bytes.NewReader(data))
		var unsupported *UnsupportedModelError
		if !errors.As(err, &unsupported) {
			t.Errorf("header %q: ReadArtifact: %v, want *UnsupportedModelError", header, err)
		} else if !strings.Contains(err.Error(), fmt.Sprintf("%q", header)) {
			t.Errorf("header %q: refusal %q does not name it", header, err)
		} else if !strings.HasPrefix(err.Error(), "core: unsupported model: ") {
			t.Errorf("header %q: refusal %q does not read as an unsupported model", header, err)
		}
	}
}

// TestArtifactWithoutPlanRefused: a v4 artifact written without a level
// plan is refused by ReadArtifact with an *UnsupportedModelError, where
// it once loaded and Prepare (or a BGV service's Register) panicked on
// the missing plan.
func TestArtifactWithoutPlanRefused(t *testing.T) {
	c, err := Compile(model.Figure1(), Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	c.Meta.LevelPlan = nil
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	_, err = ReadArtifact(&buf)
	var unsupported *UnsupportedModelError
	if !errors.As(err, &unsupported) {
		t.Fatalf("ReadArtifact of an artifact without a plan: %v, want *UnsupportedModelError", err)
	}
}

// corruptV4 is the golden v4 artifact with its Meta changed by corrupt.
func corruptV4(t *testing.T, corrupt func(*Meta)) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "figure1_v4.copse"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw[len(artifactMagic):]))
	if err != nil {
		t.Fatal(err)
	}
	c := &Compiled{}
	if err := gob.NewDecoder(zr).Decode(c); err != nil {
		t.Fatal(err)
	}
	corrupt(&c.Meta)
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMalformedArtifactRefused: an artifact whose Meta breaks an invariant
// Compile guarantees is refused by ReadArtifact with an
// *UnsupportedModelError before anything is staged from it — among them
// a model with no features on no slots, whose planning once allocated
// until the process was killed (FuzzReadArtifact's corpus holds it, under
// a retired header), and one without a level plan.
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
		"no level plan":             func(m *Meta) { m.LevelPlan = nil },
	} {
		start := time.Now()
		_, err := ReadArtifact(bytes.NewReader(corruptV4(t, corrupt)))
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
// bytes — no panic, no planning of a shape Compile never produces, and
// every model it returns carries a level plan. The seeds are v4
// artifacts: the golden one, Figure 1 compiled with the shuffle's
// headroom, and a shard.
func FuzzReadArtifact(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("testdata", "figure1_v4.copse"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	shuffled, err := Compile(model.Figure1(), Options{Slots: 1024, PlanShuffle: true})
	if err != nil {
		f.Fatal(err)
	}
	c, err := Compile(model.Figure1(), Options{Slots: 1024})
	if err != nil {
		f.Fatal(err)
	}
	shards, _, err := ShardForest(c, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*Compiled{shuffled, shards[0]} {
		var buf bytes.Buffer
		if err := WriteArtifact(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadArtifact(bytes.NewReader(data))
		if err == nil && c.Meta.LevelPlan == nil {
			t.Fatal("an artifact loaded without a level plan")
		}
	})
}
