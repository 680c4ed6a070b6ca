package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

// passTranscript is the SHA-256 of a BGV result ciphertext's residues,
// component by component, row by row, each word little-endian.
func passTranscript(out *bgv.Ciphertext) string {
	h := sha256.New()
	var w [8]byte
	for _, p := range out.C {
		for _, row := range p.Coeffs {
			for _, c := range row {
				binary.LittleEndian.PutUint64(w[:], c)
				h.Write(w[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPassTranscripts pins the exact result ciphertext of seeded BGV
// passes: Figure 1 and depth4 at 1024 slots, in each of the three staging
// configurations, with the result shuffle off and on, every cell on a
// backend of its own seeded keys, its query encrypted once and run on one
// worker and on two. A label oracle passes with 87 bits of noise budget
// left, so it cannot see an error of a few bits — a rounding off by one,
// a lazy reduction left in [q, 2q), a dropped term; these hashes can. A
// change that claims to be exact (a kernel, an operand representation, a
// fused op, a scheduling change) must reproduce testdata/transcripts.golden
// on every kernel tier, -tags purego included, without -update; only a
// change that means to alter a rounding re-pins it, and says which op's
// arithmetic moved and why.
func TestPassTranscripts(t *testing.T) {
	forests := []struct {
		name string
		f    *model.Forest
	}{{"figure1", model.Figure1()}, {"depth4", microForest(t, "depth4")}}
	var sb strings.Builder
	for fi, tf := range forests {
		for _, shuffle := range []bool{false, true} {
			c, err := Compile(tf.f, Options{Slots: 1024, PlanShuffle: shuffle})
			if err != nil {
				t.Fatal(err)
			}
			for ci, cfg := range schedConfigs {
				name := tf.name + "/" + cfg.name
				if shuffle {
					name += "/shuffled"
				}
				b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.ChainLevels(cfg.encModel)), Seed: 47})
				if err != nil {
					t.Fatal(err)
				}
				m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, shuffle)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewPCG(47, uint64(fi*8+ci)))
				batch := [][]uint64{randomFeatures(rng, tf.f.NumFeatures, tf.f.Precision)}
				q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
				if err != nil {
					t.Fatal(err)
				}
				var first string
				for _, workers := range []int{1, 2} {
					out, cbs, _, err := (&Engine{Backend: b, Workers: workers}).Classify(context.Background(), m, q, 47)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkVotes(t, b, tf.f, m, out, cbs, batch, 0)
					ct, _, err := b.ExportCiphertext(out.Ct)
					if err != nil {
						t.Fatal(err)
					}
					got := passTranscript(ct)
					if workers == 1 {
						first = got
						fmt.Fprintf(&sb, "%s: %s\n", name, got)
					} else if got != first {
						t.Errorf("%s: %d workers made %s, one worker %s", name, workers, got, first)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "transcripts.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, want := strings.Split(sb.String(), "\n"), strings.Split(string(raw), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d transcripts, the golden table has %d", len(got)-1, len(want)-1)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("transcript is %q, the golden one %q", got[i], want[i])
		}
	}
}
