package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"copse/internal/bgv"
	"copse/internal/he/hebgv"
	"copse/internal/model"
	"copse/internal/synth"
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
// configurations, with the result shuffle off and on; and two programs a
// benchmark workload serves — shard 0 of wide8's two with a plaintext
// model on a full batch (one plane per ciphertext), and prec16 under an
// encrypted model on one query (its lone-query packing, 16 planes per
// ciphertext). Every cell runs on a backend of its own seeded keys, its
// batch encrypted once and run on one worker and on two; the depth4 cells
// and prec16's also on four under GOMAXPROCS(4), where the idle workers
// lend their slots to the running key switches (ring.Run), so the rows
// of a key switch are split between goroutines. A label oracle passes
// with 87 bits of noise budget left, so it cannot see an error of a few
// bits — a rounding off by one, a lazy reduction left in [q, 2q), a
// dropped term; these hashes can. A
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
	// run pins one cell: c prepared for cfg on a backend seeded 47, and a
	// batch of n queries of f drawn from stream, checked against f's trees
	// from start on, on one worker, on two and, when lent is set, on four.
	run := func(name string, f *model.Forest, c *Compiled, cfg schedConfig, shuffle bool, stream uint64, n, start int, lent bool) {
		b, err := hebgv.New(hebgv.Config{Params: bgv.TestParams(c.Meta.ChainLevels(cfg.encModel)), Seed: 47})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Prepare(b, c, cfg.encModel, cfg.encQuery, shuffle)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(47, stream))
		batch := make([][]uint64, n)
		for i := range batch {
			batch[i] = randomFeatures(rng, f.NumFeatures, f.Precision)
		}
		q, err := PrepareQueryBatch(b, &m.Meta, batch, cfg.encQuery)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		workerCounts := []int{1, 2}
		if lent {
			workerCounts = append(workerCounts, 4)
		}
		for _, workers := range workerCounts {
			if workers == 4 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			}
			out, cbs, _, err := (&Engine{Backend: b, Workers: workers}).Classify(context.Background(), m, q, 47)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkVotes(t, b, f, m, out, cbs, batch, start)
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
				run(name, tf.f, c, cfg, shuffle, uint64(fi*8+ci), 1, 0, tf.name == "depth4")
			}
		}
	}
	// The gated workloads' programs: cluster-2shard's shard 0, and
	// single-compare's lone query.
	wide8, err := synth.Generate(synth.ForestSpec{
		Name: "wide8", NumFeatures: 4, NumLabels: 3, Precision: 8, MaxDepth: 5,
		BranchesPerTree: []int{15, 15, 15, 15, 15, 15, 15, 15}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(wide8, Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	shards, _, err := ShardForest(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	shard := shards[0]
	run("wide8/shard0/servermodel/g1", wide8, shard, schedConfigs[1], false, 16, shard.Meta.BatchCapacity(), shard.Shard.TreeStart, false)
	prec16 := microForest(t, "prec16")
	if c, err = Compile(prec16, Options{Slots: 1024}); err != nil {
		t.Fatal(err)
	}
	run(fmt.Sprintf("prec16/offload/g%d", c.Meta.PlanesPerCiphertext(1)), prec16, c, schedConfigs[0], false, 17, 1, 0, true)
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
