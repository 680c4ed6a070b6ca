// Command copse-compile is the COPSE staging compiler: it reads a
// decision-forest model in the text format, restructures it into the
// vectorizable form of the paper's §4.2, and writes a compiled artifact.
// With -emit it additionally generates a standalone Go program
// specialized to the model (the analogue of the paper's generated C++).
//
// Usage:
//
//	copse-compile -model income5.forest -out income5.copse
//	copse-compile -model income5.forest -slots 2048 -emit main.go
//	copse-compile -model income5.forest -out income5.copse -shards 2
//
// With -shards K the compiled forest is additionally split tree-wise
// into K self-contained shard artifacts plus a merge manifest
// (DESIGN.md §12): income5.shard0.copse, income5.shard1.copse, ...,
// and income5.manifest.json, ready for copse-serve -worker.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"copse"
	"copse/internal/core"
	"copse/internal/he/heclear"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("copse-compile: ")

	modelPath := flag.String("model", "", "input model in COPSE text format")
	slots := flag.Int("slots", 1024, "target packing width (1024 = BGV test preset, 2048 = demo preset)")
	padK := flag.Int("padk", 0, "pad feature multiplicity to this bound instead of revealing exact K (0 = exact)")
	planShuffle := flag.Bool("planshuffle", false, "reserve level headroom for result shuffling (required to serve the artifact with copse-serve -shuffle)")
	out := flag.String("out", "", "output artifact path")
	emit := flag.String("emit", "", "also emit a standalone Go program to this path")
	shards := flag.Int("shards", 0, "also split the forest tree-wise into this many shard artifacts plus a merge manifest, derived from -out (cluster serving, DESIGN.md §12)")
	flag.Parse()

	if *modelPath == "" {
		log.Fatal("need -model FILE")
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	forest, err := copse.ParseModel(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	compiled, err := copse.Compile(forest, copse.CompileOptions{
		Slots:             *slots,
		PadMultiplicityTo: *padK,
		PlanShuffle:       *planShuffle,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := compiled.Meta
	fmt.Fprintf(os.Stderr, "staged %s\n", m.String())
	fmt.Fprintf(os.Stderr, "  padded widths: q̂=%d b̂=%d; compile-time rotation steps: %d; recommended BGV levels: %d\n",
		m.QPad, m.BPad, len(m.RotationSteps), m.RecommendedLevels)
	fmt.Fprintf(os.Stderr, "  ct-ct depth: %d (encrypted model) / %d (plaintext model)\n",
		m.CtDepthCipherModel, m.CtDepthPlainModel)
	plan := m.LevelPlan
	fmt.Fprintf(os.Stderr, "  level plan: %d-prime chain (recommended: %d); cipher-model stages compare=%d reshuffle=%d level=%d accumulate=%d final=%d\n",
		plan.Levels, m.RecommendedLevels,
		plan.Cipher.Compare, plan.Cipher.Reshuffle, plan.Cipher.Level, plan.Cipher.Accumulate, plan.Cipher.Final)
	// The op program does not depend on the backend, so staging onto the
	// exact one is enough to read off what the level pass predicts for it
	// and how much parallelism the model offers the pass scheduler
	// (DESIGN.md §8.1, §9): the programs of encrypted query planes, which
	// the Offload and ServerModel scenarios send. Under -planshuffle it is
	// the program a shuffling service runs, the result shuffle its fifth
	// stage.
	for _, encModel := range []bool{true, false} {
		staged, err := core.Prepare(heclear.New(m.Slots, 65537), compiled, encModel, true, *planShuffle)
		if err != nil {
			log.Fatal(err)
		}
		name := map[bool]string{true: "cipher", false: "plain"}[encModel]
		fmt.Fprintf(os.Stderr, "  predicted (%s model), level/margin bits:", name)
		for _, r := range staged.PredictedNoise() {
			fmt.Fprintf(os.Stderr, " %s %d/%.0f", r.At, r.Level, r.MarginBits)
		}
		fmt.Fprintln(os.Stderr)
		// One program per plane packing: which one a pass runs follows from
		// how many of the batch blocks its queries fill (DESIGN.md §13.4).
		for _, g := range staged.PlanePackings() {
			prog := staged.ProgramFor(g)
			work, critical := prog.Work(), prog.CriticalPath()
			lanes, groups, levelOps := m.LevelLayout(g)
			fmt.Fprintf(os.Stderr, "  op program (%s model), %2d planes per ciphertext (≤ %d queries in %d ciphertexts), %d levels in %d lane(s) × %d group(s) of %d stacked operand(s): work %d, critical path %d — parallelism %.1f",
				name, g, m.QueryCapacity(g), m.QueryCiphertexts(g), m.D, lanes, groups, levelOps, work, critical, float64(work)/float64(critical))
			// The stage bills: the plane axis shortens compare (DESIGN.md
			// §13.4), the level lanes and lane groups levels and accumulate
			// (§13.5); their works sum to the program's.
			for st, bill := range prog.StageBills() {
				fmt.Fprintf(os.Stderr, "; %s %d products (%d lazy) + %d relinearizations + %d rotations = %d key switches, depth %d, work %d",
					[...]string{"compare", "reshuffle", "levels", "accumulate", "shuffle"}[st],
					bill.Ops.Mul, bill.Lazy, bill.Ops.Relin, bill.Ops.Rotate, bill.KeySwitches, bill.Depth, bill.Work)
			}
			fmt.Fprintln(os.Stderr)
		}
	}

	if *out != "" {
		w, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := copse.WriteArtifact(w, compiled); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote artifact %s\n", *out)
	}
	if *shards > 0 {
		if *out == "" {
			log.Fatal("-shards needs -out to derive the shard artifact paths")
		}
		pieces, manifest, err := copse.ShardForest(compiled, *shards)
		if err != nil {
			log.Fatal(err)
		}
		stem := strings.TrimSuffix(*out, filepath.Ext(*out))
		for i, piece := range pieces {
			path := fmt.Sprintf("%s.shard%d.copse", stem, i)
			w, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := copse.WriteArtifact(w, piece); err != nil {
				log.Fatal(err)
			}
			if err := w.Close(); err != nil {
				log.Fatal(err)
			}
			r := manifest.Ranges[i]
			fmt.Fprintf(os.Stderr, "wrote shard %s (trees %d..%d)\n", path, r.TreeStart, r.TreeEnd-1)
		}
		mpath := stem + ".manifest.json"
		w, err := os.Create(mpath)
		if err != nil {
			log.Fatal(err)
		}
		if err := copse.WriteManifest(w, manifest); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote merge manifest %s (%d shards, chain %d levels)\n", mpath, manifest.Shards, manifest.Meta.ChainLevels(false))
	}
	if *emit != "" {
		w, err := os.Create(*emit)
		if err != nil {
			log.Fatal(err)
		}
		if err := copse.GenerateProgram(w, compiled); err != nil {
			log.Fatal(err)
		}
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "emitted program %s\n", *emit)
	}
	if *out == "" && *emit == "" {
		if err := copse.WriteArtifact(os.Stdout, compiled); err != nil {
			log.Fatal(err)
		}
	}
}
