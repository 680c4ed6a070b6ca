package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copse/internal/he/heclear"
	"copse/internal/synth"
)

var opNames = [...]string{
	opQuery: "query", opThresh: "thresh", opMask: "mask", opConst: "const", opAdd: "add", opSub: "sub",
	opMul: "mul", opMulLazy: "mullazy", opMulDiag: "muldiag", opRelin: "relin", opRot: "rot", opHoist: "hoist", opDrop: "drop",
}

// dumpProgram writes p's op list, hoist table, constants and carrier
// registers one per line — everything the executor reads of a program.
func dumpProgram(sb *strings.Builder, p *Program) {
	fmt.Fprintf(sb, "registers %d result %d query %d decisions %d branchvec %d levelresult %d\n",
		p.numReg, p.result, p.regQuery, p.regDecisions, p.regBranchVec, p.regLevelResult)
	for i, steps := range p.hoists {
		fmt.Fprintf(sb, "hoist %d %v\n", i, steps)
	}
	for i, c := range p.consts {
		fmt.Fprintf(sb, "const %d kind %d index %d\n", i, c.Kind, c.Index)
	}
	for _, op := range p.ops {
		fmt.Fprintf(sb, "%d %s r%d r%d r%d %d %d\n", op.Stage, opNames[op.Code], op.Dst, op.A, op.B, op.Imm, op.Imm2)
	}
}

// TestProgramAtG1IsParentProgram pins the one-plane-per-ciphertext
// programs of the Table 6 models — encrypted and plaintext model, and the
// plaintext-query variant of the former — to the op lists the builder
// produced before it learned the plane axis: a full batch must run the
// same circuit op for op. testdata/programs_g1.golden holds one digest of
// dumpProgram per program, written at the parent commit; to see what
// moved, dump the program there and here and diff the two.
func TestProgramAtG1IsParentProgram(t *testing.T) {
	var sb strings.Builder
	for _, mb := range synth.Microbenchmarks() {
		c, err := Compile(microForest(t, mb.Name), Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range schedConfigs {
			m, err := Prepare(heclear.New(1024, 65537), c, cfg.encModel)
			if err != nil {
				t.Fatal(err)
			}
			var dump strings.Builder
			p := m.programFor(1, !cfg.encQuery)
			dumpProgram(&dump, p)
			fmt.Fprintf(&sb, "%s/%s: %d ops sha256 %x\n", mb.Name, cfg.name, len(p.ops), sha256.Sum256([]byte(dump.String())))
		}
	}
	path := filepath.Join("testdata", "programs_g1.golden")
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
		t.Fatalf("%d programs, the golden table has %d", len(got)-1, len(want)-1)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("program is %q, the parent's was %q", got[i], want[i])
		}
	}
}

// programFor returns the program a query of plane packing g runs.
func (m *ModelOperands) programFor(g int, plainQuery bool) *Program {
	if plainQuery {
		return m.packing(g).plainQueryProgram
	}
	return m.packing(g).program
}
