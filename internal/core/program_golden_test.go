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
	opSelect: "select",
}

// stageDigestNames label the per-stage digests of a program.
var stageDigestNames = [stDone]string{"compare", "reshuffle", "levels", "accumulate", "shuffle"}

// dumpStages writes p's op list stage by stage — everything the executor
// reads of a program — in a form that does not move when another stage
// does: a register is named by the stage that defines it and its place
// among that stage's definitions, a hoist by its steps and a constant by
// its spec, and each stage ends with the carrier registers it hands on.
func dumpStages(p *Program) []string {
	var out [stDone]strings.Builder
	name, defined := make([]string, p.numReg), [stDone]int{}
	for _, op := range p.ops {
		sb := &out[op.Stage]
		for r := op.Dst; r < op.Dst+p.width(op); r++ {
			name[r] = fmt.Sprintf("%s.%d", stageDigestNames[op.Stage], defined[op.Stage])
			defined[op.Stage]++
		}
		fmt.Fprintf(sb, "%s %s", opNames[op.Code], name[op.Dst])
		for _, r := range op.operands() {
			fmt.Fprintf(sb, " %s", name[r])
		}
		switch op.Code {
		case opHoist:
			fmt.Fprintf(sb, " %v\n", p.hoists[op.Imm])
		case opConst:
			fmt.Fprintf(sb, " kind %d index %d\n", p.consts[op.Imm].Kind, p.consts[op.Imm].Index)
		default:
			fmt.Fprintf(sb, " %d %d\n", op.Imm, op.Imm2)
		}
	}
	fmt.Fprintf(&out[stCompare], "query %s decisions %s\n", name[p.regQuery], name[p.regDecisions])
	fmt.Fprintf(&out[stReshuffle], "branchvec %s\n", name[p.regBranchVec])
	fmt.Fprintf(&out[stLevels], "levelresult %s\n", name[p.regLevelResult])
	fmt.Fprintf(&out[stAccumulate], "result %s\n", name[p.regLeaves])
	fmt.Fprintf(&out[stShuffle], "shuffled %s\n", name[p.result])
	dumps := make([]string, p.stages)
	for st := range dumps {
		dumps[st] = out[st].String()
	}
	return dumps
}

// TestProgramAtG1IsParentProgram pins the one-plane-per-ciphertext
// programs of the Table 6 models — encrypted and plaintext model, and the
// plaintext-query variant of the former — stage by stage: a full batch
// must keep running the circuit the benchmark history was taken on, and a
// change that means to move one stage shows that it moved no other. The
// lone query's program of every model with lane groups (DESIGN.md §13.5)
// is pinned beside them, under its packing (g16 for prec16), so the
// grouped structure — selector, group fill, one stacked mat-vec, the
// rounds across the groups — cannot move unseen either.
// testdata/programs_g1.golden holds one digest of dumpStages per program
// and stage; to see what moved, dump the stage at the parent commit and
// here and diff the two.
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
			packings := []int{1}
			if lone := c.Meta.PlanesPerCiphertext(1); c.Meta.LevelGroups() > 1 {
				packings = append(packings, lone)
			}
			for _, g := range packings {
				name := mb.Name + "/" + cfg.name
				if g > 1 {
					name += fmt.Sprintf("/g%d", g)
				}
				for st, dump := range dumpStages(m.programFor(g, !cfg.encQuery)) {
					fmt.Fprintf(&sb, "%s/%s: %d ops sha256 %x\n", name, stageDigestNames[st],
						strings.Count(dump, "\n")-1, sha256.Sum256([]byte(dump)))
				}
			}
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
		t.Fatalf("%d stage digests, the golden table has %d", len(got)-1, len(want)-1)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("stage is %q, the golden one %q", got[i], want[i])
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
