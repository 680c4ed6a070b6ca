package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"copse/internal/model"
	"copse/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/levelplans.golden from the plans the planner produces now")

// goldenPlans compiles the plan corpus — the eight Table 6 models, the
// four-lane model, wide8 and wide8's two K=2 shards under the default options, PlanShuffle,
// Slots 2048 and NoBSGS — and returns one named row of plan entries per
// (model, variant, scenario), in file order, and the Meta each
// (model, variant) was planned for.
func goldenPlans(t *testing.T) (names []string, rows map[string][]int, metas map[string]*Meta) {
	t.Helper()
	rows, metas = map[string][]int{}, map[string]*Meta{}
	add := func(name string, meta *Meta) {
		metas[name] = meta
		plan := meta.LevelPlan
		for _, encModel := range []bool{true, false} {
			key := name + map[bool]string{true: "/cipher", false: "/plain"}[encModel]
			names = append(names, key)
			st := plan.For(encModel)
			rows[key] = append([]int{plan.Levels, st.Compare, st.Reshuffle, st.Level, st.Accumulate, st.Final, st.Shuffle}, st.CompareRounds...)
		}
	}
	models := []string{"wide8", "lanes4"}
	for _, mb := range synth.Microbenchmarks() {
		models = append(models, mb.Name)
	}
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"default", Options{Slots: 1024}},
		{"planshuffle", Options{Slots: 1024, PlanShuffle: true}},
		{"slots2048", Options{Slots: 2048}},
		{"nobsgs", Options{Slots: 1024, NoBSGS: true}},
	} {
		for _, name := range models {
			var f *model.Forest
			switch name {
			case "wide8":
				f = wide8Forest(t)
			case "lanes4":
				f = lanes4Forest(t)
			default:
				f = microForest(t, name)
			}
			c, err := Compile(f, v.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			add(name+"/"+v.name, &c.Meta)
			if name != "wide8" {
				continue
			}
			shards, _, err := ShardForest(c, 2)
			if err != nil {
				t.Fatalf("wide8/%s: %v", v.name, err)
			}
			for i, sc := range shards {
				add(fmt.Sprintf("wide8-shard%d/%s", i, v.name), &sc.Meta)
			}
		}
	}
	return names, rows, metas
}

// goldenFields names the columns of a golden row; compare rounds follow.
var goldenFields = []string{"levels", "compare", "reshuffle", "level", "accumulate", "final", "shuffle"}

func goldenField(i int) string {
	if i < len(goldenFields) {
		return goldenFields[i]
	}
	return fmt.Sprintf("round%d", i-len(goldenFields))
}

// TestLevelPlansGolden pins every entry of every plan of the corpus to
// testdata/levelplans.golden: no chain length, stage entry, shuffle entry
// or compare-round level may be higher than recorded, and every one that
// is lower is listed (run with -update to record the new table). Pure
// planning, no BGV: it runs under -short.
func TestLevelPlansGolden(t *testing.T) {
	path := filepath.Join("testdata", "levelplans.golden")
	names, rows, _ := goldenPlans(t)
	if *updateGolden {
		var sb strings.Builder
		sb.WriteString("# config/variant/scenario: " + strings.Join(goldenFields, " ") + " compare-rounds...\n")
		for _, name := range names {
			sb.WriteString(name + ":")
			for _, v := range rows[name] {
				sb.WriteString(" " + strconv.Itoa(v))
			}
			sb.WriteString("\n")
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, ":")
		got, ok := rows[name]
		if !ok {
			t.Errorf("%s: in the golden table but not in the corpus", name)
			continue
		}
		seen++
		var want []int
		for _, f := range strings.Fields(rest) {
			v, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want = append(want, v)
		}
		if len(got) != len(want) {
			t.Errorf("%s: plan has %d entries, golden %d", name, len(got), len(want))
			continue
		}
		for i := range got {
			switch {
			case got[i] > want[i]:
				t.Errorf("%s: %s is %d, above the golden %d", name, goldenField(i), got[i], want[i])
			case got[i] < want[i]:
				t.Logf("%s: %s moved down %d -> %d", name, goldenField(i), want[i], got[i])
			}
		}
	}
	if seen != len(names) {
		t.Errorf("golden table covers %d of the corpus's %d rows; run with -update", seen, len(names))
	}
}
