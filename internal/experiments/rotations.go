package experiments

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"copse"
	"copse/internal/he"
)

// RotationBench is the machine-readable perf-trajectory record emitted
// by copse-bench -rotjson: per-model stage timings and primitive
// operation counts, so successive PRs can diff the rotation bill and
// stage breakdown without re-parsing rendered tables.
type RotationBench struct {
	Backend string         `json:"backend"`
	Queries int            `json:"queries"`
	Seed    uint64         `json:"seed"`
	Cases   []RotationCase `json:"cases"`
}

// RotationCase is one model's record.
type RotationCase struct {
	Name    string  `json:"name"`
	QPad    int     `json:"q_pad"`
	BPad    int     `json:"b_pad"`
	Depth   int     `json:"depth"`
	UseBSGS bool    `json:"use_bsgs"`
	TotalMS float64 `json:"total_ms"` // median over queries

	Stages []RotationStage `json:"stages"`
}

// RotationStage is one pipeline stage's record.
type RotationStage struct {
	Name          string  `json:"name"`
	MedianMS      float64 `json:"median_ms"`
	Rotate        int64   `json:"rotate"`
	RotateHoisted int64   `json:"rotate_hoisted"`
	Add           int64   `json:"add"`
	ConstAdd      int64   `json:"const_add"`
	Mul           int64   `json:"mul"`
	ConstMul      int64   `json:"const_mul"`
}

// RotationReport runs every configured model once per query and collects
// the stage-level timings and op counts.
func RotationReport(cfg Config) (*RotationBench, error) {
	cfg = cfg.withDefaults()
	cases, err := AllCases(cfg)
	if err != nil {
		return nil, err
	}
	report := &RotationBench{Backend: cfg.Backend, Queries: cfg.Queries, Seed: cfg.Seed}
	for _, cs := range cases {
		r, err := newCopseRunner(cs, cfg, defaultWorkers(cfg), copse.ScenarioOffload)
		if err != nil {
			return nil, err
		}
		times, traces, err := r.run(cfg.Queries, cfg.Seed)
		if err != nil {
			r.close()
			return nil, err
		}
		meta := r.sys.Sally.Meta()
		rc := RotationCase{
			Name:    cs.Name,
			QPad:    meta.QPad,
			BPad:    meta.BPad,
			Depth:   meta.D,
			UseBSGS: meta.UseBSGS,
			TotalMS: medianMS(times),
		}
		stage := func(name string, pick func(*copse.Trace) (time.Duration, he.OpCounts)) {
			durs := make([]time.Duration, len(traces))
			var ops he.OpCounts
			for i, tr := range traces {
				durs[i], ops = pick(tr)
			}
			rc.Stages = append(rc.Stages, RotationStage{
				Name:          name,
				MedianMS:      medianMS(durs),
				Rotate:        ops.Rotate,
				RotateHoisted: ops.RotateHoisted,
				Add:           ops.Add,
				ConstAdd:      ops.ConstAdd,
				Mul:           ops.Mul,
				ConstMul:      ops.ConstMul,
			})
		}
		stage("compare", func(tr *copse.Trace) (time.Duration, he.OpCounts) { return tr.Compare, tr.CompareOps })
		stage("reshuffle", func(tr *copse.Trace) (time.Duration, he.OpCounts) { return tr.Reshuffle, tr.ReshuffleOps })
		stage("levels", func(tr *copse.Trace) (time.Duration, he.OpCounts) { return tr.Levels, tr.LevelOps })
		stage("accumulate", func(tr *copse.Trace) (time.Duration, he.OpCounts) { return tr.Accumulate, tr.AccumulateOps })
		r.close()
		report.Cases = append(report.Cases, rc)
	}
	return report, nil
}

// WriteJSON writes the report, indented for diff-friendliness.
func (r *RotationBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func medianMS(durs []time.Duration) float64 {
	if len(durs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2].Microseconds()) / 1000
}
