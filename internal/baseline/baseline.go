// Package baseline reimplements the paper's comparison system: the
// polynomial-based secure decision-forest evaluation of Aloufi et al.
// [1] (paper §2.3.1, §8.2). Each tree is a boolean polynomial over the
// decision results: every leaf contributes a term multiplying the
// decisions (or their complements) along its root path, times the bits
// of its label; label bits are packed into SIMD slots, every tree in its
// own, so one ciphertext carries the whole forest's result — but,
// crucially, every decision node is evaluated by its own comparison.
// Comparison cost is therefore linear in the branch count b, where
// COPSE's is constant (its packed comparison covers all branches at once).
// The polynomial is lowered into COPSE's op program (core.BaselineForest,
// DESIGN.md §13.6), so both systems share the same comparator, the same
// level planner, the same executor and the same FHE backend, exactly like
// the paper's evaluation methodology.
package baseline

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/hebgv"
	"copse/internal/he/heclear"
	"copse/internal/model"
)

// Meta carries the public parameters of a prepared baseline model.
type Meta struct {
	NumFeatures int
	Precision   int
	NumTrees    int
	NumLabels   int
	LabelBits   int // slots used per tree result
}

// Model is a forest prepared for baseline evaluation: its op program, the
// backend built for it, and the encrypted thresholds and label bits the
// program loads. The model owner encrypts them (the offload
// configuration, paper §7).
type Model struct {
	Meta Meta
	// Backend is the backend Prepare built for the program: on BGV, a chain
	// of Plan.Compare + 1 primes and the power-of-two rotation keys every
	// key set holds (the program never rotates).
	Backend he.Backend
	// Plan is the program's level schedule (core.PlanBaseline).
	Plan       core.StageLevels
	program    *core.Program
	thresholds []he.Operand
	labels     []he.Operand
}

// Query carries the data owner's encrypted features: p bit planes per
// feature, each broadcast across slots (the baseline packs label bits, not
// decisions, so features are scalar ciphertexts).
type Query struct {
	planes []he.Operand
}

// encryptPlanes encrypts the p bit planes of v, most significant first,
// each broadcast into every slot, at the given level (-1: the chain top);
// with negate it encrypts ¬y = 1 − y of each plane y.
func encryptPlanes(b he.Backend, v uint64, p int, negate bool, level int) ([]he.Operand, error) {
	if v>>uint(p) != 0 {
		return nil, fmt.Errorf("baseline: value %d exceeds %d-bit precision", v, p)
	}
	out := make([]he.Operand, p)
	for j := range out {
		bit := v >> uint(p-1-j) & 1
		if negate {
			bit ^= 1
		}
		var err error
		if out[j], err = encrypt(b, slices.Repeat([]uint64{bit}, b.Slots()), level); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func encrypt(b he.Backend, vals []uint64, level int) (he.Operand, error) {
	ct, err := he.EncryptAtLevel(b, vals, level)
	if err != nil {
		return he.Operand{}, err
	}
	return he.Cipher(ct), nil
}

// Prepare lowers f to the baseline's op program over a ring of the given
// slot count, plans its levels, builds the backend it runs on — "clear",
// or "bgv" on the chain the plan needs, keyed from seed — and encrypts the
// thresholds, negated, and the label bits at the levels the plan stages
// them at.
func Prepare(f *model.Forest, slots int, backend string, seed uint64) (*Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	labelBits := max(bits.Len(uint(len(f.Labels)-1)), 1)
	if len(f.Trees)*labelBits > slots {
		return nil, fmt.Errorf("baseline: %d trees of %d label bits do not fit %d slots", len(f.Trees), labelBits, slots)
	}
	m := &Model{
		Meta: Meta{
			NumFeatures: f.NumFeatures,
			Precision:   f.Precision,
			NumTrees:    len(f.Trees),
			NumLabels:   len(f.Labels),
			LabelBits:   labelBits,
		},
	}
	shape := &core.BaselineForest{NumFeatures: f.NumFeatures, Precision: f.Precision}
	var thresholds []uint64
	var labels [][]uint64
	for ti, tr := range f.Trees {
		var walk func(n *model.Node, path []int)
		walk = func(n *model.Node, path []int) {
			if n.Leaf {
				lb := make([]uint64, slots)
				for j := 0; j < labelBits; j++ {
					lb[ti*labelBits+j] = uint64(n.Label>>uint(j)) & 1
				}
				labels = append(labels, lb)
				shape.Paths = append(shape.Paths, append([]int(nil), path...))
				return
			}
			node := len(shape.Features) + 1
			shape.Features = append(shape.Features, n.Feature)
			thresholds = append(thresholds, n.Threshold)
			walk(n.Left, append(path, -node))
			walk(n.Right, append(path, node))
		}
		walk(tr.Root, nil)
	}

	var err error
	if m.Plan, err = core.PlanBaseline(shape, slots); err != nil {
		return nil, err
	}
	switch backend {
	case "clear":
		m.Backend = heclear.New(slots, 65537)
	case "bgv":
		params, err := bgv.ParamsForSlots(slots, m.Plan.Compare+1)
		if err != nil {
			return nil, err
		}
		if m.Backend, err = hebgv.New(hebgv.Config{Params: params, Seed: seed}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("baseline: unknown backend %q", backend)
	}
	if m.program, err = core.NewBaselineProgram(m.Backend, shape, m.Plan); err != nil {
		return nil, err
	}
	for _, y := range thresholds {
		planes, err := encryptPlanes(m.Backend, y, f.Precision, true, m.Plan.Compare)
		if err != nil {
			return nil, err
		}
		m.thresholds = append(m.thresholds, planes...)
	}
	for _, lb := range labels {
		op, err := encrypt(m.Backend, lb, m.Plan.Level)
		if err != nil {
			return nil, err
		}
		m.labels = append(m.labels, op)
	}
	return m, nil
}

// PrepareQuery encrypts a quantized feature vector on the model's backend.
func PrepareQuery(b he.Backend, meta *Meta, features []uint64) (*Query, error) {
	if len(features) != meta.NumFeatures {
		return nil, fmt.Errorf("baseline: got %d features, model wants %d", len(features), meta.NumFeatures)
	}
	q := &Query{}
	for _, v := range features {
		planes, err := encryptPlanes(b, v, meta.Precision, false, -1)
		if err != nil {
			return nil, err
		}
		q.planes = append(q.planes, planes...)
	}
	return q, nil
}

// Classify runs m's program on q on the op-program executor with the
// given worker count (0 = GOMAXPROCS), returning the result — every tree's
// label bits in its own slots — and the pass's stage trace.
func Classify(ctx context.Context, m *Model, q *Query, workers int) (he.Operand, *core.Trace, error) {
	e := &core.Engine{Backend: m.Backend, Workers: workers}
	return e.ClassifyBaseline(ctx, m.program, q.planes, m.thresholds, m.labels)
}

// DecodeResult turns the decrypted result slots into one label index per
// tree.
func DecodeResult(meta *Meta, slots []uint64) ([]int, error) {
	if len(slots) < meta.NumTrees*meta.LabelBits {
		return nil, fmt.Errorf("baseline: %d result slots for %d trees of %d label bits", len(slots), meta.NumTrees, meta.LabelBits)
	}
	out := make([]int, meta.NumTrees)
	for ti := range out {
		label := 0
		for j := 0; j < meta.LabelBits; j++ {
			bit := slots[ti*meta.LabelBits+j]
			if bit > 1 {
				return nil, fmt.Errorf("baseline: tree %d slot %d holds %d, not a bit", ti, j, bit)
			}
			label |= int(bit) << uint(j)
		}
		if label >= meta.NumLabels {
			return nil, fmt.Errorf("baseline: tree %d decoded label %d out of range", ti, label)
		}
		out[ti] = label
	}
	return out, nil
}
