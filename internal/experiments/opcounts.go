package experiments

import (
	"fmt"

	"copse"
	"copse/internal/core"
	"copse/internal/he"
	"copse/internal/he/heclear"
)

// Table1 reproduces the paper's Table 1: per-stage FHE operation counts
// and multiplicative depth. It prints the paper's analytic formulas
// (evaluated at the model's p, q, b, d) next to the bill of the program a
// lone query runs (lonePassBill). Exact matches are not expected — the
// paper's GF(2) plaintext space makes XOR a free addition, while the
// power-of-two-ring encoding costs extra multiplications (DESIGN.md §3)
// and the padded widths q̂ = QPad, b̂ = BPad replace q and b — but the
// *scaling* in each parameter must agree.
func Table1(cfg Config, caseName string) (*Table, error) {
	bills, meta, err := lonePassBill(cfg, caseName)
	if err != nil {
		return nil, err
	}
	compare, reshuffle, levels, accumulate := bills[0].Ops, bills[1].Ops, bills[2].Ops, bills[3].Ops
	p, b, d := meta.Precision, meta.B, meta.D
	logp := log2Ceil(p)
	logd := log2Ceil(max(d, 1))

	t := &Table{
		Title:  fmt.Sprintf("Table 1: operation counts per stage (model %s: p=%d q=%d b=%d d=%d)", caseName, p, meta.Q, b, d),
		Header: []string{"stage", "op", "paper formula", "paper value", "program"},
	}
	add := func(stage, op, formula string, paperVal int, program int64) {
		t.Rows = append(t.Rows, []string{stage, op, formula, fmt.Sprint(paperVal), fmt.Sprint(program)})
	}
	// Table 1a: secure comparison.
	add("compare", "Add", "4p-2", 4*p-2, compare.Add)
	add("compare", "ConstAdd", "p", p, compare.ConstAdd)
	add("compare", "Multiply", "p·log p + 3p - 2", p*logp+3*p-2, compare.Mul)
	add("compare", "ConstMul", "- (encoding artifact)", 0, compare.ConstMul)
	// Table 1b: level processing, d repetitions.
	add("levels(xd)", "Rotate", "d·b", d*b, levels.Rotate)
	add("levels(xd)", "Add", "d·(b+1)", d*(b+1), levels.Add)
	add("levels(xd)", "Multiply", "d·b", d*b, levels.Mul)
	// Table 1c: accumulation.
	add("accumulate", "Multiply", "2d-2", 2*d-2, accumulate.Mul)
	// Reshuffle (folded into Table 2's q terms in the paper).
	add("reshuffle", "Rotate", "q", meta.Q, reshuffle.Rotate)
	add("reshuffle", "Multiply", "q", meta.Q, reshuffle.Mul)

	t.Notes = append(t.Notes,
		fmt.Sprintf("paper multiplicative depth: 2·log p + log d + 2 = %d; program: %d", 2*logp+logd+2, accumulate.MaxDepth),
		fmt.Sprintf("padded widths actually processed: q̂=%d (q=%d), b̂=%d (b=%d)", meta.QPad, meta.Q, meta.BPad, b),
	)
	return t, nil
}

// Table2 reproduces the paper's Table 2: total evaluation complexity.
func Table2(cfg Config, caseName string) (*Table, error) {
	bills, meta, err := lonePassBill(cfg, caseName)
	if err != nil {
		return nil, err
	}
	p, q, b, d := meta.Precision, meta.Q, meta.B, meta.D
	logp := log2Ceil(p)
	logd := log2Ceil(max(d, 1))
	total := sumBills(bills)

	t := &Table{
		Title:  fmt.Sprintf("Table 2: total evaluation complexity (model %s)", caseName),
		Header: []string{"op", "paper formula", "paper value", "program"},
	}
	row := func(op, formula string, paperVal int, program int64) {
		t.Rows = append(t.Rows, []string{op, formula, fmt.Sprint(paperVal), fmt.Sprint(program)})
	}
	row("Rotate", "q + d·b", q+d*b, total.Rotate)
	row("Add", "4p-2 + q + d(b+1)", 4*p-2+q+d*(b+1), total.Add)
	row("ConstAdd", "p", p, total.ConstAdd)
	row("Multiply", "p·log p + 3p + q + d·b + 2d - 4", p*logp+3*p+q+d*b+2*d-4, total.Mul)
	row("ConstMul", "- (encoding artifact)", 0, total.ConstMul)
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper multiplicative depth 2·log p + log d + 2 = %d; program %d (our comparison circuit is shallower: log p + 2)",
			2*logp+logd+2, total.MaxDepth),
	)
	return t, nil
}

// lonePassBill compiles the named case and stages it for the Offload
// scenario (encrypted model, encrypted query) on the exact backend, as
// copse-compile does, and returns the stage bills of the program one
// query runs. A pass copies its op counts from these bills, so they are
// what a traced pass reports, without running one.
func lonePassBill(cfg Config, caseName string) ([]core.StageBill, *copse.Meta, error) {
	cfg = cfg.withDefaults()
	cfg.Models = []string{caseName}
	cases, err := AllCases(cfg)
	if err != nil {
		return nil, nil, err
	} else if len(cases) == 0 {
		return nil, nil, fmt.Errorf("experiments: no case named %q", caseName)
	}
	return programBill(cases[0], true)
}

// programBill is the stage bills of the lone-query program of cs with an
// encrypted or a plaintext model, and the model's Meta.
func programBill(cs Case, encModel bool) ([]core.StageBill, *copse.Meta, error) {
	compiled, err := copse.Compile(cs.Forest, copse.CompileOptions{Slots: cs.Slots})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: compiling %s: %w", cs.Name, err)
	}
	staged, err := core.Prepare(heclear.New(cs.Slots, 65537), compiled, encModel, true, false)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: staging %s: %w", cs.Name, err)
	}
	meta := &compiled.Meta
	return staged.ProgramFor(meta.PlanesPerCiphertext(1)).StageBills(), meta, nil
}

// sumBills is a program's bill over its stages.
func sumBills(bills []core.StageBill) he.OpCounts {
	var total he.OpCounts
	for _, b := range bills {
		total = total.Plus(b.Ops)
	}
	return total
}
