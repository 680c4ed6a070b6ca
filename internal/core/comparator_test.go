package core

import (
	"testing"

	"copse/internal/he/heclear"
)

// sklanskyKeySwitches is the key-switch bill of the compare stage the
// reduction tree replaced, at m operands of packing g: Sklansky prefix
// products over the m eq planes (the last operand's chain dead unless plane
// rounds read it), a lazy gt sum under one relinearization, the gt product
// of every plane under an encrypted model, and the plane rounds — two
// rotations and two products each, the last round's EQ dead. The tree must
// stay within it at every packing.
func sklanskyKeySwitches(m, g int, encModel bool) int {
	type product struct{ dst, a, b int }
	reg := make([]int, m) // the register of each inclusive prefix
	for i := range reg {
		reg[i] = i
	}
	var products []product
	for span := 1; span < m; span <<= 1 {
		for start := 0; start+span-1 < m; start += 2 * span {
			pivot := start + span - 1
			for i := pivot + 1; i <= pivot+span && i < m; i++ {
				products = append(products, product{m + len(products), reg[i], reg[pivot]})
				reg[i] = products[len(products)-1].dst
			}
		}
	}
	live := map[int]bool{}
	for i := 0; i < m-1; i++ {
		live[reg[i]] = true
	}
	if g > 1 {
		live[reg[m-1]] = true
	}
	ks := 0
	for i := len(products) - 1; i >= 0; i-- {
		if p := products[i]; live[p.dst] {
			ks++
			live[p.a], live[p.b] = true, true
		}
	}
	if m > 1 {
		ks++ // the gt sum's relinearization
	}
	if encModel {
		ks += m
	}
	if g > 1 {
		ks += 4*log2Ceil(g) - 2
	}
	return ks
}

// checkCompareBill asserts what the reduction tree promises of a program's
// compare stage: ⌈log2 p⌉ product levels, one more under an encrypted model
// (the gt product of the planes), and no more key switches than the
// Sklansky chain it replaced.
func checkCompareBill(t *testing.T, p *Program, meta *Meta, g int) {
	t.Helper()
	bill := p.StageBills()[stCompare]
	depth := log2Ceil(meta.Precision)
	if p.encModel {
		depth++
	}
	if bill.Depth != depth {
		t.Errorf("enc=%v p=%d g=%d: compare depth %d, want %d", p.encModel, meta.Precision, g, bill.Depth, depth)
	}
	if most := sklanskyKeySwitches(meta.QueryCiphertexts(g), g, p.encModel); bill.KeySwitches > most {
		t.Errorf("enc=%v p=%d g=%d: compare %d key switches, the Sklansky chain %d", p.encModel, meta.Precision, g, bill.KeySwitches, most)
	}
}

// TestCompareBillTable6 pins the reduction tree's bill at one plane per
// ciphertext for the Table 6 precisions: p = 8 and p = 16 in ⌈log2 p⌉
// product levels (one more under an encrypted model) on fewer key switches
// than the Sklansky chain's 10, 29 and 45.
func TestCompareBillTable6(t *testing.T) {
	for _, tc := range []struct {
		name     string
		encModel bool
		want     StageBill // Work aside
	}{
		{"depth4", false, StageBill{Products: 12, Lazy: 4, Relins: 1, KeySwitches: 9, Depth: 3}},
		{"prec16", false, StageBill{Products: 27, Lazy: 5, Relins: 1, KeySwitches: 23, Depth: 4}},
		{"prec16", true, StageBill{Products: 43, Lazy: 5, Relins: 1, KeySwitches: 39, Depth: 5}},
	} {
		c, err := Compile(microForest(t, tc.name), Options{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Prepare(heclear.New(1024, 65537), c, tc.encModel)
		if err != nil {
			t.Fatal(err)
		}
		got := m.ProgramFor(1).StageBills()[stCompare]
		got.Work = 0
		if got != tc.want {
			t.Errorf("%s enc=%v: compare %+v, want %+v", tc.name, tc.encModel, got, tc.want)
		}
		if most := sklanskyKeySwitches(c.Meta.Precision, 1, tc.encModel); got.KeySwitches >= most {
			t.Errorf("%s enc=%v: %d key switches, the Sklansky chain %d", tc.name, tc.encModel, got.KeySwitches, most)
		}
	}
}
