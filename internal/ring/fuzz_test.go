package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// fuzzModulus derives a transform-sized Modulus from the fuzzed
// selectors: LogN ∈ {11..15} and one of several fresh 55-bit NTT
// primes for that size.
func fuzzModulus(t *testing.T, logNSel, primeSel uint64) *Modulus {
	t.Helper()
	logN := 11 + int(logNSel%5)
	n := 1 << logN
	const menu = 4
	primes, err := GeneratePrimes(55, uint64(2*n), menu)
	if err != nil {
		t.Fatalf("GeneratePrimes: %v", err)
	}
	m, err := NewModulus(primes[primeSel%menu], n)
	if err != nil {
		t.Fatalf("NewModulus: %v", err)
	}
	return m
}

// FuzzNTTRoundTrip: NTT→INTT must be the identity on any input row,
// for any LogN ∈ {11..15} and any 55-bit NTT prime, on whichever
// kernel variant the host selects.
func FuzzNTTRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(0))
	f.Add(uint64(42), uint64(2), uint64(1))
	f.Add(uint64(0xfeed), uint64(4), uint64(3))
	f.Fuzz(func(t *testing.T, seed, logNSel, primeSel uint64) {
		m := fuzzModulus(t, logNSel, primeSel)
		rng := rand.New(rand.NewSource(int64(seed)))
		a := make([]uint64, m.N)
		for i := range a {
			a[i] = rng.Uint64() % m.Q
		}
		orig := append([]uint64(nil), a...)
		m.NTT(a)
		m.INTT(a)
		for i := range a {
			if a[i] != orig[i] {
				t.Fatalf("round trip broken at %d: got %d want %d (q=%d n=%d vec=%v)",
					i, a[i], orig[i], m.Q, m.N, m.VectorKernels())
			}
		}
	})
}

// FuzzVectorVsScalar: every vector tier the host has must be
// bit-identical to the scalar kernels on any input each kernel accepts:
// the transforms, every pointwise row, the key-switch inner product from
// 1 to montGroup digits, the base-conversion target from 1 to
// maxConvPrimes source primes, and the rescale. edges picks the input
// rows (fuzzRow): uniform, or the boundary values 0, q−1 (the inner
// product's largest operands) and the lazy bounds 2q−1 (inverse
// transform) and 4q−1 (forward transform, the Shoup rows' multiplicand,
// the conversion's source rows).
func FuzzVectorVsScalar(f *testing.F) {
	f.Add(uint64(7), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(99), uint64(1), uint64(2), uint64(4))
	f.Add(uint64(0xabcd), uint64(3), uint64(1), uint64(3))
	f.Fuzz(func(t *testing.T, seed, logNSel, primeSel, edges uint64) {
		if !VectorKernelsAvailable() {
			t.Skip("no vector backend on this host/build")
		}
		m := fuzzModulus(t, logNSel, primeSel)
		rng := rand.New(rand.NewSource(int64(seed)))
		q, n := m.Q, m.N
		row := func(bound uint64) []uint64 { return fuzzRow(rng, edges, n, q, bound) }

		// Conversion primes: 1 to maxConvPrimes sources and a target,
		// of 50 to 59 bits (the conversion bound is 2^60).
		k := 1 + int(seed%maxConvPrimes)
		convPrimes, err := GeneratePrimes(50+int(primeSel%10), 2, k+1)
		if err != nil {
			t.Fatalf("GeneratePrimes: %v", err)
		}
		y := make([][]uint64, k)
		for i, s := range convPrimes[:k] {
			y[i] = fuzzRow(rng, edges, n, s, 4*s)
		}
		dig, kb, ka := montRows(func() []uint64 { return row(q) })
		rows := rowCase{
			q: q, a: row(q), b: row(q), acc: row(q), lazy: row(4 * q), c: rng.Uint64() % q,
			dig: dig, kb: kb, ka: ka,
			conv: newConv(convPrimes[:k], convPrimes[k]), y: y, v: fuzzRow(rng, edges, n, uint64(k)+1, 8),
		}
		fwd, inv := row(4*q), row(2*q)

		for _, tier := range vectorTiers {
			if tier > hostTier {
				continue
			}
			m.pinTier(tier)
			want := append([]uint64(nil), fwd...)
			got := append([]uint64(nil), fwd...)
			m.nttScalar(want)
			m.NTT(got)
			rowsEqual(t, fmt.Sprintf("%s NTT (edges=%d)", tier, edges), want, got)
			copy(want, inv)
			copy(got, inv)
			m.inttScalar(want)
			m.INTT(got)
			rowsEqual(t, fmt.Sprintf("%s INTT (edges=%d)", tier, edges), want, got)
			checkRowKernels(t, tier, rows)
		}
	})
}

// fuzzRow draws n values below bound for a kernel over modulus q:
// edges%5 selects uniform values (0), all 0 (1), all q−1 (2), all
// bound−1 (3), or a per-value mix of those (4).
func fuzzRow(rng *rand.Rand, edges uint64, n int, q, bound uint64) []uint64 {
	row := make([]uint64, n)
	for i := range row {
		pick := edges % 5
		if pick == 4 {
			pick = uint64(rng.Intn(4))
		}
		switch pick {
		case 0:
			row[i] = rng.Uint64() % bound
		case 1:
			row[i] = 0
		case 2:
			row[i] = q - 1
		case 3:
			row[i] = bound - 1
		}
	}
	return row
}
