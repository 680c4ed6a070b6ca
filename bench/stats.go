package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// epsilon keeps 99.9% of 10000 at 9990 despite the rounding of 99.9.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// median of an unsorted sample; 0 when empty.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest candidate percentile that has at least ten
// samples beyond it, and its value; with fewer than twenty samples no
// candidate qualifies and it returns the median as percentile 50.
func tail(sorted []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if len(sorted)-rank(len(sorted), p) >= 10 {
			return p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 50)
}

// spread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the contract bounds.
// Quartiles follow Python's statistics.quantiles(values, n=4)
// (exclusive method). Fewer than two values have no spread: 0.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	s := sortedCopy(vals)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

// arrivals is an open-loop schedule: n request due-times in [0, window),
// ascending. Given the count, the arrival times of a Poisson process
// are independent uniform draws, so fixing n = rate x window keeps the
// offered load identical across seeds while the spacing stays
// Poisson — a free count would move throughput by 1/sqrt(n) per seed.
func arrivals(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := max(int(math.Round(rate*window.Seconds())), 1)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
