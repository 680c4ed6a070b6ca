// Package hist provides a fixed-bucket, log-spaced latency histogram
// safe for concurrent observation: the serving layer's per-model
// latency distributions (p50/p95/p99 in Service.Stats and /v1/stats)
// and the gateway's fan-out/merge accounting both record into it.
//
// The bucket layout is fixed — not adaptive — so snapshots taken at
// different times (or on different nodes) are directly comparable and
// mergeable by bucket-wise addition.
package hist

import (
	"encoding/json"
	"sync/atomic"
	"time"
)

// NumBuckets log-spaced buckets at ×1.5 spacing cover 1µs to ~25min;
// observations outside the range clamp into the end buckets.
const NumBuckets = 54

// baseNS is the upper bound of bucket 0 in nanoseconds (1µs); bucket i
// covers [baseNS·1.5^(i-1), baseNS·1.5^i).
const baseNS = 1000

// bounds[i] is the exclusive upper bound of bucket i; the last bucket
// is unbounded.
var bounds = func() [NumBuckets - 1]int64 {
	var b [NumBuckets - 1]int64
	f := float64(baseNS)
	for i := range b {
		b[i] = int64(f)
		f *= 1.5
	}
	return b
}()

// Histogram is a concurrency-safe fixed-bucket latency histogram.
// The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	total  atomic.Int64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketFor locates the bucket of a duration in nanoseconds.
func bucketFor(ns int64) int {
	lo, hi := 0, NumBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ns < bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketFor(ns)].Add(1)
	h.total.Add(1)
}

// Snapshot is a point-in-time copy of the histogram.
type Snapshot struct {
	Count   int64
	Buckets [NumBuckets]int64
}

// Snapshot copies the counters. Concurrent Observe calls may land in
// either side of the snapshot; the copy is never torn below the level
// of a single bucket.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	s.Count = h.total.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.counts[i].Load()
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the recorded
// distribution, linearly interpolated within the bucket the rank lands
// in. An empty snapshot reports 0.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := int64(2 * lo)
			if i < len(bounds) {
				hi = bounds[i]
			}
			frac := (rank - seen) / float64(c)
			return time.Duration(lo + int64(frac*float64(hi-lo)))
		}
		seen += float64(c)
	}
	// Rank beyond the last non-empty bucket (rounding): report the top
	// bound of the highest occupied bucket.
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] > 0 {
			if i < len(bounds) {
				return time.Duration(bounds[i])
			}
			return time.Duration(2 * bounds[len(bounds)-1])
		}
	}
	return 0
}

// Summary is a snapshot's count and interpolated p50/p95/p99: the one
// form both Service.Stats and the gateway's /v1/stats report a
// distribution in.
type Summary struct {
	Count         int64
	P50, P95, P99 time.Duration
}

// Summary summarizes the snapshot.
func (s Snapshot) Summary() Summary {
	return Summary{Count: s.Count, P50: s.Quantile(0.50), P95: s.Quantile(0.95), P99: s.Quantile(0.99)}
}

// MarshalJSON renders the summary with its quantiles in milliseconds.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Count int64   `json:"count"`
		P50MS float64 `json:"p50MS"`
		P95MS float64 `json:"p95MS"`
		P99MS float64 `json:"p99MS"`
	}{s.Count, Millis(s.P50), Millis(s.P95), Millis(s.P99)})
}

// Millis is d in milliseconds, to the microsecond: the unit every JSON
// latency field is in.
func Millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
