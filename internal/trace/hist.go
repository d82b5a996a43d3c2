package trace

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// HistBuckets is the number of power-of-two latency buckets. Bucket i
// holds durations d with bits.Len64(d) == i, i.e. bucket 0 is exactly
// 0ns, bucket i covers [2^(i-1), 2^i) ns; the top bucket absorbs
// everything longer (~9 hours and up).
const HistBuckets = 46

// hist is a live latency histogram updated with atomics: lock-free,
// allocation-free, snapshot-able while hot.
type hist struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [HistBuckets]atomic.Uint64
}

func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(ns))
	h.buckets[bucketOf(ns)].Add(1)
}

func (h *hist) snapshot() Histogram {
	var s Histogram
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Histogram is a plain-value latency histogram snapshot.
type Histogram struct {
	// Count is the number of observations.
	Count uint64
	// SumNS is the sum of all observed durations in nanoseconds.
	SumNS uint64
	// Buckets are power-of-two duration buckets; see HistBuckets.
	Buckets [HistBuckets]uint64
}

// Add returns the bucket-wise sum of two histograms.
func (s Histogram) Add(o Histogram) Histogram {
	s.Count += o.Count
	s.SumNS += o.SumNS
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
	return s
}

// Mean returns the mean observed duration (0 when empty).
func (s Histogram) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) from the
// bucket boundaries: the result is exact to within a factor of two.
func (s Histogram) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target >= s.Count {
		target = s.Count - 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum > target {
			return time.Duration(bucketHigh(i))
		}
	}
	return time.Duration(bucketHigh(HistBuckets - 1))
}

// bucketHigh is the exclusive upper bound of bucket i in nanoseconds.
func bucketHigh(i int) int64 {
	if i == 0 {
		return 0
	}
	return 1 << i
}
