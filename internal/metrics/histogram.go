package metrics

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a fixed-shape power-of-two latency histogram: bucket i
// holds observations v with 2^(i-1) <= v < 2^i (bucket 0 takes v <= 0),
// so upper bounds run 0, 1, 3, 7, ... 2^i-1 and the positive int64
// range needs exactly 64 buckets (MaxInt64 has bit length 63). The
// fixed shape is the point: Observe is one bits.Len64 plus one atomic
// add — allocation-free, lock-free and safe for concurrent use — so
// hot paths (a serving tenant's classify and per-sample train
// latencies) can feed it directly. The zero value is ready to use; a nil receiver
// no-ops like Counters, so publishers need no guards.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// bucketIndex maps an observation to its bucket: 0 for v <= 0, else
// bits.Len64(v) (the position of the highest set bit, 1-based), which
// is exactly "smallest i with v <= 2^i - 1".
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket returns the observation count of bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if h == nil || i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i].Load()
}

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = 64

// UpperBound returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 otherwise (the last bucket's bound is MaxInt64 = 2^63 - 1).
func UpperBound(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << i) - 1
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of
// the observed distribution: the upper bound of the first bucket whose
// cumulative count reaches q of the total. 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return UpperBound(i)
		}
	}
	return UpperBound(len(h.buckets) - 1)
}

// Reset drops every observation.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Publish writes summary statistics into reg under prefix:
// "<prefix>.count", "<prefix>.sum", "<prefix>.p50", "<prefix>.p99"
// (quantiles are pow2 upper bounds). Nil receiver or registry no-op.
func (h *Histogram) Publish(reg *Counters, prefix string) {
	if h == nil || reg == nil {
		return
	}
	reg.Set(prefix+".count", h.Count())
	reg.Set(prefix+".sum", h.Sum())
	reg.Set(prefix+".p50", h.Quantile(0.50))
	reg.Set(prefix+".p99", h.Quantile(0.99))
}

// WriteTo renders the non-empty buckets as "le=<bound> count\n" lines
// in bound order, followed by a "count"/"sum" trailer. Implements
// io.WriterTo; nil writes nothing.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	if h == nil {
		return 0, nil
	}
	var total int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		w1, err := fmt.Fprintf(w, "le=%d %d\n", UpperBound(i), n)
		total += int64(w1)
		if err != nil {
			return total, err
		}
	}
	w2, err := fmt.Fprintf(w, "count %d sum %d\n", h.Count(), h.Sum())
	total += int64(w2)
	return total, err
}
