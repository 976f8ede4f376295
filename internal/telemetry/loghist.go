package telemetry

import (
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
)

// logBuckets is the bucket count of a LogHist: bucket i holds values v with
// bits.Len64(v) == i, i.e. v ∈ [2^(i-1), 2^i). Bucket 0 holds v ≤ 0. 65
// buckets cover the whole uint64 range.
const logBuckets = 65

// LogHist is a lock-free log₂-bucketed histogram: Observe is one atomic
// add on the value's bucket plus count/sum upkeep, with no mutex and no
// allocation, so concurrent runs sharing one Telemetry can feed it from
// their per-step hooks. The trade-off against obs.Histogram's exact
// user-chosen bounds is resolution: quantiles are exact only up to the
// power-of-two bucket width, which is all the wave-latency and
// step-duration views need.
type LogHist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [logBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value. Safe for concurrent use; never allocates.
//
//snapvet:hotpath
func (h *LogHist) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *LogHist) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *LogHist) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation.
func (h *LogHist) Max() int64 { return h.max.Load() }

// Mean returns the mean observation (0 when empty).
func (h *LogHist) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// covering rank ⌈q·count⌉ and interpolating linearly inside it, assuming
// observations are uniform within the bucket.
//
// Error bounds: the estimate always lies inside the covering bucket
// [2^(i−1), 2^i), so it is within a factor of 2 of the exact nearest-rank
// percentile — the bucket's width is its lower edge. Buckets 0 (v ≤ 0) and
// 1 (v = 1) are single-valued, so estimates landing there are exact, and
// the result is clamped to the true observed maximum, which makes
// Quantile(1) exact as well. ExactQuantile is the test oracle for these
// bounds.
//
// The reads are not a consistent snapshot — concurrent Observes can skew a
// quantile by their in-flight observations, which is fine for monitoring
// output.
func (h *LogHist) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++ // ceil: nearest-rank, matching ExactQuantile
	}
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i < logBuckets; i++ {
		n := h.buckets[i].Load()
		cum += n
		if cum < rank {
			continue
		}
		if i == 0 {
			return 0
		}
		// Interpolate within [lo, hi]: the rank'th observation is the
		// (rank − cumBefore)'th of the bucket's n, assumed evenly spread.
		lo := int64(1) << uint(i-1)
		hi := upperEdge(i)
		frac := float64(rank-(cum-n)) / float64(n)
		v := lo + int64(frac*float64(hi-lo))
		if m := h.max.Load(); v > m {
			v = m // the top of the covering bucket can exceed the true max
		}
		return v
	}
	return h.max.Load()
}

// upperEdge is bucket i's inclusive upper value bound, saturating at
// MaxInt64 for the top bucket.
func upperEdge(i int) int64 {
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(1)<<uint(i) - 1
}

// String implements expvar.Var: count/sum/max, the p50/p95/p99 bucket
// upper bounds, and the non-empty buckets keyed by upper edge.
func (h *LogHist) String() string {
	var b strings.Builder
	b.WriteString(`{"count":`)
	b.WriteString(strconv.FormatInt(h.count.Load(), 10))
	b.WriteString(`,"sum":`)
	b.WriteString(strconv.FormatInt(h.sum.Load(), 10))
	b.WriteString(`,"max":`)
	b.WriteString(strconv.FormatInt(h.max.Load(), 10))
	b.WriteString(`,"p50":`)
	b.WriteString(strconv.FormatInt(h.Quantile(0.50), 10))
	b.WriteString(`,"p95":`)
	b.WriteString(strconv.FormatInt(h.Quantile(0.95), 10))
	b.WriteString(`,"p99":`)
	b.WriteString(strconv.FormatInt(h.Quantile(0.99), 10))
	b.WriteString(`,"buckets":{`)
	first := true
	for i := 0; i < logBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(`"le_`)
		b.WriteString(strconv.FormatInt(upperEdge(i), 10))
		b.WriteString(`":`)
		b.WriteString(strconv.FormatInt(n, 10))
	}
	b.WriteString("}}")
	return b.String()
}
