// Package stats provides the small statistics primitive the simulator uses
// to aggregate latencies: a log-bucketed duration histogram for means and
// percentiles.
package stats

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// LatencyHist is a log-bucketed histogram of durations, 1 us floor, ~5%
// bucket width, suitable for storage latencies from microseconds to minutes.
type LatencyHist struct {
	buckets []uint64
	total   uint64
	sum     time.Duration
}

const (
	histFloor  = time.Microsecond
	histGrowth = 1.05
	histMax    = 1024
)

// logBucket is the bucket formula: the whole number of histGrowth steps from
// histFloor up to d, clamped to the last bucket. histBucket computes the same
// function from a table.
func logBucket(d time.Duration) int {
	if d <= histFloor {
		return 0
	}
	b := int(math.Log(float64(d)/float64(histFloor)) / math.Log(histGrowth))
	if b >= histMax {
		return histMax - 1
	}
	return b
}

// bucketTable holds logBucket's exact thresholds. thr[b] is the smallest
// duration logBucket puts in bucket b or above, MaxUint64 for buckets no
// duration reaches. start[k] is the bucket of the smallest duration whose
// bit length n and the three bits below its top bit form the key
// k = n<<3 | bits. A key spans a factor of at most 1.125 and a bucket 1.05,
// so a lookup steps at most three thresholds past start.
type bucketTable struct {
	thr   [histMax + 1]uint64
	start [64 << 3]uint16
}

// buckets is built on the first lookup past the floor, not at package
// init, so a process that records no latency never pays for it.
var (
	bucketsOnce sync.Once
	buckets     bucketTable
)

// histBucket returns logBucket(d) by table lookup: no logarithm per call.
func histBucket(d time.Duration) int {
	if d <= histFloor {
		return 0
	}
	bucketsOnce.Do(buildBuckets)
	u := uint64(d)
	n := bits.Len64(u)
	b := int(buckets.start[n<<3|int(u>>(n-4)&7)])
	for u >= buckets.thr[b+1] {
		b++
	}
	return b
}

// buildBuckets binary-searches each threshold over the formula itself, so
// the table agrees with logBucket wherever the formula is monotone (the
// exactness tests check that it is), then keys the start buckets.
func buildBuckets() {
	t, top := &buckets, logBucket(math.MaxInt64)
	lo := uint64(histFloor) // logBucket(lo) < b
	for b := 1; b <= histMax; b++ {
		if b > top {
			t.thr[b] = math.MaxUint64
			continue
		}
		hi := uint64(math.MaxInt64)
		for lo+1 < hi {
			if mid := lo + (hi-lo)/2; logBucket(time.Duration(mid)) >= b {
				hi = mid
			} else {
				lo = mid
			}
		}
		t.thr[b] = hi
	}
	b := 0
	for k := 4 << 3; k < len(t.start); k++ {
		n := k >> 3
		least := uint64(1)<<(n-1) | uint64(k&7)<<(n-4)
		for least >= t.thr[b+1] {
			b++
		}
		t.start[k] = uint16(b)
	}
}

func histValue(b int) time.Duration {
	return time.Duration(float64(histFloor) * math.Pow(histGrowth, float64(b)+0.5))
}

// Add records one duration.
func (h *LatencyHist) Add(d time.Duration) {
	if h.buckets == nil {
		h.buckets = make([]uint64, histMax)
	}
	h.buckets[histBucket(d)]++
	h.total++
	h.sum += d
}

// Reset empties the histogram for reuse, zeroing the bucket array in place
// instead of dropping it, so a pooled histogram records its next run without
// reallocating.
func (h *LatencyHist) Reset() {
	clear(h.buckets)
	h.total = 0
	h.sum = 0
}

// N returns the number of recorded durations.
func (h *LatencyHist) N() uint64 { return h.total }

// Mean returns the exact mean of the recorded durations.
func (h *LatencyHist) Mean() time.Duration {
	if h.total == 0 {
		return 0
	}
	return h.sum / time.Duration(h.total)
}

// Quantile returns an approximation of the q-quantile (q in [0,1]).
func (h *LatencyHist) Quantile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum uint64
	for b, c := range h.buckets {
		cum += c
		if cum > target {
			return histValue(b)
		}
	}
	return histValue(histMax - 1)
}

// Clone returns an independent copy, so a results snapshot stays stable
// when the source histogram keeps accumulating (and so array drivers can
// merge per-device copies without aliasing device state).
func (h *LatencyHist) Clone() *LatencyHist {
	c := &LatencyHist{total: h.total, sum: h.sum}
	if h.buckets != nil {
		c.buckets = append([]uint64(nil), h.buckets...)
	}
	return c
}

// Merge folds another histogram into this one.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.total == 0 {
		return
	}
	if h.buckets == nil {
		h.buckets = make([]uint64, histMax)
	}
	for b, c := range o.buckets {
		h.buckets[b] += c
	}
	h.total += o.total
	h.sum += o.sum
}
