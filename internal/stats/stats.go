// Package stats provides the small statistics primitive the simulator uses
// to aggregate latencies: a log-bucketed duration histogram for means and
// percentiles.
package stats

import (
	"math"
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

func histBucket(d time.Duration) int {
	if d <= histFloor {
		return 0
	}
	b := int(math.Log(float64(d)/float64(histFloor)) / math.Log(histGrowth))
	if b >= histMax {
		return histMax - 1
	}
	return b
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
