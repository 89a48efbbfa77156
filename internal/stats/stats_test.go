package stats

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty hist should be zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	if h.N() != 1000 {
		t.Errorf("n = %d", h.N())
	}
	if got, want := h.Mean(), 500500*time.Nanosecond; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// The median should land near 500 us (within bucket tolerance).
	med := h.Quantile(0.5)
	if med < 450*time.Microsecond || med > 560*time.Microsecond {
		t.Errorf("median = %v, want ~500us", med)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Errorf("p99 = %v, want ~990us", p99)
	}
	if h.Quantile(-1) > h.Quantile(2) {
		t.Error("clamped quantiles inverted")
	}
}

func TestLatencyHistExtremes(t *testing.T) {
	var h LatencyHist
	h.Add(0)                // below floor
	h.Add(24 * time.Hour)   // above ceiling
	h.Add(time.Nanosecond)  // below floor
	h.Add(30 * time.Minute) // above ceiling
	if h.N() != 4 {
		t.Errorf("n = %d", h.N())
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Error("quantiles inverted")
	}
}

func TestLatencyHistMerge(t *testing.T) {
	var a, b LatencyHist
	for i := 0; i < 100; i++ {
		a.Add(100 * time.Microsecond)
		b.Add(300 * time.Microsecond)
	}
	a.Merge(&b)
	a.Merge(nil) // no-op
	if a.N() != 200 {
		t.Errorf("merged n = %d", a.N())
	}
	if got := a.Mean(); got != 200*time.Microsecond {
		t.Errorf("merged mean = %v", got)
	}
	var c LatencyHist
	c.Merge(&a) // merge into empty
	if c.N() != 200 {
		t.Errorf("merge into empty n = %d", c.N())
	}
}

// TestHistBucketMatchesFormula: the table lookup equals the logarithm
// formula at every threshold +-2 ns, for every duration from -5 ns to 2 ms,
// and for 5M seeded random durations up to 10 s.
func TestHistBucketMatchesFormula(t *testing.T) {
	check := func(d time.Duration) {
		if got, want := histBucket(d), logBucket(d); got != want {
			t.Fatalf("histBucket(%d) = %d, formula %d", d, got, want)
		}
	}
	check(histFloor + 1) // builds the table
	for b := 1; b < histMax && buckets.thr[b] != math.MaxUint64; b++ {
		for dd := -2; dd <= 2; dd++ {
			check(time.Duration(int64(buckets.thr[b]) + int64(dd)))
		}
	}
	for d := -5 * time.Nanosecond; d <= 2*time.Millisecond; d++ {
		check(d)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5_000_000; i++ {
		check(time.Duration(rng.Int63n(int64(10 * time.Second))))
	}
}

// TestHistBucketEnds: everything at or below the 1 us floor lands in bucket
// 0, and the top of the duration range agrees with the formula without
// passing the last bucket. The formula's clamp at histMax-1 lies beyond
// the longest time.Duration (about bucket 753), so the table ends there.
func TestHistBucketEnds(t *testing.T) {
	for _, d := range []time.Duration{math.MinInt64, -1, 0, 1, histFloor - 1, histFloor} {
		if b := histBucket(d); b != 0 {
			t.Errorf("histBucket(%d) = %d, want 0", d, b)
		}
	}
	if histBucket(histFloor+1) != 0 || histBucket(1051) != 1 {
		t.Errorf("first buckets: %d, %d", histBucket(histFloor+1), histBucket(1051))
	}
	for _, d := range []time.Duration{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 / 2, 1 << 62, 1<<62 - 1} {
		got, want := histBucket(d), logBucket(d)
		if got != want || got > histMax-1 {
			t.Errorf("histBucket(%d) = %d, formula %d (last bucket %d)", d, got, want, histMax-1)
		}
	}
	top := logBucket(math.MaxInt64)
	if buckets.thr[top+1] != math.MaxUint64 || buckets.thr[histMax] != math.MaxUint64 {
		t.Errorf("table does not end after bucket %d", top)
	}
}

// TestHistBucketConcurrentFirstUse: histograms on several goroutines may
// trigger the lazy table build at once (farm workers do); every one must
// see the finished table. Run it under -race.
func TestHistBucketConcurrentFirstUse(t *testing.T) {
	bucketsOnce, buckets = sync.Once{}, bucketTable{}
	var wg sync.WaitGroup
	hists := make([]LatencyHist, 4)
	for i := range hists {
		wg.Add(1)
		go func(h *LatencyHist) {
			defer wg.Done()
			for d := time.Duration(0); d < 3*time.Millisecond; d += 997 {
				h.Add(d)
			}
		}(&hists[i])
	}
	wg.Wait()
	for i := range hists {
		for b, c := range hists[i].buckets {
			if c != hists[0].buckets[b] {
				t.Fatalf("histogram %d bucket %d = %d, histogram 0 has %d", i, b, c, hists[0].buckets[b])
			}
		}
	}
	want := make([]uint64, histMax)
	for d := time.Duration(0); d < 3*time.Millisecond; d += 997 {
		want[logBucket(d)]++
	}
	for b, c := range want {
		if hists[0].buckets[b] != c {
			t.Fatalf("bucket %d = %d, formula gives %d", b, hists[0].buckets[b], c)
		}
	}
}
