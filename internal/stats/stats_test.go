package stats

import (
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
