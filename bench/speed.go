package main

import "time"

// The machine this benchmark runs on is shared: its speed drifts by 10-25%
// within seconds as other tenants load it, which moves every host-time
// metric by more than any bound worth having. The benchmark therefore times a fixed
// reference kernel of its own between operations and scales each host time
// by refNominalMs / (the kernel's median time around that operation). The
// kernel shares no code with the simulator, so a change to the simulator
// moves the scaled times and leaves the kernel alone; a drift of the
// machine moves both and cancels. Scaled times read "ms on a machine where
// the kernel takes refNominalMs"; host.ref_kernel_ms reports the kernel's
// measured time, so raw ≈ scaled × host.ref_kernel_ms / refNominalMs.

// refNominalMs is the reference kernel's time the scaled metrics assume,
// about its median on the 2-core machine the bounds were calibrated on.
const refNominalMs = 1.0

const (
	refTableLen  = 1 << 19 // 4 MB of uint64: beyond L2, like the FTL's tables
	refHeapDepth = 256
	refSteps     = 16000
)

// The kernel's working memory, allocated once: a table and a binary
// min-heap of (time<<16 | id) entries, like the event queue.
var (
	refTable = make([]uint64, refTableLen)
	refHeap  = make([]uint64, 0, refHeapDepth)
)

// refKernel churns a fixed-depth binary heap and reads and writes a 4 MB
// table at pseudo-random indexes: the event-queue and table-lookup work the
// simulator spends its time on, in code the repository does not own. It
// allocates nothing and returns a value so it cannot be optimized away.
func refKernel() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := refHeap[:0]
	push := func(v uint64) {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() uint64 {
		top := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && h[r] < h[m] {
				m = r
			}
			if h[i] <= h[m] {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	for i := uint64(0); i < refHeapDepth; i++ {
		push((next()%1024)<<16 | i)
	}
	var acc uint64
	for i := 0; i < refSteps; i++ {
		v := pop()
		j := next() & (refTableLen - 1)
		acc += refTable[j]
		refTable[j] = acc ^ v
		push(v + (next()%1024)<<16)
	}
	refHeap = h
	return acc
}

// timeKernel runs the kernel once untimed, so it finds its own data in
// cache whatever ran before it, and returns the start and time in ms of a
// second run.
func timeKernel() (time.Time, float64) {
	refSink += refKernel()
	start := time.Now()
	refSink += refKernel()
	return start, ms(time.Since(start))
}

// refSink keeps the kernel's results live.
var refSink uint64

// speedometer records reference-kernel timings through a run.
type speedometer struct {
	at []time.Time
	ms []float64
}

// sample times the kernel n times.
func (s *speedometer) sample(n int) {
	for i := 0; i < n; i++ {
		at, t := timeKernel()
		s.at, s.ms = append(s.at, at), append(s.ms, t)
	}
}

// factor is the scale for host times observed in [t0, t1]: refNominalMs
// over the median kernel time within a second of the interval. Every caller
// samples the kernel right before and right after what it scales.
func (s *speedometer) factor(t0, t1 time.Time) float64 {
	var near []float64
	for i, at := range s.at {
		if !at.Before(t0.Add(-time.Second)) && !at.After(t1.Add(time.Second)) {
			near = append(near, s.ms[i])
		}
	}
	if m := median(near); m > 0 {
		return refNominalMs / m
	}
	return 1
}

// medianMs is the kernel's median time over the whole run.
func (s *speedometer) medianMs() float64 { return median(s.ms) }
