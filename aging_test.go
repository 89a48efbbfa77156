package idaflash_test

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"idaflash"
	"idaflash/internal/array"
	"idaflash/internal/snapshot"
	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

// traceBytes is the heap size of a trace's request slice.
func traceBytes(tr *workload.Trace) uint64 {
	return uint64(cap(tr.Requests)) * uint64(unsafe.Sizeof(workload.Request{}))
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Every aging member of a striped array opens the aging stream itself and
// keeps its own share of it; members restored from snapshots never open it.
// Lazy streaming, a preamble handed over up front and the facade's own run
// all agree, with and without parity, and aging adds less than one
// member's share of a preamble to what a restored run allocates.
func TestArrayAgingStreamsShares(t *testing.T) {
	p := smallProfile(t, "hm_1")
	for _, parity := range []bool{false, true} {
		sys := idaflash.IDA(0.2)
		sys.Devices, sys.Parity, sys.NoSnapshot = 4, parity, true
		np, err := p.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		// Sized as the facade sizes members: parity leaves three data
		// shares of four.
		shares := 4.0
		if parity {
			shares = 3
		}
		pdev := np
		pdev.FootprintMB = np.FootprintMB/shares + 1
		cfg, _, err := idaflash.BuildConfig(pdev, sys)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := np.Generate()
		if err != nil {
			t.Fatal(err)
		}
		pre, err := np.AgingPreamble()
		if err != nil {
			t.Fatal(err)
		}
		var opens atomic.Int32
		counted := func() (workload.Stream, error) {
			opens.Add(1)
			return np.AgingStream()
		}
		run := func(opts ssd.RunOptions) array.Results {
			t.Helper()
			arr, err := array.New(array.Config{Devices: 4, Parity: parity, Device: cfg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := arr.RunContext(context.Background(), tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}

		want := run(ssd.RunOptions{Preamble: pre})
		if got := run(ssd.RunOptions{Aging: counted}); got.Combined.Scalars() != want.Combined.Scalars() {
			t.Errorf("parity=%t: streamed aging diverged from the given preamble", parity)
		}
		if n := opens.Load(); n != 4 {
			t.Errorf("parity=%t: an aging run opened the stream %d times, want once per member", parity, n)
		}
		facade, err := idaflash.RunArrayWorkload(p, sys)
		if err != nil {
			t.Fatal(err)
		}
		if facade.Combined.Scalars() != want.Combined.Scalars() {
			t.Errorf("parity=%t: the facade diverged from the hand-built array", parity)
		}

		// A second array on the same snapshots restores every member and
		// never opens the stream.
		store := snapshot.NewStore(0)
		opens.Store(0)
		cold := run(ssd.RunOptions{Aging: counted, Snapshots: store, SnapshotKey: "aging"})
		warm := run(ssd.RunOptions{Aging: counted, Snapshots: store, SnapshotKey: "aging"})
		if n := opens.Load(); n != 4 {
			t.Errorf("parity=%t: a cold and a restored run opened the stream %d times, want 4", parity, n)
		}
		if cold.Combined.Scalars() != want.Combined.Scalars() || warm.Combined.Scalars() != want.Combined.Scalars() {
			t.Errorf("parity=%t: snapshotted runs diverged from the replayed one", parity)
		}

		// Pooled facade runs that age and that restore split the same
		// trace on the same arena devices, so what aging adds is the
		// members' streams alone.
		restored := sys
		restored.NoSnapshot = false
		extra := int64(bytesPerRun(t, 20, arrayRun(p, sys))) - int64(bytesPerRun(t, 20, arrayRun(p, restored)))
		share := int64(traceBytes(pre)) / 4
		t.Logf("parity=%t: aging adds %d bytes; a member's share of the preamble is %d", parity, extra, share)
		if extra > share {
			t.Errorf("parity=%t: aging added %d bytes, over a member's share of the preamble (%d)", parity, extra, share)
		}
	}
}

// arrayRun returns a facade array run of p under sys.
func arrayRun(p idaflash.Profile, sys idaflash.System) func() error {
	return func() error {
		_, err := idaflash.RunArrayWorkload(p, sys)
		return err
	}
}

// bytesPerRun returns the mean bytes one call of run allocates over runs
// calls, once a first call has warmed the caches and the arena.
func bytesPerRun(t *testing.T, runs int, run func() error) uint64 {
	t.Helper()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// Setting both a preamble and its generator is ambiguous and rejected, on
// a device and on an array.
func TestRunOptionsRejectBothAgingSources(t *testing.T) {
	p := smallProfile(t, "hm_1")
	cfg, np, err := idaflash.BuildConfig(p, idaflash.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := np.Generate()
	if err != nil {
		t.Fatal(err)
	}
	pre, err := np.AgingPreamble()
	if err != nil {
		t.Fatal(err)
	}
	opts := ssd.RunOptions{Preamble: pre, Aging: np.AgingStream}
	dev, err := ssd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Run(tr, opts); err == nil {
		t.Error("a device ran with both Preamble and Aging set")
	}
	arr, err := array.New(array.Config{Devices: 2, Device: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arr.RunContext(context.Background(), tr, opts); err == nil {
		t.Error("an array ran with both Preamble and Aging set")
	}
}

// A pooled run restored from a snapshot never generates the aging
// preamble: on src1_0 it allocates about 3.6 KB once its device has run
// once, where the preamble alone is about 290 KB. The bound is that
// converged figure plus an 8 KB margin for runtime noise (a sync.Pool
// refilled after a collection).
func TestWarmRunAllocatesNoPreamble(t *testing.T) {
	p, err := idaflash.ProfileByName("src1_0", 2500)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 3600 + 8<<10
	perRun := bytesPerRun(t, 5, singleRun(p, idaflash.IDA(0.2)))
	t.Logf("warm run: %d bytes allocated", perRun)
	if perRun > bound {
		t.Errorf("a warm run allocated %d bytes, over %d", perRun, bound)
	}
}

// A pooled run that ages its device (NoSnapshot) streams the aging
// preamble and holds none of it: on src1_0 a run allocates under 16 KB
// (about 2.2 KB), where the preamble alone is about 290 KB. Ten runs
// suffice for the mean: a pooled device's recycled GC and refresh op lists
// are sized for their jobs when first taken, so its runs allocate their
// steady-state bytes from the second run on.
func TestAgingRunAllocatesNoPreamble(t *testing.T) {
	p, err := idaflash.ProfileByName("src1_0", 2500)
	if err != nil {
		t.Fatal(err)
	}
	sys := idaflash.IDA(0.2)
	sys.NoSnapshot = true
	const bound = 16 << 10
	perRun := bytesPerRun(t, 10, singleRun(p, sys))
	t.Logf("aging run: %d bytes allocated", perRun)
	if perRun > bound {
		t.Errorf("an aging run allocated %d bytes, over %d", perRun, bound)
	}
}

// A pooled device reaches its steady state at once: its op lists never
// regrow, so its 5th run allocates what its 30th does, within an 8 KB
// margin for runtime noise. On src1_0@2500 IDA-E20 without snapshots both
// read about 2.2 KB; when the lists grew by append, the 5th read 72 KB and
// runs reached 2.2 KB only from the 27th on.
func TestPooledDeviceConvergesAtOnce(t *testing.T) {
	p, err := idaflash.ProfileByName("src1_0", 2500)
	if err != nil {
		t.Fatal(err)
	}
	sys := idaflash.IDA(0.2)
	sys.NoSnapshot = true
	run := singleRun(p, sys)
	const margin = 8 << 10
	var fifth, thirtieth uint64
	for i := 1; i <= 30; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		switch i {
		case 5:
			fifth = m1.TotalAlloc - m0.TotalAlloc
		case 30:
			thirtieth = m1.TotalAlloc - m0.TotalAlloc
		}
	}
	t.Logf("pooled runs: the 5th allocated %d bytes, the 30th %d", fifth, thirtieth)
	if fifth > thirtieth+margin {
		t.Errorf("the 5th run allocated %d bytes, over the 30th's %d plus %d", fifth, thirtieth, margin)
	}
}

// singleRun returns a facade run of p under sys.
func singleRun(p idaflash.Profile, sys idaflash.System) func() error {
	return func() error {
		_, err := idaflash.RunWorkload(p, sys)
		return err
	}
}

// The process-wide trace cache keeps traces, never aging preambles: after
// more never-seen points than it holds, what its entries keep alive is
// about their traces alone.
func TestTraceCacheRetainsNoPreamble(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 72 cold points")
	}
	const points = 72 // more than the cache's 64 entries
	p, err := idaflash.ProfileByName("src1_0", 2500)
	if err != nil {
		t.Fatal(err)
	}
	tr, pre, err := workload.NewTraceCache().Traces(p)
	if err != nil {
		t.Fatal(err)
	}
	sys := idaflash.Baseline()
	sys.NoSnapshot, sys.NoPool = true, true // nothing but the trace cache keeps state
	for i := 0; i < points; i++ {
		q := p
		q.Seed = 1e6 + int64(i)
		if _, err := idaflash.RunWorkload(q, sys); err != nil {
			t.Fatal(err)
		}
	}
	full := liveHeap()
	// Replace every entry by a near-empty one; the heap that frees is what
	// the 64 entries kept.
	for i := 0; i < points; i++ {
		tiny := workload.Profile{Name: "tiny", ReadRatio: 0.5, MeanReadKB: 4, FootprintMB: 0.05, Requests: 10, Seed: int64(i)}
		if _, _, err := workload.DefaultTraceCache.Traces(tiny); err != nil {
			t.Fatal(err)
		}
	}
	flushed := liveHeap()
	kept := int64(full) - int64(flushed)
	bound := int64(64*traceBytes(tr) + 16*traceBytes(pre)) // a quarter of the preambles would exceed it
	t.Logf("64 src1_0@2500 entries keep %d bytes; traces are %d each, preambles %d", kept, traceBytes(tr), traceBytes(pre))
	if kept > bound {
		t.Errorf("the trace cache keeps %d bytes for 64 entries, over %d: it retains preambles", kept, bound)
	}
}
