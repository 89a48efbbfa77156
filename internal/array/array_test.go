package array

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/ssd"
	"idaflash/internal/stats"
	"idaflash/internal/telemetry"
	"idaflash/internal/workload"
)

func deviceConfig() ssd.Config {
	return ssd.Config{
		Geometry: flash.Geometry{
			Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
			BlocksPerPlane: 24, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
		},
		Timing: flash.PaperTLCTiming(),
		FTL: ftl.Options{
			RefreshPeriod: 20 * time.Minute,
			Seed:          7,
		},
		RefreshScanInterval: time.Minute,
		Seed:                7,
	}
}

// parallelTrace builds a read-heavy stream of large aligned requests that
// stripe across every device: bursts of 256 KB reads over a 3 MB footprint.
func parallelTrace(name string, requests int) *workload.Trace {
	tr := &workload.Trace{Name: name}
	const footprint = 3 << 20
	const size = 256 << 10
	for i := 0; i < requests; i++ {
		r := workload.Request{
			At:     time.Duration(i/8) * 300 * time.Microsecond, // bursts of 8
			Offset: int64(i*size) % footprint,
			Size:   size,
			Read:   i%10 != 0, // 90% reads
		}
		tr.Requests = append(tr.Requests, r)
	}
	return tr
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Devices: 0, Device: deviceConfig()}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := New(Config{Devices: 2, StripeKB: -1, Device: deviceConfig()}); err == nil {
		t.Error("negative stripe accepted")
	}
	if _, err := New(Config{Devices: 2, Device: ssd.Config{}}); err == nil {
		t.Error("invalid device template accepted")
	}
	a, err := New(Config{Devices: 2, Device: deviceConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if a.StripeBytes() != DefaultStripeKB*1024 {
		t.Errorf("default stripe = %d bytes", a.StripeBytes())
	}
	if a.Devices() != 2 || a.Device(0) == nil || a.Device(1) == nil {
		t.Error("devices not built")
	}
}

func TestSplitCoversEveryByteExactlyOnce(t *testing.T) {
	const unit = 64 << 10
	tr := &workload.Trace{Name: "split", Requests: []workload.Request{
		{At: 0, Offset: 0, Size: 4096, Read: true},                    // within one stripe
		{At: 1, Offset: unit - 100, Size: 200, Read: false},           // straddles a boundary
		{At: 2, Offset: unit / 2, Size: 4 * unit, Read: true},         // spans > devices stripes
		{At: 3, Offset: 7 * unit, Size: unit, Read: true},             // exactly one stripe
		{At: 4, Offset: 3*unit + 123, Size: 6*unit + 45, Read: false}, // unaligned both ends
	}}
	for _, devices := range []int{2, 3, 4} {
		subs := Split(tr, devices, unit)
		if len(subs) != devices {
			t.Fatalf("devices=%d: %d sub-traces", devices, len(subs))
		}
		var total int64
		var want int64
		for _, r := range tr.Requests {
			want += int64(r.Size)
		}
		for d, sub := range subs {
			if err := sub.Validate(); err != nil {
				t.Fatalf("devices=%d dev%d: %v", devices, d, err)
			}
			for _, r := range sub.Requests {
				total += int64(r.Size)
				// Every sub-request must fit inside the device-space
				// image of the host extents: reconstruct the host
				// bytes it covers and check the stripe arithmetic.
				if r.Size <= 0 {
					t.Fatalf("devices=%d dev%d: empty sub-request", devices, d)
				}
			}
		}
		if total != want {
			t.Errorf("devices=%d: split moved %d bytes, host trace has %d", devices, total, want)
		}
	}
}

func TestSplitRoundTripsBytes(t *testing.T) {
	// Map every sub-request back to host addresses and mark the bytes;
	// each host byte must be covered exactly once.
	const unit = 4096
	const devices = 3
	tr := &workload.Trace{Name: "rt", Requests: []workload.Request{
		{At: 0, Offset: 1000, Size: 30000, Read: true},
	}}
	covered := make(map[int64]int)
	subs := Split(tr, devices, unit)
	for d, sub := range subs {
		for _, r := range sub.Requests {
			for b := r.Offset; b < r.End(); b++ {
				stripe := b / unit
				host := (stripe*devices+int64(d))*unit + b%unit
				covered[host]++
			}
		}
	}
	r := tr.Requests[0]
	for b := r.Offset; b < r.End(); b++ {
		if covered[b] != 1 {
			t.Fatalf("host byte %d covered %d times", b, covered[b])
		}
	}
	if int64(len(covered)) != int64(r.Size) {
		t.Fatalf("covered %d bytes, want %d", len(covered), r.Size)
	}
}

func TestSingleDevicePassThrough(t *testing.T) {
	tr := parallelTrace("pass", 400)
	subs := Split(tr, 1, 64<<10)
	if len(subs) != 1 || subs[0] != tr {
		t.Fatal("single-device split must pass the trace through")
	}
	// A one-member array is the plain device: same run, same results.
	dev, err := ssd.New(deviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := dev.Run(tr, ssd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	arr, err := New(Config{Devices: 1, Device: deviceConfig()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := arr.Run(tr, ssd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Combined.Scalars() != want.Scalars() || got.Combined.Trace != tr.Name {
		t.Errorf("one-member array diverged from the plain device:\narray  %+v\ndevice %+v",
			got.Combined.Scalars(), want.Scalars())
	}
}

func TestArrayRunMergesAndScalesThroughput(t *testing.T) {
	tr := parallelTrace("scale", 1200)

	single, err := ssd.New(deviceConfig())
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.Run(tr, ssd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	arr, err := New(Config{Devices: 4, StripeKB: 64, Device: deviceConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := arr.Run(tr, ssd.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if len(ares.PerDevice) != 4 {
		t.Fatalf("per-device results = %d", len(ares.PerDevice))
	}
	for d, r := range ares.PerDevice {
		if r.ReadRequests == 0 {
			t.Errorf("device %d served no reads: striping is uneven", d)
		}
	}
	// The acceptance bar: a 4-device array on a parallel-friendly trace
	// must deliver materially higher aggregate throughput.
	if ares.Combined.ThroughputMBps < 1.5*sres.ThroughputMBps {
		t.Errorf("array throughput %.1f MB/s not materially above single device %.1f MB/s",
			ares.Combined.ThroughputMBps, sres.ThroughputMBps)
	}
	if ares.Combined.MeanReadResponse <= 0 || ares.Combined.Makespan <= 0 {
		t.Errorf("merged metrics empty: %+v", ares.Combined)
	}
	// Merged counters must equal the per-device sums.
	var reads uint64
	for _, r := range ares.PerDevice {
		reads += r.ReadRequests
	}
	if ares.Combined.ReadRequests != reads {
		t.Errorf("merged reads %d != sum %d", ares.Combined.ReadRequests, reads)
	}
}

func TestArrayRunDeterministic(t *testing.T) {
	tr := parallelTrace("det", 600)
	run := func() Results {
		arr, err := New(Config{Devices: 3, StripeKB: 64, Device: deviceConfig()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := arr.Run(tr, ssd.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Combined.Scalars() != b.Combined.Scalars() {
		t.Errorf("array runs diverged:\n%+v\n%+v", a.Combined, b.Combined)
	}
	for d := range a.PerDevice {
		if a.PerDevice[d].Scalars() != b.PerDevice[d].Scalars() {
			t.Errorf("device %d diverged across runs", d)
		}
	}
}

// The merged P99 must be the quantile of the pooled per-device populations,
// not the worst device's own P99: one outlier on an otherwise-fast device
// should not set the whole array's tail.
func TestMergePoolsPercentiles(t *testing.T) {
	hist := func(ds ...time.Duration) *stats.LatencyHist {
		h := &stats.LatencyHist{}
		for _, d := range ds {
			h.Add(d)
		}
		return h
	}
	fast := make([]time.Duration, 100)
	for i := range fast {
		fast[i] = time.Millisecond
	}
	slowTail := append(append([]time.Duration{}, fast[:9]...), 100*time.Millisecond)
	per := []ssd.Results{{ReadRequests: 100}, {ReadRequests: 10}}
	reads := []*stats.LatencyHist{hist(fast...), hist(slowTail...)}

	m := Merge("pool", per, reads, nil)
	// Pooled: 109 of 110 reads are ~1ms, so the 99th percentile sits in
	// the 1ms bucket. The worst device's own P99 would be ~100ms.
	if m.P99ReadResponse > 2*time.Millisecond {
		t.Errorf("pooled P99 = %v, want ~1ms (worst-device P99 leaked through)", m.P99ReadResponse)
	}
	// The mean weighs all 110 reads: (109*1ms + 100ms) / 110.
	pooled := hist(append(fast, slowTail...)...)
	if m.MeanReadResponse != pooled.Mean() || m.MeanWriteResponse != 0 {
		t.Errorf("pooled means = %v read, %v write; want %v read, 0 write", m.MeanReadResponse, m.MeanWriteResponse, pooled.Mean())
	}
}

// An array with telemetry enabled tags each device's stream and merges them
// into one deterministic export.
func TestArrayTelemetryMergesStreams(t *testing.T) {
	tr := parallelTrace("tel", 600)
	run := func() *telemetry.Export {
		dc := deviceConfig()
		dc.Telemetry = &telemetry.Config{MetricsInterval: 50 * time.Millisecond}
		arr, err := New(Config{Devices: 3, StripeKB: 64, Device: dc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := arr.Run(tr, ssd.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Combined.Telemetry
	}
	e := run()
	if e == nil {
		t.Fatal("array telemetry export is nil")
	}
	if e.Device != -1 {
		t.Errorf("merged export device tag = %d, want -1", e.Device)
	}
	devs := map[int]bool{}
	for i := range e.Spans {
		devs[e.Spans[i].Device] = true
	}
	for d := 0; d < 3; d++ {
		if !devs[d] {
			t.Errorf("no spans from device %d in merged export", d)
		}
	}
	for i := 1; i < len(e.Samples); i++ {
		a, b := &e.Samples[i-1], &e.Samples[i]
		if a.At > b.At || (a.At == b.At && a.Device >= b.Device) {
			t.Fatalf("samples not in (At, Device) order at %d", i)
		}
	}
	// Despite per-device goroutines, the merged export must serialize
	// identically across runs.
	var c1, c2 bytes.Buffer
	if err := e.WriteCSV(&c1); err != nil {
		t.Fatal(err)
	}
	if err := run().WriteCSV(&c2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("array telemetry CSV not deterministic across runs")
	}
}

func TestMergeEmptyAndZeroDevices(t *testing.T) {
	m := Merge("empty", nil, nil, nil)
	if m.ReadRequests != 0 || m.ThroughputMBps != 0 {
		t.Errorf("merge of nothing = %+v", m)
	}
	// A device that never ran contributes nothing, including to the
	// utilization average.
	m = Merge("partial", []ssd.Results{{}, {Events: 10, MeanDieUtilization: 0.5, MeanChannelUtilization: 0.25}}, nil, nil)
	if m.MeanDieUtilization != 0.5 || m.MeanChannelUtilization != 0.25 {
		t.Errorf("idle device skewed utilization: %+v", m)
	}
}

// Each member's streamed share is exactly its trace from Split or
// SplitParity, member by member: for the aging stream, for a measured
// trace, and for sequential writes whose pieces SplitParity coalesces.
func TestShareStreamsSplit(t *testing.T) {
	p, err := workload.ProfileByName("usr_1", 2500)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := p.AgingPreamble()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	seq := &workload.Trace{Name: "seq"}
	for i := int64(0); i < 64; i++ {
		seq.Requests = append(seq.Requests, workload.Request{Offset: i * 8192, Size: 8192})
	}
	sources := []struct {
		tr   *workload.Trace
		open func() (workload.Stream, error)
	}{
		{pre, p.AgingStream},
		{tr, func() (workload.Stream, error) { return workload.Requests(tr.Requests), nil }},
		{seq, func() (workload.Stream, error) { return workload.Requests(seq.Requests), nil }},
	}
	for _, src := range sources {
		for _, parity := range []bool{false, true} {
			split := Split
			if parity {
				split = SplitParity
			}
			for _, devices := range []int{2, 4} {
				for _, unit := range []int64{8 << 10, 64 << 10} {
					want := split(src.tr, devices, unit)
					for d := range want {
						s, err := src.open()
						if err != nil {
							t.Fatal(err)
						}
						sh := &share{src: s, dev: d, devices: devices, unit: unit, parity: parity}
						var got []workload.Request
						for r, ok := sh.Next(); ok; r, ok = sh.Next() {
							got = append(got, r)
						}
						if !slices.Equal(got, want[d].Requests) {
							t.Errorf("%s parity=%t devices=%d unit=%d: member %d streamed %d requests, the split holds %d or differs",
								src.tr.Name, parity, devices, unit, d, len(got), len(want[d].Requests))
						}
					}
				}
			}
		}
	}

	// The sequential writes do exercise coalescing.
	pieces, kept := 0, 0
	for _, r := range seq.Requests {
		cutParity(r, 4, 8<<10, func(int, workload.Request) { pieces++ })
	}
	for _, sub := range SplitParity(seq, 4, 8<<10) {
		kept += len(sub.Requests)
	}
	if kept >= pieces {
		t.Errorf("SplitParity kept %d of %d sequential pieces, want some coalesced", kept, pieces)
	}
}
