package ssd

import (
	"testing"
	"time"

	"idaflash/internal/ecc"
	"idaflash/internal/flash"
	"idaflash/internal/ftl"
	"idaflash/internal/workload"
)

// testGeom is a small but multi-die device: 2 channels x 1 chip x 2 dies x
// 1 plane = 4 planes, 24 blocks/plane, 4 WLs (12 pages) per block.
func testGeom() flash.Geometry {
	return flash.Geometry{
		Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
		BlocksPerPlane: 24, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
	}
}

func testConfig(ida bool, errorRate float64) Config {
	return Config{
		Geometry: testGeom(),
		Timing:   flash.PaperTLCTiming(),
		FTL: ftl.Options{
			IDAEnabled:     ida,
			ErrorRate:      errorRate,
			RefreshPeriod:  20 * time.Minute,
			RefreshStagger: true,
			Seed:           7,
		},
		RefreshScanInterval: time.Minute,
		Seed:                7,
	}
}

func testTrace(t *testing.T, name string, requests int, readRatio float64) *workload.Trace {
	t.Helper()
	p := workload.Profile{
		Name:          name,
		ReadRatio:     readRatio,
		MeanReadKB:    24,
		ReadDataRatio: 0.9,
		FootprintMB:   4, // 512 pages, ~45% of the 96-block test device
		Requests:      requests,
		Duration:      time.Hour,
		Seed:          3,
	}
	tr, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{Geometry: testGeom()},
		{Geometry: testGeom(), Timing: flash.PaperTLCTiming(), RefreshScanInterval: -time.Second},
		{Geometry: testGeom(), Timing: flash.PaperTLCTiming(), ECC: ecc.Params{DecodeLatency: time.Microsecond, FirstFailProb: 2}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New() should fail", i)
		}
	}
}

func TestSingleReadLatencyNoContention(t *testing.T) {
	s, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Map one page directly, then submit a single 8 KB read for it.
	prog, err := s.FTL().Write(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
	info, _ := s.FTL().Read(0)
	want := s.cfg.Timing.ReadLatency(info.Senses) + s.cfg.Timing.Transfer + s.cfg.ECC.DecodeLatency
	s.engine.At(0, func() {
		s.submit(workload.Request{At: 0, Offset: 0, Size: 8192, Read: true})
	})
	s.engine.Run()
	// The FTL counted the probe read too, but response stats only cover
	// the submitted request.
	if s.readReqs != 1 {
		t.Fatalf("read requests = %d", s.readReqs)
	}
	if got := s.readResp.Mean(); got != want {
		t.Errorf("single read response = %v, want %v", got, want)
	}
}

func TestSingleWriteLatencyNoContention(t *testing.T) {
	s, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := s.cfg.Timing.Transfer + s.cfg.Timing.Program
	s.engine.At(0, func() {
		s.submit(workload.Request{At: 0, Offset: 0, Size: 8192, Read: false})
	})
	s.engine.Run()
	if got := s.writeResp.Mean(); got != want {
		t.Errorf("single write response = %v, want %v", got, want)
	}
}

func TestMultiPageRequestCompletesOnce(t *testing.T) {
	s, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := ftl.LPN(0); i < 4; i++ {
		if _, err := s.FTL().Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.engine.At(0, func() {
		s.submit(workload.Request{At: 0, Offset: 0, Size: 4 * 8192, Read: true})
	})
	s.engine.Run()
	if s.readReqs != 1 {
		t.Fatalf("read requests = %d, want 1 (single completion)", s.readReqs)
	}
	// Four pages across dies: response at least one page's full path.
	minWant := s.cfg.Timing.ReadLatency(1) + s.cfg.Timing.Transfer + s.cfg.ECC.DecodeLatency
	if got := s.readResp.Mean(); got < minWant {
		t.Errorf("multi-page response %v below single-page %v", got, minWant)
	}
}

func TestUnmappedReads(t *testing.T) {
	s, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	s.engine.At(0, func() {
		s.submit(workload.Request{At: 0, Offset: 0, Size: 8192, Read: true})
	})
	s.engine.Run()
	if s.unmapped != 1 {
		t.Errorf("unmapped reads = %d, want 1", s.unmapped)
	}
}

func TestRunBaselineEndToEnd(t *testing.T) {
	s, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, "e2e", 3000, 0.9)
	res, err := s.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadRequests == 0 || res.WriteRequests == 0 {
		t.Fatalf("requests not counted: %+v", res)
	}
	if res.MeanReadResponse <= 0 {
		t.Error("mean read response not positive")
	}
	// Response can never be below the raw device path.
	floor := s.cfg.Timing.ReadLatency(1) + s.cfg.Timing.Transfer + s.cfg.ECC.DecodeLatency
	if res.MeanReadResponse < floor {
		t.Errorf("mean read response %v below device floor %v", res.MeanReadResponse, floor)
	}
	if res.FTL.Refreshes == 0 {
		t.Error("no refreshes happened during the run")
	}
	if res.UnmappedReads != 0 {
		t.Errorf("unmapped reads = %d after prefill", res.UnmappedReads)
	}
	if res.ThroughputMBps <= 0 || res.Makespan <= 0 {
		t.Errorf("throughput/makespan = %v / %v", res.ThroughputMBps, res.Makespan)
	}
	// Figure 4 classification counters populated on the measured phase.
	var classed uint64
	for _, c := range res.FTL.ReadsByClass {
		classed += c
	}
	if classed == 0 {
		t.Error("no classified reads")
	}
}

func TestRunIDABeatsBaseline(t *testing.T) {
	tr := testTrace(t, "ida-vs-base", 6000, 0.9)
	base, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	idaDev, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	idaRes, err := idaDev.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if idaRes.FTL.IDARefreshes == 0 {
		t.Fatal("IDA refresh never ran")
	}
	if idaRes.FTL.ReadsFromIDA == 0 {
		t.Fatal("no reads ever hit an IDA wordline")
	}
	if idaRes.MeanReadResponse >= baseRes.MeanReadResponse {
		t.Errorf("IDA mean read response %v not better than baseline %v",
			idaRes.MeanReadResponse, baseRes.MeanReadResponse)
	}
}

func TestRunDeterminism(t *testing.T) {
	tr := testTrace(t, "det", 2000, 0.85)
	run := func() Results {
		s, err := New(testConfig(true, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.MeanReadResponse != b.MeanReadResponse || a.Events != b.Events ||
		a.FTL != b.FTL || a.Makespan != b.Makespan {
		t.Errorf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestResetRejectsBeforeCommit: a config Reset rejects — at the device
// level, at the FTL level, or for another geometry — leaves the device as
// its last run left it, and a valid Reset afterwards still reproduces a
// fresh device's run.
func TestResetRejectsBeforeCommit(t *testing.T) {
	tr := testTrace(t, "reset", 1000, 0.85)
	cfg := testConfig(true, 0.2)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	now, mapped, ftlStats := s.engine.Now(), s.FTL().MappedPages(), s.FTL().Stats()

	badQueue, badFTL, badGeom := cfg, cfg, cfg
	badQueue.MaxQueueDepth = -1
	badFTL.FTL.ErrorRate = 2
	badGeom.Geometry.BlocksPerPlane++
	for name, bad := range map[string]Config{"queue": badQueue, "ftl": badFTL, "geometry": badGeom} {
		if err := s.Reset(bad); err == nil {
			t.Fatalf("%s: Reset accepted an invalid config", name)
		}
		if s.engine.Now() != now || s.FTL().MappedPages() != mapped || s.FTL().Stats() != ftlStats {
			t.Fatalf("%s: rejected Reset changed the device", name)
		}
	}

	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Scalars() != want.Scalars() {
		t.Errorf("run after rejected Resets diverged from a fresh device:\nfresh %+v\nreset %+v", want.Scalars(), got.Scalars())
	}
}

func TestRunGuards(t *testing.T) {
	s, _ := New(testConfig(false, 0))
	tr := testTrace(t, "guard", 500, 0.9)
	if _, err := s.Run(tr, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(tr, RunOptions{}); err == nil {
		t.Error("second Run on the same device accepted")
	}
	// Footprint beyond capacity is rejected.
	tiny, _ := New(testConfig(false, 0))
	huge := &workload.Trace{Name: "huge", Requests: []workload.Request{
		{At: 0, Offset: tiny.cfg.Geometry.CapacityBytes() * 2, Size: 8192, Read: true},
	}}
	if _, err := tiny.Run(huge, RunOptions{}); err == nil {
		t.Error("oversized trace accepted")
	}
}

func TestScaledGeometry(t *testing.T) {
	base := flash.PaperTLC()
	g := ScaledGeometry(base, 1<<30, 1.6) // 1 GB footprint
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Channels != base.Channels || g.DiesPerChip != base.DiesPerChip {
		t.Error("scaling must preserve parallelism")
	}
	if g.CapacityBytes() < int64(1.5*float64(1<<30)) {
		t.Errorf("scaled capacity %.2f GB too small", float64(g.CapacityBytes())/(1<<30))
	}
	if g.BlocksPerPlane >= base.BlocksPerPlane {
		t.Error("scaling did not shrink the device")
	}
	// Tiny footprints get the floor; giant ones are capped at baseline.
	small := ScaledGeometry(base, 1, 1.6)
	if small.BlocksPerPlane != 8 {
		t.Errorf("floor = %d blocks/plane", small.BlocksPerPlane)
	}
	big := ScaledGeometry(base, base.CapacityBytes()*4, 1.6)
	if big.BlocksPerPlane != base.BlocksPerPlane {
		t.Error("cap at baseline not applied")
	}
	// Invalid headroom raised to a sane default.
	if g2 := ScaledGeometry(base, 1<<30, 0.5); g2.CapacityBytes() < g.CapacityBytes() {
		t.Error("headroom floor not applied")
	}
}

func TestLateLifetimeRetriesSlowReads(t *testing.T) {
	tr := testTrace(t, "retry", 2500, 0.95)
	early, _ := New(testConfig(false, 0))
	earlyRes, err := early.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lateCfg := testConfig(false, 0)
	lateCfg.ECC = ecc.PaperParams(ecc.PhaseLate)
	late, _ := New(lateCfg)
	lateRes, err := late.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lateRes.MeanReadResponse <= earlyRes.MeanReadResponse {
		t.Errorf("late-lifetime reads %v not slower than early %v",
			lateRes.MeanReadResponse, earlyRes.MeanReadResponse)
	}
}

func TestRunMore(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// RunMore before Run is rejected.
	extra := testTrace(t, "extra", 800, 0.3)
	if _, err := s.RunMore(extra); err == nil {
		t.Error("RunMore before Run accepted")
	}
	first, err := s.Run(testTrace(t, "first", 2000, 0.9), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.RunMore(extra)
	if err != nil {
		t.Fatal(err)
	}
	if second.ReadRequests+second.WriteRequests == 0 {
		t.Fatal("second phase served nothing")
	}
	// Phase metrics are independent: phase-2 totals reflect only the
	// extra trace's request count.
	if got := second.ReadRequests + second.WriteRequests; got != uint64(len(extra.Requests)) {
		t.Errorf("phase-2 requests = %d, want %d", got, len(extra.Requests))
	}
	if first.Makespan <= 0 || second.Makespan <= 0 {
		t.Error("phase makespans not positive")
	}
	// Empty or invalid traces are rejected.
	if _, err := s.RunMore(&workload.Trace{Name: "empty"}); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestWriteAmplificationReported(t *testing.T) {
	s, err := New(testConfig(true, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testTrace(t, "waf", 3000, 0.8), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteAmplification < 1.0 {
		t.Errorf("write amplification = %v, must be >= 1", res.WriteAmplification)
	}
	if res.WriteAmplification > 50 {
		t.Errorf("write amplification = %v, implausibly large", res.WriteAmplification)
	}
}

func TestMaxQueueDepthSerializes(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.MaxQueueDepth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := ftl.LPN(0); i < 3; i++ {
		if _, err := s.FTL().Write(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Three single-page reads arrive simultaneously; with QD=1 they are
	// serviced one after another, so the third's response is about three
	// single-read latencies.
	single := s.cfg.Timing.ReadLatency(1) + s.cfg.Timing.Transfer + s.cfg.ECC.DecodeLatency
	s.engine.At(0, func() {
		for i := int64(0); i < 3; i++ {
			s.submit(workload.Request{At: 0, Offset: i * 8192, Size: 8192, Read: true})
		}
	})
	s.engine.Run()
	if s.readReqs != 3 {
		t.Fatalf("served %d requests", s.readReqs)
	}
	// Mean of (1x, 2x, 3x) = 2x single latency; allow sensing variation
	// (pages may be CSB/MSB) by requiring at least 1.5x the fastest.
	if got := s.readResp.Mean(); got < single*3/2 {
		t.Errorf("QD=1 mean response %v, want >= %v (serialized)", got, single*3/2)
	}
	if len(s.adm.queue) != 0 {
		t.Error("host queue not drained")
	}
	// Negative depth is rejected.
	bad := testConfig(false, 0)
	bad.MaxQueueDepth = -1
	if _, err := New(bad); err == nil {
		t.Error("negative queue depth accepted")
	}
}

func TestMaxQueueDepthEndToEnd(t *testing.T) {
	// A full run with a QD cap completes every request and never leaves
	// the host queue populated.
	cfg := testConfig(true, 0.2)
	cfg.MaxQueueDepth = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t, "qd", 2500, 0.9)
	res, err := s.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ReadRequests + res.WriteRequests; got == 0 {
		t.Fatal("no requests served")
	}
	if len(s.adm.queue) != 0 {
		t.Errorf("host queue left with %d entries", len(s.adm.queue))
	}
}
