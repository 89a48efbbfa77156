package ssd

import (
	"bytes"
	"testing"
	"time"

	"idaflash/internal/telemetry"
)

// telemetryConfig enables full-rate span recording and a 100ms time series
// on the small test device.
func telemetryConfig(ida bool) Config {
	cfg := testConfig(ida, 0.2)
	cfg.Telemetry = &telemetry.Config{MetricsInterval: 100 * time.Millisecond}
	return cfg
}

func TestTelemetryRecordsSpansAndSamples(t *testing.T) {
	tr := testTrace(t, "telemetry", 1200, 0.8)
	s, err := New(telemetryConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := res.Telemetry
	if e == nil {
		t.Fatal("telemetry enabled but Results.Telemetry is nil")
	}
	measured := res.ReadRequests + res.WriteRequests
	if got := uint64(len(e.Spans)) + e.DroppedSpans; got != measured {
		t.Fatalf("spans+dropped = %d, want one per measured request (%d)", got, measured)
	}
	var phases int
	for i := range e.Spans {
		sp := &e.Spans[i]
		if sp.Completed < sp.Arrived {
			t.Fatalf("span %d: out-of-order instants %+v", i, sp)
		}
		phases += len(sp.Phases)
		for _, ph := range sp.Phases {
			if ph.Start < sp.Arrived || ph.End > sp.Completed {
				t.Fatalf("span %d: phase %+v escapes [%v, %v]",
					i, ph, sp.Arrived, sp.Completed)
			}
		}
	}
	if phases == 0 {
		t.Fatal("no phases recorded on any span")
	}

	if len(e.Samples) == 0 {
		t.Fatal("no time-series samples recorded")
	}
	iv := e.SampleInterval
	start := e.Samples[0].At
	var reads, writes, readPages, senses, gcMoves uint64
	for i := range e.Samples {
		sm := &e.Samples[i]
		if want := start + time.Duration(i)*iv; sm.At != want {
			t.Fatalf("sample %d at %v, want exact boundary %v", i, sm.At, want)
		}
		if len(sm.PerChannelBusy) != s.cfg.Geometry.Channels {
			t.Fatalf("sample %d: %d per-channel columns, want %d",
				i, len(sm.PerChannelBusy), s.cfg.Geometry.Channels)
		}
		var per time.Duration
		for _, b := range sm.PerChannelBusy {
			per += b
		}
		if per != sm.ChanBusy {
			t.Fatalf("sample %d: per-channel busy sums to %v, ChanBusy %v", i, per, sm.ChanBusy)
		}
		if sm.ChanBusy > time.Duration(s.cfg.Geometry.Channels)*iv || sm.DieBusy > time.Duration(s.cfg.Geometry.Dies())*iv {
			t.Fatalf("sample %d: interval busy time exceeds capacity: %+v", i, sm)
		}
		reads += sm.ReadsDone
		writes += sm.WritesDone
		readPages += sm.ReadPages
		senses += sm.Senses
		gcMoves += sm.GCMoves
	}
	// Completions between the last sample and the end of the run are not
	// sampled, so the time series can only undercount.
	if reads > res.ReadRequests || writes > res.WriteRequests {
		t.Fatalf("time series counted %d/%d completions, run had %d/%d",
			reads, writes, res.ReadRequests, res.WriteRequests)
	}
	if reads == 0 {
		t.Fatal("time series saw no read completions")
	}
	// The activity columns are deltas of the FTL's own counters, so they
	// too can only undercount the run's totals.
	var runSenses uint64
	for n, c := range res.FTL.ReadsBySenses {
		runSenses += uint64(n) * c
	}
	if readPages > res.FTL.HostReads || senses > runSenses || gcMoves > res.FTL.GCMoves {
		t.Fatalf("time series counted %d read pages, %d senses, %d GC moves; run had %d, %d, %d",
			readPages, senses, gcMoves, res.FTL.HostReads, runSenses, res.FTL.GCMoves)
	}
	if readPages == 0 || senses < readPages {
		t.Fatalf("time series saw %d read pages costing %d senses", readPages, senses)
	}
}

// Two identical telemetry-enabled runs must export byte-identical CSV and
// trace files — the property the CI determinism job gates on.
func TestTelemetryDeterministicExports(t *testing.T) {
	tr := testTrace(t, "telemetry-det", 800, 0.85)
	export := func() (csv, trace []byte) {
		s, err := New(telemetryConfig(true))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var c, j bytes.Buffer
		if err := res.Telemetry.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := res.Telemetry.WriteTrace(&j); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), j.Bytes()
	}
	c1, t1 := export()
	c2, t2 := export()
	if !bytes.Equal(c1, c2) {
		t.Error("identical runs exported different metrics CSV")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("identical runs exported different trace JSON")
	}
}

// Telemetry must observe without perturbing: the simulation's outcome is
// bit-identical with and without the recorder attached.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	tr := testTrace(t, "telemetry-inert", 800, 0.85)
	run := func(cfg Config) Results {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(telemetryConfig(true))
	without := run(testConfig(true, 0.2))
	// The sampler adds engine events, so event counts differ; everything
	// host-visible and device-visible must not.
	with.Events, without.Events = 0, 0
	if with.Scalars() != without.Scalars() {
		t.Errorf("telemetry changed the simulation:\n%+v\n%+v", with.Scalars(), without.Scalars())
	}
	if without.Telemetry != nil {
		t.Error("disabled telemetry still exported")
	}
}

func TestTelemetrySpanSampling(t *testing.T) {
	tr := testTrace(t, "telemetry-sample", 600, 0.8)
	cfg := telemetryConfig(false)
	cfg.Telemetry.SampleEvery = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	measured := res.ReadRequests + res.WriteRequests
	want := (measured + 3) / 4
	if got := uint64(len(res.Telemetry.Spans)); got != want {
		t.Fatalf("sampled %d spans of %d requests with SampleEvery=4, want %d", got, measured, want)
	}
	// The time series counts every completion, sampled or not.
	var done uint64
	for _, sm := range res.Telemetry.Samples {
		done += sm.ReadsDone + sm.WritesDone
	}
	if done <= want {
		t.Fatalf("time series counted %d completions, no more than the %d sampled spans", done, want)
	}
}

func TestTelemetryConfigValidation(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.Telemetry = &telemetry.Config{MetricsInterval: -time.Second}
	if _, err := New(cfg); err == nil {
		t.Fatal("negative MetricsInterval accepted")
	}
}
