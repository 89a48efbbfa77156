package ssd

import (
	"testing"
	"time"

	"idaflash/internal/faults"
	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/workload"
)

// The injector must satisfy the FTL's media-fault hook.
var _ ftl.FaultModel = (*faults.Injector)(nil)

func faultScenario(dies []faults.Outage) *faults.Scenario {
	return &faults.Scenario{
		Seed:  9,
		Dies:  dies,
		Read:  faults.ReadFaults{TimeoutProb: 0.002, SpikeProb: 0.01, Spike: faults.Duration(200 * time.Microsecond)},
		Retry: faults.Retry{Max: 2, Backoff: faults.Duration(25 * time.Microsecond), OpTimeout: faults.Duration(time.Millisecond)},
	}
}

// TestDieOutageFailsReadsWithoutHanging pins the core host-path recovery
// contract: with a die permanently out of service, every request still
// completes — reads targeting the dead die burn their retry budget and fail
// instead of stalling the run.
func TestDieOutageFailsReadsWithoutHanging(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.Faults = faultScenario([]faults.Outage{{Device: 0, Unit: 0, After: 0}})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testTrace(t, "die-out", 400, 0.8), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The prefill maps pages through the FTL directly, so a quarter of the
	// footprint lives on the dead die and its reads must fail.
	if res.Faults.FailedReadPages == 0 || res.Faults.FailedReadRequests == 0 {
		t.Fatalf("no failed reads recorded against a dead die: %+v", res.Faults)
	}
	if res.Faults.ReadRetries == 0 {
		t.Error("no read retries before giving up")
	}
	if res.Faults.FailedReadRequests > res.ReadRequests {
		t.Errorf("failed read requests %d exceed total %d",
			res.Faults.FailedReadRequests, res.ReadRequests)
	}
	exts := s.FailedReadExtents()
	if len(exts) == 0 {
		t.Fatal("no failed read extents recorded")
	}
	for i, e := range exts {
		if e.Size < s.pageSize || e.Size%s.pageSize != 0 || e.Offset%int64(s.pageSize) != 0 {
			t.Errorf("extent %d not page-aligned: %+v", i, e)
		}
		if i > 0 {
			prev := exts[i-1]
			if e.Offset <= prev.Offset+int64(prev.Size) {
				t.Errorf("extents %d and %d not sorted/coalesced: %+v %+v", i-1, i, prev, e)
			}
		}
	}
}

// TestTimedOutageRecovers exercises a transient outage window: a read issued
// mid-window backs off, retries past the window's end, and succeeds — no
// failed pages, just retries.
func TestTimedOutageRecovers(t *testing.T) {
	cfg := testConfig(false, 0)
	sc := faultScenario(nil)
	sc.Read = faults.ReadFaults{}
	// Die 0 is down for [1ms, 1.3ms); the read issued at 1ms backs off
	// 100us then 200us (doubling) and lands at 1.3ms, just as the window
	// closes.
	sc.Dies = []faults.Outage{{Device: 0, Unit: 0, After: faults.Duration(time.Millisecond), For: faults.Duration(300 * time.Microsecond)}}
	sc.Retry = faults.Retry{Max: 5, Backoff: faults.Duration(100 * time.Microsecond)}
	cfg.Faults = sc
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The first FTL write lands on plane 0, i.e. die 0.
	if _, err := s.FTL().Write(0, 0); err != nil {
		t.Fatal(err)
	}
	s.engine.After(sim.Time(time.Millisecond), func() {
		s.submit(workload.Request{At: time.Millisecond, Offset: 0, Size: 8192, Read: true})
	})
	s.engine.Run()
	if s.readReqs != 1 {
		t.Fatalf("read requests completed = %d, want 1", s.readReqs)
	}
	if s.faultStats.ReadRetries == 0 {
		t.Error("read never retried through the outage window")
	}
	if s.faultStats.FailedReadPages != 0 {
		t.Errorf("read failed instead of recovering: %+v", s.faultStats)
	}
	if len(s.FailedReadExtents()) != 0 {
		t.Error("recovered read left a failed extent behind")
	}
}

// TestReadFaultAccounting checks the transient-fault counters: injected
// latency spikes and hung reads are tallied, and hung reads come back
// through the retry path rather than hanging the request.
func TestReadFaultAccounting(t *testing.T) {
	cfg := testConfig(false, 0)
	sc := faultScenario(nil)
	sc.Read = faults.ReadFaults{TimeoutProb: 0.05, SpikeProb: 0.1, Spike: faults.Duration(300 * time.Microsecond)}
	cfg.Faults = sc
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testTrace(t, "transient", 600, 0.9), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.ReadTimeouts == 0 || res.Faults.LatencySpikes == 0 {
		t.Fatalf("transient faults not drawn: %+v", res.Faults)
	}
	if res.Faults.ReadRetries < res.Faults.ReadTimeouts {
		t.Errorf("every timeout must retry or fail: retries %d < timeouts %d",
			res.Faults.ReadRetries, res.Faults.ReadTimeouts)
	}
	// A timeout holds the die for the full op-timeout, so the mean read
	// response must exceed the fault-free baseline.
	base, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	bres, err := base.Run(testTrace(t, "transient", 600, 0.9), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanReadResponse <= bres.MeanReadResponse {
		t.Errorf("faulty mean read %v not above fault-free %v",
			res.MeanReadResponse, bres.MeanReadResponse)
	}
}

// TestFaultRunDeterminism: identical configs and traces produce identical
// scalar results under an active fault scenario.
func TestFaultRunDeterminism(t *testing.T) {
	run := func() Results {
		cfg := testConfig(true, 1e-3)
		sc := faultScenario([]faults.Outage{{Device: 0, Unit: 0, After: faults.Duration(10 * time.Minute)}})
		sc.ProgramFail = faults.WearFailure{Base: 0.002}
		sc.EraseFail = faults.WearFailure{Base: 0.001}
		cfg.Faults = sc
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(testTrace(t, "det", 500, 0.7), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Scalars() != b.Scalars() {
		t.Errorf("fault runs diverged:\n%+v\n%+v", a.Scalars(), b.Scalars())
	}
	if a.Faults == (FaultStats{}) {
		t.Error("scenario injected nothing; the determinism check is vacuous")
	}
}

// TestFaultDeviceFiltersOutages: an outage scoped to another array member
// must not touch this device.
func TestFaultDeviceFiltersOutages(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.Faults = faultScenario([]faults.Outage{{Device: 3, Unit: 0, After: 0}})
	cfg.Faults.Read = faults.ReadFaults{}
	cfg.FaultDevice = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testTrace(t, "other-device", 300, 0.8), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != (FaultStats{}) {
		t.Errorf("outage for device 3 leaked into device 1: %+v", res.Faults)
	}
	if exts := s.FailedReadExtents(); len(exts) != 0 {
		t.Errorf("unexpected failed extents: %v", exts)
	}
}

// TestFailedWritesComplete: writes aimed at a dead die complete as failed
// requests instead of wedging the run.
func TestFailedWritesComplete(t *testing.T) {
	cfg := testConfig(false, 0)
	cfg.Faults = faultScenario([]faults.Outage{{Device: 0, Unit: 0, After: 0}})
	cfg.Faults.Read = faults.ReadFaults{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testTrace(t, "write-heavy", 400, 0.1), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.FailedWritePages == 0 || res.Faults.FailedWriteRequests == 0 {
		t.Fatalf("write-heavy trace against a dead die recorded no failed writes: %+v", res.Faults)
	}
	if res.WriteRequests == 0 || res.Faults.FailedWriteRequests > res.WriteRequests {
		t.Errorf("failed write requests %d out of %d", res.Faults.FailedWriteRequests, res.WriteRequests)
	}
}
