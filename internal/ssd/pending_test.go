package ssd_test

import (
	"testing"

	"idaflash"
	"idaflash/internal/faults"
	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

// maxPending bounds the engine's pending set. The engine keeps its events
// in one sorted array and shifts them linearly on every insertion, which is
// cheaper than a heap only while few events are pending (the cases below
// peak near 25). A change that grows the pending set past this bound must
// revisit that container rather than go quadratic silently.
const maxPending = 64

// TestPendingEventsStayShallow replays the paper's read-dominant hm_1 and
// write-heavy src1_0 under Baseline and IDA-E20, and usr_1 under the
// die-failure fault scenario on the member whose die fails, sampling the
// engine's pending-event count at every die and channel enqueue and grant.
func TestPendingEventsStayShallow(t *testing.T) {
	dieFailure, err := faults.Load("../../examples/faults/die-failure.json")
	if err != nil {
		t.Fatal(err)
	}
	failing := idaflash.IDA(0.2)
	failing.Faults = dieFailure
	cases := []struct {
		profile string
		sys     idaflash.System
	}{
		{"hm_1", idaflash.Baseline()},
		{"hm_1", idaflash.IDA(0.2)},
		{"src1_0", idaflash.Baseline()},
		{"src1_0", idaflash.IDA(0.2)},
		{"usr_1", failing},
	}
	for _, c := range cases {
		t.Run(c.profile+"/"+c.sys.Name, func(t *testing.T) {
			p, err := idaflash.ProfileByName(c.profile, 2500)
			if err != nil {
				t.Fatal(err)
			}
			cfg, np, err := idaflash.BuildConfig(p, c.sys)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Faults != nil {
				cfg.FaultDevice = dieFailure.Dies[0].Device
			}
			tr, pre, err := workload.DefaultTraceCache.Traces(np)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := ssd.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			peak := ssd.WatchPending(dev)
			res, err := dev.Run(tr, ssd.RunOptions{Preamble: pre})
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Faults != nil && res.Faults.FailedReadPages == 0 {
				t.Fatalf("die-failure scenario failed no read: %+v", res.Faults)
			}
			t.Logf("peak pending %d over %d events", peak.Max, res.Events)
			if peak.Max == 0 || peak.Max > maxPending {
				t.Fatalf("peak pending events = %d, want 1..%d", peak.Max, maxPending)
			}
		})
	}
}
