package ssd

// Telemetry wiring for the staged request path. The recorder itself lives
// in internal/telemetry; this file adapts the device's stages to it:
//
//   - resourceWatch turns sim.ResourceHook events (scheduler queueing and
//     grants on dies and channels) into per-interval aggregates.
//   - recordSample snapshots everything into one telemetry.Sample; the
//     engine's Pulse drives it at Config.Telemetry.MetricsInterval. Its
//     activity counts and busy times are deltas of the device's running
//     totals (ftl.Stats, fault retries, completed requests, busy time), so
//     nothing on the request path counts for telemetry alone.
//
// All of it is inert when telemetry is disabled: s.tel is nil, the
// resource hooks are never installed, and the sampler is never armed.

import (
	"time"

	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/telemetry"
)

// resourceWatch aggregates scheduler-queue pressure between samples: the
// deepest queue seen and the summed queueing delay of granted waiters.
// One instance watches all resources of a kind (all dies or all channels).
type resourceWatch struct {
	maxQueue int
	wait     time.Duration
}

func (w *resourceWatch) ResourceEnqueued(_ *sim.Resource, _ sim.Priority, depth int) {
	if depth > w.maxQueue {
		w.maxQueue = depth
	}
}

func (w *resourceWatch) ResourceGranted(_ *sim.Resource, _ sim.Priority, wait, _ time.Duration) {
	w.wait += wait
}

// take returns the interval's aggregates and resets them.
func (w *resourceWatch) take() (maxQueue int, wait time.Duration) {
	maxQueue, wait = w.maxQueue, w.wait
	w.maxQueue, w.wait = 0, 0
	return
}

// sampleTotals are the device's running totals that the sampler reports as
// per-interval deltas. Each is a counter the device keeps anyway, for
// Results or in its resources, so every event is counted once.
type sampleTotals struct {
	ftl                 ftl.Stats
	faultRetries        uint64
	readReqs, writeReqs uint64
	dieBusy, chanBusy   time.Duration
	gcBusy, refreshBusy time.Duration
}

// totals reads the running totals, writing each channel's busy time into
// perChan (one slot per channel).
func (s *SSD) totals(perChan []time.Duration) sampleTotals {
	t := sampleTotals{
		ftl:          s.f.Stats(),
		faultRetries: s.faultStats.ReadRetries + s.faultStats.WriteRetries,
		readReqs:     s.readReqs,
		writeReqs:    s.writeReqs,
		gcBusy:       s.gcBusy,
		refreshBusy:  s.refreshBusy,
	}
	for _, d := range s.dies {
		t.dieBusy += d.Stats().BusyTime
	}
	for i, c := range s.channels {
		perChan[i] = c.Stats().BusyTime
		t.chanBusy += perChan[i]
	}
	return t
}

// activitySince returns the activity between the prev totals and t.
func (t *sampleTotals) activitySince(prev *sampleTotals) telemetry.Activity {
	cur, old := &t.ftl, &prev.ftl
	a := telemetry.Activity{
		ReadsDone:    t.readReqs - prev.readReqs,
		WritesDone:   t.writeReqs - prev.writeReqs,
		ReadPages:    cur.HostReads - old.HostReads,
		IDAReadPages: cur.ReadsFromIDA - old.ReadsFromIDA,
		WritePages:   cur.HostWrites - old.HostWrites,
		GCJobs:       cur.GCJobs - old.GCJobs,
		GCMoves:      cur.GCMoves - old.GCMoves,
		Refreshes:    cur.Refreshes - old.Refreshes,
		RefreshMoves: cur.RefreshMoves - old.RefreshMoves,
		AdjustedWLs:  cur.IDAAdjustedWLs - old.IDAAdjustedWLs,
		IDARefreshes: cur.IDARefreshes - old.IDARefreshes,
		FaultRetries: t.faultRetries - prev.faultRetries,
	}
	for n := range cur.ReadsBySenses {
		a.Senses += uint64(n) * (cur.ReadsBySenses[n] - old.ReadsBySenses[n])
	}
	return a
}

// armSampler starts the fixed-interval time series for the timed phase
// beginning now. It takes the running totals as the baseline, so the first
// interval reports only its own deltas and nothing of the untimed
// prefill/warmup replay. No-op when the time series is disabled.
func (s *SSD) armSampler() {
	iv := s.tel.Interval()
	if iv <= 0 {
		return
	}
	s.lastPerChanBusy = make([]time.Duration, len(s.channels))
	s.lastTotals = s.totals(s.lastPerChanBusy)
	s.dieWatch.take()
	s.chanWatch.take()
	s.engine.Pulse(iv, s.recordSample)
}

// recordSample snapshots the device at one sampling instant: gauges read
// the current state, activity and busy durations are deltas since the
// previous sample.
func (s *SSD) recordSample(now sim.Time) {
	u := s.f.Usage()
	perChan := make([]time.Duration, len(s.channels))
	cur := s.totals(perChan)
	prev := &s.lastTotals
	sm := telemetry.Sample{
		At:             now,
		HostInFlight:   s.adm.inFlight,
		HostQueued:     len(s.adm.queue),
		FreeBlocks:     u.Free,
		ActiveBlocks:   u.Active,
		InUseBlocks:    u.InUse,
		EmptyBlocks:    u.Empty,
		IDABlocks:      u.IDABlocks,
		IDAValidPages:  u.IDAValidPages,
		MappedPages:    s.f.MappedPages(),
		RetiredBlocks:  u.Retired,
		Activity:       cur.activitySince(prev),
		DieBusy:        cur.dieBusy - prev.dieBusy,
		ChanBusy:       cur.chanBusy - prev.chanBusy,
		GCBusy:         cur.gcBusy - prev.gcBusy,
		RefreshBusy:    cur.refreshBusy - prev.refreshBusy,
		PerChannelBusy: perChan,
	}
	for i, b := range perChan {
		perChan[i] = b - s.lastPerChanBusy[i]
		s.lastPerChanBusy[i] = b
	}
	s.lastTotals = cur
	for _, d := range s.dies {
		if d.Busy() {
			sm.DiesBusy++
		}
		sm.DieQueued += d.QueueLen()
	}
	for _, c := range s.channels {
		if c.Busy() {
			sm.ChannelsBusy++
		}
		sm.ChanQueued += c.QueueLen()
	}
	sm.DieMaxQueue, sm.DieWait = s.dieWatch.take()
	sm.ChanMaxQueue, sm.ChanWait = s.chanWatch.take()
	s.tel.Record(sm)
}
