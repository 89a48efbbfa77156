package ssd

import (
	"context"
	"fmt"
	"time"

	"idaflash/internal/ftl"
	"idaflash/internal/sim"
	"idaflash/internal/snapshot"
	"idaflash/internal/telemetry"
	"idaflash/internal/workload"
)

// warmupFraction is the fraction of the trace replayed in zero simulated
// time before measurement starts, so the device reaches a realistic
// valid/invalid mix.
const warmupFraction = 0.3

// RunOptions controls trace execution.
type RunOptions struct {
	// Preamble, when non-nil, is an aging write stream held as a trace
	// (see workload.Profile.AgingPreamble), streamed from its slice in
	// zero simulated time after the prefill and before the warmup.
	Preamble *workload.Trace
	// Aging, when non-nil, opens the aging stream Preamble would hold (see
	// workload.Profile.AgingStream). The run opens it only when it ages
	// the device — a snapshot miss, or a run without snapshots — and
	// replays it one request at a time, so a restored run never generates
	// the stream and no run holds it. Setting both Aging and Preamble is
	// an error.
	Aging func() (workload.Stream, error)
	// Snapshots, when non-nil together with a SnapshotKey, short-circuits
	// the zero-time aging phases: a cached device state for the key is
	// restored in O(state) instead of replaying prefill + preamble +
	// warmup, and a miss runs the phases once and publishes the boundary
	// state for every later run sharing the key. Restored runs are
	// byte-identical to replayed ones; any snapshot problem (corrupt,
	// version-skewed, mis-keyed) silently falls back to the replay.
	Snapshots *snapshot.Store
	// SnapshotKey identifies the aged state; the caller must fold in
	// everything the pre-measurement state depends on (profile, geometry,
	// seeds, fault scenario — see the facade's key builder).
	SnapshotKey string
}

// AgingSource returns the run's aging stream as one opener: Aging, or
// Preamble's slice streamed, or nil when the run has no aging phase. Each
// call of the opener walks the stream afresh. It rejects options that set
// both.
func (o RunOptions) AgingSource() (func() (workload.Stream, error), error) {
	switch {
	case o.Aging != nil && o.Preamble != nil:
		return nil, fmt.Errorf("ssd: RunOptions sets both Preamble and Aging")
	case o.Preamble != nil:
		pre := o.Preamble
		return func() (workload.Stream, error) { return workload.Requests(pre.Requests), nil }, nil
	}
	return o.Aging, nil
}

// Results is everything a single simulation run reports.
type Results struct {
	Trace string

	// Host-visible performance.
	ReadRequests      uint64
	WriteRequests     uint64
	MeanReadResponse  time.Duration
	P99ReadResponse   time.Duration
	MeanWriteResponse time.Duration
	Makespan          time.Duration
	// BusySpan is the simulated time during which at least one host
	// request was in flight. The storage throughput below divides by it,
	// so the metric reflects how fast the device serves offered load
	// rather than how sparse the trace's arrivals are.
	BusySpan       time.Duration
	ThroughputMBps float64 // host bytes per second of busy time
	ReadMBps       float64
	UnmappedReads  uint64

	// Coding names the cell coding scheme the device ran (the registry
	// name: "ida", "randio", "ilwc").
	Coding string

	// Device internals.
	FTL       ftl.Stats
	Usage     ftl.BlockUsage
	PeakInUse int
	PeakIDA   int

	// Wear is the end-of-run erase-count distribution across all blocks,
	// the per-scheme P/E endurance readout of the coding-lab comparison.
	Wear ftl.Wear
	// PowerProxy is the cumulative program power/wear proxy of the run:
	// the coding scheme's expected per-cell voltage levels charged over
	// every page program plus IDA voltage adjustments (FTL.ProgramPower).
	PowerProxy float64
	// MeanProgramPower is PowerProxy divided by the number of program
	// operations, i.e. the per-program charge the coding scheme costs;
	// lower is cheaper (ilwc undercuts ida here at identical latency).
	MeanProgramPower float64

	// Background load.
	GCBusy      time.Duration
	RefreshBusy time.Duration

	// Stages instruments the request-path stages (host dispatch, flash
	// command issue).
	Stages StageStats

	// Faults instruments the host-path fault recovery (zero outside fault
	// scenarios); the FTL-level remap/retirement counters live in FTL.
	Faults FaultStats

	// WriteAmplification is (host page programs + GC moves + refresh
	// moves and write-backs) / host page programs for the measured
	// phase; 1.0 means no background rewriting.
	WriteAmplification float64

	// Resource pressure (cumulative over the device's lifetime, since
	// resources are not reset between phases).
	MeanDieUtilization     float64
	MeanChannelUtilization float64

	Events uint64

	// Telemetry is the device's span and time-series export, nil when
	// telemetry is disabled. Excluded from JSON so serialized results
	// keep their pre-telemetry shape; drivers serialize it through
	// WriteTraceFile/WriteCSVFile.
	Telemetry *telemetry.Export `json:"-"`
}

// Scalars returns a copy with the one pointer-typed export, Telemetry,
// cleared, leaving only value fields. Determinism checks compare these
// copies with ==; the telemetry export is compared through its own
// serialized forms (the CSV/trace byte-equality gate in CI).
func (r Results) Scalars() Results {
	r.Telemetry = nil
	return r
}

// Run executes the trace on the device and returns the measurements. It
// may be called once per SSD instance.
func (s *SSD) Run(tr *workload.Trace, opts RunOptions) (Results, error) {
	return s.RunContext(context.Background(), tr, opts)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled the
// simulation stops within the engine's polling bounds and RunContext returns
// ctx's error together with the stats accumulated so far (partial progress,
// not a valid measurement). It is also the panic-containment boundary: an
// invariant violation anywhere in the sim/FTL hot path surfaces as a
// *sim.InvariantError return instead of killing the process — see contain.
func (s *SSD) RunContext(ctx context.Context, tr *workload.Trace, opts RunOptions) (res Results, err error) {
	if err := tr.Validate(); err != nil {
		return Results{}, err
	}
	if s.engine.Processed() != 0 || s.readReqs != 0 || s.f.Stats().HostWrites != 0 {
		return Results{}, fmt.Errorf("ssd: Run called on a used device")
	}
	aging, err := opts.AgingSource()
	if err != nil {
		return Results{}, err
	}
	s.engine.SetContext(ctx)
	defer s.contain(tr.Name, &res, &err)

	// Snapshot lookup: a cached aged state for the key replaces the
	// zero-time phases below entirely. On a miss, Get hands back a claim
	// this run publishes at the boundary; the deferred guard abandons the
	// claim on any early exit (error, cancel, contained panic) so waiters
	// wake up and compute for themselves.
	warmup := int(float64(len(tr.Requests)) * warmupFraction)
	var claim *snapshot.Claim
	restored := false
	if opts.Snapshots != nil && opts.SnapshotKey != "" {
		st, c, gerr := opts.Snapshots.Get(ctx, opts.SnapshotKey)
		if gerr != nil {
			return Results{}, gerr
		}
		switch {
		case st != nil:
			if rerr := s.restoreAged(st); rerr == nil {
				restored = true
			} else {
				// Fail soft: forget the bad state and replay.
				opts.Snapshots.Drop(opts.SnapshotKey)
				if opts.Snapshots.Logf != nil {
					opts.Snapshots.Logf("snapshot: restore rejected, replaying: %v", rerr)
				}
			}
		case c != nil:
			claim = c
			defer claim.Abandon() // no-op once published
		}
	}
	busy.Add(1)
	defer busy.Add(-1)

	if !restored {
		// Phase 0: prefill the footprint so every read hits mapped data.
		if err := s.prefill(ctx, tr); err != nil {
			return Results{}, err
		}

		// Phase 1: instant aging preamble and warmup replay. The untimed
		// phases poll ctx per request themselves — the engine is not
		// running yet, so its polling cannot cover them.
		replay := func(r workload.Request, label string) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if r.Read {
				return nil // reads have no state effect
			}
			first, count := lpnRange(s.pageSize, r.Offset, r.Size)
			for i := ftl.LPN(0); i < count; i++ {
				if _, err := s.f.Write(first+i, 0); err != nil {
					return fmt.Errorf("ssd: %s: %w", label, err)
				}
			}
			if err := s.collectUncharged(); err != nil {
				return fmt.Errorf("ssd: %s: %w", label, err)
			}
			return nil
		}
		if aging != nil {
			// Opened here, after the snapshot lookup, so only a run that
			// ages generates the stream, one request at a time.
			pre, err := aging()
			if err != nil {
				return Results{}, fmt.Errorf("ssd: preamble: %w", err)
			}
			for r, ok := pre.Next(); ok; r, ok = pre.Next() {
				if err := replay(r, "preamble"); err != nil {
					return Results{}, err
				}
			}
		}
		for _, r := range tr.Requests[:warmup] {
			if err := replay(r, "warmup"); err != nil {
				return Results{}, err
			}
		}
		s.f.CloseActiveBlocks()
		if claim != nil {
			// The boundary: everything below (stagger, stats reset, the
			// timed phase) runs identically on restored devices, so this
			// state is what every sibling run needs.
			claim.Publish(s.captureAged())
		}
	}
	s.f.StaggerBlockAges(0)
	s.f.ResetStats()

	// Phase 2: timed replay of the measured suffix.
	measured := tr.Requests[warmup:]
	if len(measured) == 0 {
		return Results{}, fmt.Errorf("ssd: nothing left to measure after warmup")
	}
	if err := s.replayTimed(measured); err != nil {
		return s.results(tr.Name), err
	}
	return s.results(tr.Name), nil
}

// contain is the deferred run-boundary recovery: an invariant panic from the
// simulation becomes the run's error, stamped with the engine position and
// stack, and the stats gathered so far are snapshotted best-effort (a nested
// recover guards the snapshot itself — the state that just violated an
// invariant may be too corrupt to summarize).
func (s *SSD) contain(trace string, res *Results, err *error) {
	v := recover()
	if v == nil {
		return
	}
	ie, ok := v.(*sim.InvariantError)
	if !ok {
		ie = sim.CapturePanic(v, s.engine)
	}
	*err = ie
	func() {
		defer func() { _ = recover() }()
		*res = s.results(trace)
	}()
}

// RunMore replays an additional trace on an already-run device, continuing
// from its current simulated time and device state (blocks, coding modes,
// ages). Metrics are reset first, so the returned Results cover only this
// phase. It backs the paper's Section III-C analysis: running a
// write-intensive workload on an SSD previously used with the IDA coding.
func (s *SSD) RunMore(tr *workload.Trace) (Results, error) {
	return s.RunMoreContext(context.Background(), tr)
}

// RunMoreContext is RunMore with the same cancellation and containment
// semantics as RunContext.
func (s *SSD) RunMoreContext(ctx context.Context, tr *workload.Trace) (res Results, err error) {
	if err := tr.Validate(); err != nil {
		return Results{}, err
	}
	if len(tr.Requests) == 0 {
		return Results{}, fmt.Errorf("ssd: empty trace")
	}
	if s.lastHostDone == 0 {
		return Results{}, fmt.Errorf("ssd: RunMore needs a prior Run")
	}
	if s.feeder.remaining() > 0 || s.inFlight > 0 || s.scanning {
		// A cancelled or failed run left its arrivals or scan queued.
		return Results{}, fmt.Errorf("ssd: RunMore after a run that did not finish")
	}
	s.engine.SetContext(ctx)
	defer s.contain(tr.Name, &res, &err)
	busy.Add(1)
	defer busy.Add(-1)
	s.resetMetrics()
	s.f.ResetStats()
	if err := s.replayTimed(tr.Requests); err != nil {
		return s.results(tr.Name), err
	}
	return s.results(tr.Name), nil
}

// arrivalFeeder walks the measured trace as a single reusable engine
// Action: each firing submits one request and re-schedules itself for the
// next arrival, replaying the request slice through a cursor instead of
// allocating a closure per request. The slice is never mutated, so cached
// traces can back any number of runs.
type arrivalFeeder struct {
	s *SSD
	cursor
}

// Run submits the request under the cursor and re-arms for the next one.
func (a *arrivalFeeder) Run() {
	a.s.submit(a.reqs[a.next])
	a.next++
	if a.next < len(a.reqs) {
		a.s.engine.AtAction(a.due(), a)
	}
}

// replayTimed schedules the requests (rebased to the current simulated
// time), arms the refresh scan, and drains the engine. When the replay is
// long, a CPU is spare and neither faults nor telemetry read the device
// state mid-run, the FTL stage (stage.go) walks the same arrivals and ticks
// on its own goroutine; otherwise each arrival and tick makes its FTL calls
// where it happens. A non-nil error means the drain stopped early —
// cancellation, or a mid-simulation failure routed through fail — with
// events still queued.
func (s *SSD) replayTimed(reqs []workload.Request) error {
	start := s.engine.Now()
	s.feeder = arrivalFeeder{s: s, cursor: cursor{reqs: reqs, start: start, base: reqs[0].At}}
	s.engine.AtAction(s.feeder.due(), &s.feeder)
	scan := s.scheduleRefreshScan()
	s.armSampler()
	st := s.stage
	st.clear()
	if len(reqs) >= minPipelined && s.inj == nil && s.tel == nil {
		if procs, ok := claimSpareCPU(); ok {
			st.begin(reqs, start, scan)
			st.spawn(procs)
		}
	}
	if scan {
		s.scan.covered = st.streaming
	}
	defer st.finish()
	return s.engine.Run()
}

// resetMetrics zeroes the host-visible accumulators so a subsequent phase
// measures only itself. Device state and the simulated clock carry over.
func (s *SSD) resetMetrics() {
	s.readResp.Reset()
	s.writeResp.Reset()
	s.readBytes, s.writeBytes = 0, 0
	s.readReqs, s.writeReqs = 0, 0
	s.busySpan = 0
	s.gcBusy, s.refreshBusy = 0, 0
	s.peakInUse, s.peakIDA = 0, 0
	s.stages = StageStats{}
	s.faultStats = FaultStats{}
	s.failedReads = nil
	s.phaseStart = s.engine.Now()
}

// prefill writes every page of the trace's footprint once, in zero
// simulated time, polling ctx once per GC interval.
func (s *SSD) prefill(ctx context.Context, tr *workload.Trace) error {
	var maxEnd int64
	for _, r := range tr.Requests {
		if r.End() > maxEnd {
			maxEnd = r.End()
		}
	}
	pages := ftl.LPN((maxEnd + int64(s.pageSize) - 1) / int64(s.pageSize))
	capacity := ftl.LPN(s.cfg.Geometry.TotalPages())
	if pages > capacity {
		return fmt.Errorf("ssd: trace footprint %d pages exceeds device capacity %d", pages, capacity)
	}
	for lpn := ftl.LPN(0); lpn < pages; lpn++ {
		if _, err := s.f.Write(lpn, 0); err != nil {
			return fmt.Errorf("ssd: prefill: %w", err)
		}
		if lpn%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.collectUncharged(); err != nil {
				return fmt.Errorf("ssd: prefill: %w", err)
			}
		}
	}
	if err := s.collectUncharged(); err != nil {
		return fmt.Errorf("ssd: prefill: %w", err)
	}
	return nil
}

// DeriveFTLMetrics fills the metrics computed from r.FTL — PowerProxy,
// WriteAmplification and MeanProgramPower — so a device's results and an
// array's merged results derive them by the same rule.
func (r *Results) DeriveFTLMetrics() {
	r.PowerProxy = r.FTL.ProgramPower
	if hw := r.FTL.HostWrites; hw > 0 {
		total := hw + r.FTL.GCMoves + r.FTL.RefreshMoves + r.FTL.IDACorruptedWrites
		r.WriteAmplification = float64(total) / float64(hw)
		if programs := total + r.FTL.ProgramFailures; programs > 0 {
			r.MeanProgramPower = r.PowerProxy / float64(programs)
		}
	}
}

// results snapshots the run's measurements.
func (s *SSD) results(name string) Results {
	s.sampleUsage()
	r := Results{
		Trace:             name,
		ReadRequests:      s.readReqs,
		WriteRequests:     s.writeReqs,
		MeanReadResponse:  s.readResp.Mean(),
		P99ReadResponse:   s.readResp.Quantile(0.99),
		MeanWriteResponse: s.writeResp.Mean(),
		Makespan:          s.lastHostDone - s.phaseStart,
		UnmappedReads:     s.stages.Dispatch.UnmappedPages,
		FTL:               s.f.Stats(),
		Usage:             s.f.Usage(),
		PeakInUse:         s.peakInUse,
		PeakIDA:           s.peakIDA,
		GCBusy:            s.gcBusy,
		RefreshBusy:       s.refreshBusy,
		Stages:            s.stages,
		Faults:            s.faultStats,
		Events:            s.engine.Processed(),
		Telemetry:         s.tel.Export(),
	}
	r.Coding = s.f.Options().Code.Name()
	r.Wear = s.f.WearStats()
	r.DeriveFTLMetrics()
	for _, d := range s.dies {
		r.MeanDieUtilization += d.Utilization()
	}
	r.MeanDieUtilization /= float64(len(s.dies))
	for _, c := range s.channels {
		r.MeanChannelUtilization += c.Utilization()
	}
	r.MeanChannelUtilization /= float64(len(s.channels))
	r.BusySpan = s.busySpan
	if s.busySpan > 0 {
		secs := s.busySpan.Seconds()
		r.ThroughputMBps = float64(s.readBytes+s.writeBytes) / (1 << 20) / secs
		r.ReadMBps = float64(s.readBytes) / (1 << 20) / secs
	}
	return r
}
