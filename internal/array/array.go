// Package array implements a RAID-0-style striped array of independent
// simulated SSDs, the scale-out layer above internal/ssd. Host requests are
// split at a fixed stripe unit across N devices; each device runs its own
// deterministic discrete-event engine on its own goroutine, and a merge
// step combines the per-device measurements into array-level latency and
// throughput metrics.
//
// Determinism: each device's simulation is bit-for-bit reproducible on its
// own (the engines share nothing), and the merge is a pure function of the
// per-device results, so a whole array run is reproducible too — the
// goroutines only buy wall-clock speed.
package array

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"idaflash/internal/runpool"
	"idaflash/internal/ssd"
	"idaflash/internal/stats"
	"idaflash/internal/telemetry"
	"idaflash/internal/workload"
)

// DefaultStripeKB is the stripe unit used when Config.StripeKB is zero.
const DefaultStripeKB = 64

// seedStep decorrelates per-device randomness: device i runs with the
// template seed offset by i*seedStep.
const seedStep = 0x9E3779B9

// Config describes a striped array.
type Config struct {
	// Devices is the number of independent SSDs. Must be at least 1.
	Devices int
	// StripeKB is the stripe unit in KiB; requests are dealt across
	// devices in chunks of this size. Zero means DefaultStripeKB. It
	// should be a multiple of the device page size for aligned splits.
	StripeKB int
	// Parity rotates a RAID-5-style parity stripe across the devices
	// (see parity.go): N-1 data units per row plus one parity unit, so
	// reads of a failed device are reconstructed from its peers in
	// degraded mode after the run. Requires at least 3 devices.
	Parity bool
	// Device is the per-device configuration template. Each device gets
	// a decorrelated Seed (and FTL seed) derived from it.
	Device ssd.Config
	// Pool is the device arena the members are checked out of: New gets
	// each member from it (an idle device of the geometry reset in place,
	// or a fresh one), and Release puts them back after a clean run. A nil
	// arena builds fresh devices and Release drops them.
	Pool *runpool.Arena
}

func (c Config) withDefaults() (Config, error) {
	if c.Devices < 1 {
		return c, fmt.Errorf("array: Devices %d must be at least 1", c.Devices)
	}
	if c.StripeKB < 0 {
		return c, fmt.Errorf("array: StripeKB %d must be non-negative", c.StripeKB)
	}
	if c.StripeKB == 0 {
		c.StripeKB = DefaultStripeKB
	}
	if c.Parity && c.Devices < 3 {
		return c, fmt.Errorf("array: Parity needs at least 3 devices, have %d", c.Devices)
	}
	return c, nil
}

// Array is a striped set of simulated SSDs.
type Array struct {
	cfg  Config
	unit int64 // stripe unit in bytes
	devs []*ssd.SSD
}

// New builds the array: Devices independent SSD instances from the config
// template, each with its own decorrelated seed.
func New(cfg Config) (*Array, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, unit: int64(cfg.StripeKB) * 1024}
	a.devs = make([]*ssd.SSD, cfg.Devices)
	for i := range a.devs {
		dc := cfg.Device
		dc.Seed += int64(i) * seedStep
		dc.FTL.Seed += int64(i) * seedStep
		if dc.Faults != nil {
			// Outage filtering is by array member index, so each device
			// must know which member it is.
			dc.FaultDevice = i
		}
		if cfg.Device.Telemetry != nil {
			// Each device records into its own stream, tagged with the
			// member index; Merge interleaves them deterministically.
			tc := *cfg.Device.Telemetry
			tc.Device = i
			dc.Telemetry = &tc
		}
		dev, err := cfg.Pool.Get(dc)
		if err != nil {
			return nil, fmt.Errorf("array: device %d: %w", i, err)
		}
		a.devs[i] = dev
	}
	return a, nil
}

// Release parks the member devices back in the configured pool. Call it
// only after a cleanly completed run (the merged results share no memory
// with the devices), and use neither the array nor its devices afterwards.
// A second call is a no-op.
func (a *Array) Release() {
	for i, dev := range a.devs {
		a.cfg.Pool.Put(dev)
		a.devs[i] = nil
	}
}

// Devices returns the number of devices.
func (a *Array) Devices() int { return a.cfg.Devices }

// StripeBytes returns the stripe unit in bytes.
func (a *Array) StripeBytes() int64 { return a.unit }

// Device exposes one member SSD (tests and diagnostics).
func (a *Array) Device(i int) *ssd.SSD { return a.devs[i] }

// Split deals a host trace across devices at the given stripe unit. Each
// request maps to at most one sub-request per device: the stripes a device
// owns within one host extent are consecutive in that device's address
// space, so the per-device extent is contiguous. Sub-requests inherit the
// host arrival time. One device gets the input trace itself.
func Split(tr *workload.Trace, devices int, unitBytes int64) []*workload.Trace {
	if devices == 1 {
		return []*workload.Trace{tr}
	}
	out := memberTraces(tr.Name, devices)
	for _, r := range tr.Requests {
		cutStripes(r, devices, unitBytes, func(d int, q workload.Request) {
			out[d].Requests = append(out[d].Requests, q)
		})
	}
	return out
}

// memberTraces returns one empty trace per device, named for its member.
func memberTraces(name string, devices int) []*workload.Trace {
	out := make([]*workload.Trace, devices)
	for d := range out {
		out[d] = &workload.Trace{Name: fmt.Sprintf("%s@dev%d", name, d)}
	}
	return out
}

// cutStripes calls emit with each device's sub-request of r, in device
// order, as Split lays them down.
func cutStripes(r workload.Request, devices int, unitBytes int64, emit func(d int, q workload.Request)) {
	n := int64(devices)
	s0 := r.Offset / unitBytes
	s1 := (r.End() - 1) / unitBytes
	for d := int64(0); d < n; d++ {
		// First and last stripe of device d inside [s0, s1].
		k0 := s0 + ((d-s0%n)+n)%n
		if k0 > s1 {
			continue
		}
		k1 := k0 + (s1-k0)/n*n
		start := k0 / n * unitBytes
		if k0 == s0 {
			start += r.Offset - s0*unitBytes
		}
		end := k1/n*unitBytes + unitBytes
		if k1 == s1 {
			end = k1/n*unitBytes + (r.End() - s1*unitBytes)
		}
		emit(int(d), workload.Request{At: r.At, Offset: start, Size: int(end - start), Read: r.Read})
	}
}

// share streams one member's part of a request stream: exactly the
// requests Split, or with parity SplitParity, gives device dev, cut one
// source request at a time. Each member of an aging array walks the whole
// stream itself and keeps only its own share, so no member holds the
// stream or another member's share.
type share struct {
	src     workload.Stream
	dev     int
	devices int
	unit    int64
	parity  bool
	// open is the parity form's last piece, held back while the next one
	// may still coalesce into it.
	open    workload.Request
	hasOpen bool
	ready   []workload.Request // closed pieces; ready[next:] are not yet returned
	next    int
}

// Next returns the member's next request, or false once the source is
// exhausted and every piece returned.
func (s *share) Next() (workload.Request, bool) {
	for s.next == len(s.ready) {
		s.ready, s.next = s.ready[:0], 0
		r, ok := s.src.Next()
		if !ok {
			if !s.hasOpen {
				return workload.Request{}, false
			}
			s.hasOpen = false
			return s.open, true
		}
		if s.parity {
			cutParity(r, s.devices, s.unit, s.keep)
		} else {
			cutStripes(r, s.devices, s.unit, s.keep)
		}
	}
	q := s.ready[s.next]
	s.next++
	return q, true
}

// keep collects the member's own pieces of a source request; the parity
// form coalesces them as SplitParity does.
func (s *share) keep(d int, q workload.Request) {
	switch {
	case d != s.dev:
	case !s.parity:
		s.ready = append(s.ready, q)
	case s.hasOpen && coalesce(&s.open, q):
	default:
		if s.hasOpen {
			s.ready = append(s.ready, s.open)
		}
		s.open, s.hasOpen = q, true
	}
}

// Results combines the array-level view with the per-device measurements.
type Results struct {
	// Combined is the merged array-level view. Request counts sum the
	// per-device sub-requests (a host request striped over k devices
	// counts k times); response-time means and quantiles come from the
	// merged per-device latency histograms, so the P99 is the true 99th
	// percentile of the pooled sub-request population rather than the
	// worst device's P99. Still slightly optimistic for host-visible
	// latency, since a striped host request only completes when its
	// slowest sub-request does.
	Combined ssd.Results
	// PerDevice holds each member device's own measurements; devices a
	// trace never touched report a zero value.
	PerDevice []ssd.Results
	// Devices and StripeKB echo the topology that produced the results.
	Devices  int
	StripeKB int
	// Parity reports whether the array ran with the rotated parity
	// stripe; Degraded accounts its post-run reconstruction of failed
	// reads (zero without parity or without faults).
	Parity   bool
	Degraded DegradedStats
}

// Run splits the trace across the devices (each member that ages streams
// its own share of the aging preamble), runs every member concurrently —
// each on its own goroutine, each deterministic in isolation — and merges
// the measurements. Like ssd.Run it may be called once per array.
func (a *Array) Run(tr *workload.Trace, opts ssd.RunOptions) (Results, error) {
	return a.RunContext(context.Background(), tr, opts)
}

// RunContext is Run with cooperative cancellation and failure isolation.
// Cancelling ctx stops every member within the engine polling bounds. When
// one member fails on its own (an invariant violation, an undersized
// device), its siblings are cancelled rather than left to run to completion
// for a result that can no longer be used; the member's own error — not the
// sibling cancellations it caused — is what RunContext returns. Either way
// the merged partial per-device stats accompany the error. Member panics
// are contained inside ssd.RunContext, which matters doubly here: an
// uncontained panic on a device goroutine would kill the whole process, not
// just unwind one call stack.
func (a *Array) RunContext(ctx context.Context, tr *workload.Trace, opts ssd.RunOptions) (Results, error) {
	if err := tr.Validate(); err != nil {
		return Results{}, err
	}
	split := Split
	if a.cfg.Parity {
		split = SplitParity
	}
	subs := split(tr, a.cfg.Devices, a.unit)
	aging, err := opts.AgingSource()
	if err != nil {
		return Results{}, err
	}
	// Every member that ages opens the aging stream itself and keeps its
	// own share of it; members restored from snapshots never open it, and
	// a lone member's share is the whole stream.
	opts.Preamble, opts.Aging = nil, aging
	// Siblings cancel one another through a derived context. A lone member
	// has none, and keeps ctx itself: a derived context is cancellable, and
	// the engine polls a cancellable context on every step.
	runCtx, cancel := ctx, context.CancelFunc(func() {})
	if a.cfg.Devices > 1 {
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	per := make([]ssd.Results, len(a.devs))
	errs := make([]error, len(a.devs))
	run := func(d int) {
		if len(subs[d].Requests) == 0 {
			per[d] = ssd.Results{Trace: subs[d].Name}
			return
		}
		o := opts
		if aging != nil && a.cfg.Devices > 1 {
			o.Aging = func() (workload.Stream, error) {
				src, err := aging()
				if err != nil {
					return nil, err
				}
				return &share{src: src, dev: d, devices: a.cfg.Devices, unit: a.unit, parity: a.cfg.Parity}, nil
			}
		}
		if o.SnapshotKey != "" && a.cfg.Devices > 1 {
			// Each member ages differently: it replays its own split
			// of the trace with its own decorrelated seeds, so the
			// aged state is per (member, topology), not per profile.
			// A lone member replays the whole trace with the template
			// seeds, so it shares the plain device's state.
			o.SnapshotKey = fmt.Sprintf("%s|array:dev=%d/%d,stripe=%d,parity=%t",
				opts.SnapshotKey, d, a.cfg.Devices, a.cfg.StripeKB, a.cfg.Parity)
		}
		res, err := a.devs[d].RunContext(runCtx, subs[d], o)
		per[d] = res // partial stats survive a failed member
		if err != nil {
			errs[d] = fmt.Errorf("array: device %d: %w", d, err)
			cancel()
		}
	}
	var wg sync.WaitGroup
	for d := 1; d < len(a.devs); d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			run(d)
		}(d)
	}
	// The calling goroutine runs the first member itself, so a one-member
	// array runs its device exactly where a plain device run would.
	run(0)
	wg.Wait()
	// The members' response-time histograms are pooled from the devices
	// themselves, before they go back to the arena. One member's results
	// are the array's, so a lone device hands over nothing.
	var reads, writes []*stats.LatencyHist
	if len(a.devs) > 1 {
		reads, writes = make([]*stats.LatencyHist, len(a.devs)), make([]*stats.LatencyHist, len(a.devs))
		for d, dev := range a.devs {
			reads[d], writes[d] = dev.ResponseHists()
		}
	}
	res := Results{
		Combined:  Merge(tr.Name, per, reads, writes),
		PerDevice: per,
		Devices:   a.cfg.Devices,
		StripeKB:  a.cfg.StripeKB,
		Parity:    a.cfg.Parity,
	}
	if err := joinRunErrors(ctx, errs); err != nil {
		return res, err
	}
	// Degraded-mode recovery: with parity enabled, reads the fault
	// scenario failed outright are rebuilt from the peers' shares of the
	// same rows. The pass runs after the measured phase (per-device
	// metrics above are already snapshotted) and is itself deterministic.
	if a.cfg.Parity {
		failed := make([][]ssd.FailedExtent, len(a.devs))
		any := false
		for d := range a.devs {
			failed[d] = a.devs[d].FailedReadExtents()
			any = any || len(failed[d]) > 0
		}
		if any {
			a.reconstruct(failed, &res.Degraded)
		}
	}
	return res, nil
}

// joinRunErrors reduces the per-device errors of one array run. Real
// failures (invariant violations, sizing errors) outrank the context
// cancellations they triggered on their siblings; pure cancellations — the
// caller's ctx, or its deadline — collapse to the caller-visible context
// error so errors.Is(err, context.Canceled) works on the result.
func joinRunErrors(ctx context.Context, errs []error) error {
	var real []error
	var ctxErr error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = e
			}
			continue
		}
		real = append(real, e)
	}
	if len(real) > 0 {
		return errors.Join(real...)
	}
	if ctxErr != nil {
		// Report the caller's own context error when it is the cause.
		if err := ctx.Err(); err != nil {
			return err
		}
		return ctxErr
	}
	return nil
}

// Merge combines per-device results into one array-level ssd.Results (see
// Results.Combined for the metric semantics). Counters and busy times sum;
// response-time statistics come from the merged per-device histograms,
// reads[d] and writes[d] for member d (nil, or a short slice, for none);
// spans take the slowest device; throughput is total bytes moved per second
// of the longest device busy span. Per-device telemetry exports merge into
// one multi-stream export. One member's results are returned unchanged.
func Merge(name string, per []ssd.Results, reads, writes []*stats.LatencyHist) ssd.Results {
	if len(per) == 1 {
		return per[0]
	}
	c := ssd.Results{Trace: name}
	var readHist, writeHist stats.LatencyHist
	tels := make([]*telemetry.Export, 0, len(per))
	var bytesMB, readMB float64 // total host MB moved, from per-device rates
	var utilDevs int
	var totalBlocks int
	for d, r := range per {
		// All members run the same coding scheme, so the name copies.
		c.Coding = r.Coding
		// Wear pools across members: extremes widen, means weight by
		// each device's block count.
		if totalBlocks == 0 || r.Wear.MinErase < c.Wear.MinErase {
			c.Wear.MinErase = r.Wear.MinErase
		}
		if r.Wear.MaxErase > c.Wear.MaxErase {
			c.Wear.MaxErase = r.Wear.MaxErase
		}
		c.Wear.MeanErase += r.Wear.MeanErase * float64(r.Usage.Total)
		totalBlocks += r.Usage.Total
		c.ReadRequests += r.ReadRequests
		c.WriteRequests += r.WriteRequests
		if d < len(reads) {
			readHist.Merge(reads[d])
		}
		if d < len(writes) {
			writeHist.Merge(writes[d])
		}
		tels = append(tels, r.Telemetry)
		if r.Makespan > c.Makespan {
			c.Makespan = r.Makespan
		}
		if r.BusySpan > c.BusySpan {
			c.BusySpan = r.BusySpan
		}
		bytesMB += r.ThroughputMBps * r.BusySpan.Seconds()
		readMB += r.ReadMBps * r.BusySpan.Seconds()
		c.UnmappedReads += r.UnmappedReads
		c.FTL = c.FTL.Add(r.FTL)
		c.Usage = c.Usage.Add(r.Usage)
		c.PeakInUse += r.PeakInUse
		c.PeakIDA += r.PeakIDA
		c.GCBusy += r.GCBusy
		c.RefreshBusy += r.RefreshBusy
		c.Stages = c.Stages.Add(r.Stages)
		c.Faults = c.Faults.Add(r.Faults)
		c.Events += r.Events
		if r.Events > 0 {
			c.MeanDieUtilization += r.MeanDieUtilization
			c.MeanChannelUtilization += r.MeanChannelUtilization
			utilDevs++
		}
	}
	// Every member hands over its histograms (untouched members hold zero
	// requests), so the pooled statistics are exact.
	if readHist.N() > 0 {
		c.MeanReadResponse = readHist.Mean()
		c.P99ReadResponse = readHist.Quantile(0.99)
	}
	if writeHist.N() > 0 {
		c.MeanWriteResponse = writeHist.Mean()
	}
	c.Telemetry = telemetry.MergeExports(tels...)
	if utilDevs > 0 {
		c.MeanDieUtilization /= float64(utilDevs)
		c.MeanChannelUtilization /= float64(utilDevs)
	}
	if secs := c.BusySpan.Seconds(); secs > 0 {
		c.ThroughputMBps = bytesMB / secs
		c.ReadMBps = readMB / secs
	}
	if totalBlocks > 0 {
		c.Wear.MeanErase /= float64(totalBlocks)
	}
	c.Wear.Spread = c.Wear.MaxErase - c.Wear.MinErase
	c.DeriveFTLMetrics()
	return c
}
