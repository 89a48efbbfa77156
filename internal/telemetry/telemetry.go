// Package telemetry records the lifecycle of host requests and the time
// evolution of device state inside the simulated SSD, the observability
// layer of the request path built in internal/ssd.
//
// It has two recording surfaces:
//
//   - A span recorder: every sampled host request gets a Span capturing its
//     transitions through the staged request path (arrival -> scheduler
//     queue -> flash sensing/transfer -> ECC decode -> completion), kept
//     in a bounded ring buffer and exportable as Chrome/Perfetto
//     trace-event JSON (trace.go).
//   - A time-series sampler: at a fixed simulated-time interval the device
//     snapshots queue depths, per-channel busy time, in-flight requests,
//     block and merge-state page populations, and GC/refresh activity into
//     Samples, exportable as CSV (timeseries.go).
//
// Both surfaces are driven through nil-safe hooks: every method on
// *Recorder and *Span checks for a nil receiver first, so a disabled
// recorder (the default) costs one predictable branch and zero allocations
// on the simulator's hot path. The benchmark in bench_test.go asserts the
// zero-allocation property.
//
// Recording is deterministic: span IDs and sample order are functions of
// the simulation's own event order, so two runs of the same seeded
// workload export byte-identical traces and CSVs. A Recorder is owned by
// one device (one goroutine); array drivers merge the per-device exports
// afterwards with MergeExports.
package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// Stage identifies one segment of a request's path through the device.
type Stage uint8

// Request-path stages, in pipeline order.
const (
	// StageQueue is the wait in a die/channel scheduler queue before a
	// flash command is served.
	StageQueue Stage = iota
	// StageFlash is the sensing/transfer (reads) or transfer/program
	// (writes) hold on the die and channel.
	StageFlash
	// StageECC is the decode latency after a read transfer.
	StageECC
)

// String names the stage (the trace-event name).
func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StageFlash:
		return "flash"
	case StageECC:
		return "ecc"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Phase is one timed segment of a span. A multi-page request records one
// queue/flash/ecc phase sequence per page, so phases of the same stage may
// repeat and overlap within a span.
type Phase struct {
	Stage      Stage
	Start, End time.Duration // simulated instants
}

// Span is the recorded lifecycle of one sampled host request.
type Span struct {
	// ID is the 1-based arrival index of the request on its device, a
	// deterministic function of the workload.
	ID uint64
	// Device tags the originating device in a striped array (0 for a
	// single device).
	Device int
	Read   bool
	Bytes  int
	// Arrived and Completed are the simulated instants of arrival (which
	// is also entry into service: requests replay open loop) and final
	// page completion.
	Arrived   time.Duration
	Completed time.Duration
	Phases    []Phase
}

// AddPhase appends one timed segment. Zero-width segments are kept: they mark
// instant transitions (e.g. a queue grant with no waiting). Nil-safe.
func (s *Span) AddPhase(st Stage, start, end time.Duration) {
	if s == nil {
		return
	}
	s.Phases = append(s.Phases, Phase{Stage: st, Start: start, End: end})
}

// Config parameterizes a Recorder.
type Config struct {
	// SampleEvery records every Nth request's span; 0 and 1 both mean
	// every request. Sampling is by arrival index, so it is
	// deterministic.
	SampleEvery int
	// SpanCapacity bounds the span ring buffer; when full, the oldest
	// span is overwritten (DroppedSpans counts the losses). Zero means
	// DefaultSpanCapacity.
	SpanCapacity int
	// MetricsInterval is the simulated-time period of the time-series
	// sampler; zero disables time-series recording (spans are still
	// recorded).
	MetricsInterval time.Duration
	// Device tags this recorder's streams with an array member index.
	Device int
}

// DefaultSpanCapacity is the span ring size when Config.SpanCapacity is 0.
const DefaultSpanCapacity = 1 << 14

// Recorder accumulates spans and samples for one device. It counts no
// device activity itself: the device builds each Sample, its Activity
// included, from its own running totals and hands it to Record. All methods
// are nil-safe: a nil *Recorder disables recording at the cost of one branch
// per hook, with no allocations (see bench_test.go).
type Recorder struct {
	cfg      Config
	arrivals uint64 // requests seen (sampling base)

	spans   []Span // ring buffer
	next    int    // ring write cursor
	filled  bool   // ring has wrapped
	dropped uint64

	samples []Sample
}

// New builds a Recorder. The zero Config records every request's span and
// no time series.
func New(cfg Config) *Recorder {
	if cfg.SampleEvery < 0 {
		cfg.SampleEvery = 0
	}
	if cfg.SpanCapacity <= 0 {
		cfg.SpanCapacity = DefaultSpanCapacity
	}
	return &Recorder{cfg: cfg, spans: make([]Span, 0, cfg.SpanCapacity)}
}

// Interval returns the time-series period, or zero when disabled (or when
// the recorder itself is nil).
func (r *Recorder) Interval() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.MetricsInterval
}

// StartRequest registers a host-request arrival and returns its span, or
// nil when the request is not sampled (or the recorder is nil). The span's
// ID is the 1-based arrival index.
func (r *Recorder) StartRequest(arrived time.Duration, read bool, bytes int) *Span {
	if r == nil {
		return nil
	}
	r.arrivals++
	if n := r.cfg.SampleEvery; n > 1 && (r.arrivals-1)%uint64(n) != 0 {
		return nil
	}
	return &Span{
		ID:      r.arrivals,
		Device:  r.cfg.Device,
		Read:    read,
		Bytes:   bytes,
		Arrived: arrived,
	}
}

// FinishRequest stamps the span's completion and commits it to the ring
// buffer. Nil-safe on both receiver and span.
func (r *Recorder) FinishRequest(sp *Span, now time.Duration) {
	if r == nil || sp == nil {
		return
	}
	sp.Completed = now
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, *sp)
		return
	}
	r.spans[r.next] = *sp
	r.next++
	if r.next == len(r.spans) {
		r.next = 0
	}
	r.filled = true
	r.dropped++
}

// Record appends one time-series sample. The caller supplies everything
// but the device tag, which the recorder stamps.
func (r *Recorder) Record(s Sample) {
	if r == nil {
		return
	}
	s.Device = r.cfg.Device
	r.samples = append(r.samples, s)
}

// orderedSpans returns the ring contents oldest-first.
func (r *Recorder) orderedSpans() []Span {
	if !r.filled {
		out := make([]Span, len(r.spans))
		copy(out, r.spans)
		return out
	}
	out := make([]Span, 0, len(r.spans))
	out = append(out, r.spans[r.next:]...)
	out = append(out, r.spans[:r.next]...)
	return out
}

// Export snapshots everything recorded so far. It returns nil for a nil
// recorder, so callers can unconditionally attach it to results.
func (r *Recorder) Export() *Export {
	if r == nil {
		return nil
	}
	return &Export{
		Device:         r.cfg.Device,
		Spans:          r.orderedSpans(),
		DroppedSpans:   r.dropped,
		Samples:        append([]Sample(nil), r.samples...),
		SampleInterval: r.cfg.MetricsInterval,
	}
}

// Export is an immutable snapshot of one or more recorders' streams,
// ready for serialization.
type Export struct {
	// Device is the stream tag, or -1 for a merged multi-device export.
	Device int
	// Spans is ordered by commit time per device; merged exports
	// re-sort by (Arrived, Device, ID).
	Spans        []Span
	DroppedSpans uint64
	// Samples is ordered by (At, Device).
	Samples        []Sample
	SampleInterval time.Duration
}

// MergeExports combines per-device exports into one: spans sorted by
// arrival instant (ties broken by device then ID), samples by sample
// instant then device. Nil exports are skipped; merging nothing returns
// nil. The merge is a pure function of its inputs, so a striped array's
// telemetry stays deterministic even though its devices run concurrently.
func MergeExports(exports ...*Export) *Export {
	live := exports[:0:0]
	for _, e := range exports {
		if e != nil {
			live = append(live, e)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	m := &Export{Device: -1, SampleInterval: live[0].SampleInterval}
	for _, e := range live {
		m.Spans = append(m.Spans, e.Spans...)
		m.Samples = append(m.Samples, e.Samples...)
		m.DroppedSpans += e.DroppedSpans
	}
	sortSpans(m.Spans)
	sortSamples(m.Samples)
	return m
}

// sortSpans orders spans by (Arrived, Device, ID).
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Arrived != b.Arrived {
			return a.Arrived < b.Arrived
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.ID < b.ID
	})
}

// sortSamples orders samples by (At, Device).
func sortSamples(samples []Sample) {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].At != samples[j].At {
			return samples[i].At < samples[j].At
		}
		return samples[i].Device < samples[j].Device
	})
}
